(** Longest common substrings.  Conjunction-signature generation (Sec. IV-E)
    needs the longest substring shared by {e every} packet in a cluster. *)

val of_set : string list -> string
(** [of_set strings] is a longest substring common to every string in the
    list; [""] when the list is empty, any string is empty, or nothing is
    shared.  Implemented by binary search on the answer length with a rolling
    hash, verified with exact comparison, so hash collisions cannot produce a
    wrong answer. *)
