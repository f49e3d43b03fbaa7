(** Levenshtein edit distance.  The paper defines the HTTP-host component of
    the destination distance as [ed(host_x, host_y) / max(len x, len y)]
    (Sec. IV-B). *)

val distance : string -> string -> int
(** Unit-cost insert/delete/substitute Levenshtein distance, O(|a|*|b|) time,
    O(min(|a|,|b|)) space. *)

val normalized : string -> string -> float
(** [distance a b / max (len a) (len b)], the paper's [d_host].  Defined as 0
    when both strings are empty.  Result lies in [\[0, 1\]]. *)
