(** State directories: the on-disk homes of journals and snapshots. *)

val ensure : string -> (unit, string) result
(** Create the directory if it is missing; [Error] when the path exists
    and is not a directory, or cannot be created. *)

val remove : string -> unit
(** Delete a file, or a directory and everything in it. *)

val with_root : prefix:string -> string option -> (string -> 'a) -> 'a
(** [with_root ~prefix dir f] runs [f] in [dir] (created if missing, kept
    afterwards), or without a [dir] in a fresh temporary directory named
    after [prefix] and removed when [f] returns. *)
