(** Exact substring search (Knuth-Morris-Pratt).  Signature matching scans
    every packet in the trace for every token of every signature, so this is
    the hottest primitive in the detector. *)

val index : ?from:int -> needle:string -> string -> int option
(** [index ?from ~needle hay] is the position of the first occurrence of
    [needle] in [hay] at or after [from].  The empty needle matches at
    [from] (clamped to the haystack length). *)

val contains : needle:string -> string -> bool

val failure_function : string -> int array
(** KMP failure function, exposed for testing.  [f.(i)] is the length of the
    longest proper border of [needle\[0..i\]]. *)

type compiled
(** A pre-processed needle, reusable across many haystacks. *)

val compile : string -> compiled
val compiled_needle : compiled -> string
val find : compiled -> ?from:int -> string -> int option
val matches : compiled -> string -> bool
