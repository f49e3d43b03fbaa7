(** Small string helpers shared across the codebase. *)

val index_in : string -> pos:int -> stop:int -> char -> int
(** [index_in s ~pos ~stop c] is the offset of the first [c] in
    [s.\[pos .. stop-1\]], or [-1].
    @raise Invalid_argument on a range outside [s]. *)

val equal_caseless : string -> string -> bool
(** ASCII case-insensitive equality, without lower-cased copies. *)

val truncate_middle : int -> string -> string
(** [truncate_middle width s] shortens [s] to at most [width] characters,
    eliding the middle with ["..."], for display purposes. *)

val add_int : Buffer.t -> int -> unit
(** [add_int buf n] appends [string_of_int n] to [buf], digit by digit:
    no intermediate string and no trip through the C formatter. *)
