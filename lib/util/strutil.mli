(** Small string helpers shared across the codebase. *)

val find_from : string -> pos:int -> stop:int -> string -> int
(** [find_from s ~pos ~stop sub] is the offset of the first occurrence of the
    non-empty [sub] lying wholly inside [s.\[pos .. stop-1\]], or [-1].
    Bytes are compared in place, so a search allocates nothing.
    @raise Invalid_argument on an empty [sub] or a range outside [s]. *)

val index_in : string -> pos:int -> stop:int -> char -> int
(** [index_in s ~pos ~stop c] is the offset of the first [c] in
    [s.\[pos .. stop-1\]], or [-1].
    @raise Invalid_argument on a range outside [s]. *)

val equal_caseless : string -> string -> bool
(** ASCII case-insensitive equality, without lower-cased copies. *)

val chop_prefix : prefix:string -> string -> string option
(** [chop_prefix ~prefix s] removes a leading [prefix], if present. *)

val chop_suffix : suffix:string -> string -> string option

val trim_spaces : string -> string
(** Trim ASCII space and tab from both ends. *)

val take : int -> string -> string
(** [take n s] is the first [min n (length s)] characters. *)

val repeat : string -> int -> string
(** [repeat s n] concatenates [n] copies of [s]. *)

val common_prefix_len : string -> string -> int
(** Length of the longest common prefix. *)

val is_printable_ascii : string -> bool
(** True when every byte is in [\[0x20, 0x7e\]]. *)

val truncate_middle : int -> string -> string
(** [truncate_middle width s] shortens [s] to at most [width] characters,
    eliding the middle with ["..."], for display purposes. *)
