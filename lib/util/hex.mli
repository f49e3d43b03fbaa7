(** Lowercase hexadecimal encoding, as used for transmitted UDID hashes. *)

val encode : string -> string
(** [encode s] is the lowercase hex rendering of the bytes of [s]. *)

val decode_into : Buffer.t -> string -> pos:int -> len:int -> bool
(** [decode_into buf s ~pos ~len] appends the bytes that [s.\[pos .. pos+len-1\]]
    encodes to [buf] and returns [true]; on odd [len] or a non-hex digit it
    returns [false] and leaves [buf] as it was.
    @raise Invalid_argument if the range is not inside [s]. *)

val is_hex : string -> bool
(** [is_hex s] is true when [s] is non-empty and all characters are hex
    digits. *)

val value : char -> int
(** The value of one hex digit (either case), or [-1]. *)

val is_digit : char -> bool
(** [is_digit c] is [value c >= 0]. *)

val int_of_sub : string -> pos:int -> len:int -> int
(** [int_of_sub s ~pos ~len] reads [s.\[pos .. pos+len-1\]] as an unsigned
    hex number (either case, no prefix, leading zeros allowed), or [-1]
    when the range is empty, holds a non-digit, or its value exceeds
    [max_int].  It never wraps, so a result is never a negative size.
    @raise Invalid_argument if the range is not inside [s]. *)
