(** IPv4 addresses and the longest-matching-prefix operation used by the
    destination distance (Sec. IV-B).

    Note on the paper's formula: the text defines
    [d_ip(px, py) = lmatch(ip_x, ip_y) / 32], which would make identical
    addresses {e maximally} distant — contradicting the stated motivation
    ("if the upper bits of IP addresses match ... the two destinations are
    managed by the same organization").  We treat this as a transcription
    error and expose {!similarity} = lmatch/32 so the distance layer can use
    [1 - similarity]; see [Leakdetect_core.Distance]. *)

type t
(** An IPv4 address.  Total order is numeric. *)

val of_int : int -> t
(** [of_int v] for [v] in [\[0, 2^32)].  @raise Invalid_argument otherwise. *)

val to_int : t -> int

val of_octets : int -> int -> int -> int -> t
(** @raise Invalid_argument when any octet is outside [\[0, 255\]]. *)

val of_string : string -> t option
(** Dotted quad. *)

val to_string : t -> string

val lmatch : t -> t -> int
(** Number of common leading bits, in [\[0, 32\]]; 32 iff equal. *)

val similarity : t -> t -> float
(** [lmatch a b / 32] in [\[0, 1\]]. *)
