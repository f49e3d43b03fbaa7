(** LZ77 with a hash-chain match finder — the workhorse compressor behind the
    normalized compression distance (Sec. IV-C).  The format is a simple
    bit-packed token stream (not DEFLATE-compatible), chosen so that the
    compressed length reflects repeated structure the same way zlib would:

    - header: original length as a 32-bit little-endian bit field;
    - literal token: a [0] bit then 8 bits of the byte;
    - match token: a [1] bit, 15 bits of backwards distance (1-based) and
      8 bits of [length - min_match].

    Window 32 KiB, match lengths 3..258 (as in DEFLATE).  The parse is
    greedy: at each position the longest match among the 64 most recent
    in-window candidates sharing its 3-byte hash, else a literal.

    One parser serves every entry point.  It runs over a per-domain scratch
    (hash heads and a window-sized chain ring, allocated once per domain
    and never cleared), so {!compressed_length_bits} and
    {!concat_length_bits} allocate nothing once the domain is warm and are
    safe to call from several domains at once. *)

val min_match : int
val max_match : int
val window_size : int

val compress : string -> string
val decompress : string -> string
(** @raise Invalid_argument on a corrupt stream. *)

val compressed_length_bits : string -> int
(** [compressed_length_bits s] is [8 * String.length (compress s)] before
    padding to a byte: 32 + 9 per literal + 24 per match, counted without
    emitting the stream. *)

val concat_length_bits : string -> string -> int
(** [concat_length_bits x y] is [compressed_length_bits (x ^ y)], bit for
    bit, without allocating the concatenation: both strings are copied
    into a per-domain buffer that grows on demand.  This is [C(xy)] in the
    NCD formula. *)
