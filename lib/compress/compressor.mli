(** Unified compressor interface.

    The normalized compression distance (Sec. IV-C) treats the compressor as
    a parameter [C].  The paper does not name its compressor; LZ77 is the
    default here (same family as the zlib/gzip coders normally used for NCD)
    and LZW / Huffman are kept for the ablation benchmark. *)

type algorithm = Lz77 | Lzw | Huffman

val all : algorithm list
val name : algorithm -> string
val of_name : string -> algorithm option

val compress : algorithm -> string -> string
val decompress : algorithm -> string -> string

val length_bits : algorithm -> string -> int
(** [length_bits algo s] is [C(s)] in bits — the quantity fed to the NCD
    formula.  Bits rather than bytes: packets are short and byte rounding
    would quantize the distance visibly. *)

val concat_length_bits : algorithm -> string -> string -> int
(** [concat_length_bits algo x y] is [length_bits algo (x ^ y)] — the
    [C(xy)] term of the NCD.  LZ77 computes it without allocating the
    concatenation (see {!Lz77.concat_length_bits}); LZW and Huffman form
    [x ^ y]. *)

val ncd_of_lengths : cx:int -> cy:int -> cxy:int -> float
(** [ncd_of_lengths ~cx ~cy ~cxy] is the NCD formula
    [(C(xy) - min(C x, C y)) / max(C x, C y)], clamped to [\[0, 1\]].  The
    one place the formula lives: the string-keyed {!Cache.ncd} and the
    interned distance matrix both finish through it. *)

module Cache : sig
  (** Memoizes [C(x)] per input string and [C(xy)] per canonical pair, for
      string-level NCD queries.  Caching the singleton lengths removes half
      the work of repeated comparisons, and the bounded pair cache removes
      the rest for repeated pairs (packet fields repeat heavily — empty
      cookies, boilerplate request lines).  A plain [Hashtbl] underneath:
      use one cache per domain.  The distance-matrix build does not go
      through this cache; it interns its sample instead (see
      [Leakdetect_core.Distance]). *)

  type t

  type stats = {
    hits : int;  (** singleton-length cache hits *)
    misses : int;  (** singleton-length computations *)
    pair_hits : int;  (** pair-length [C(xy)] cache hits *)
    pair_misses : int;  (** pair-length computations *)
  }

  val create : ?pair_capacity:int -> algorithm -> t
  (** [pair_capacity] bounds the pair-level cache (default 16384 entries);
      once full, further pairs compute without being stored. *)

  val algorithm : t -> algorithm
  val length_bits : t -> string -> int

  val ncd : t -> string -> string -> float
  (** [ncd t x y] is {!ncd_of_lengths} over [C(x)], [C(y)] and [C(xy)]; by
      convention 0 when both strings are empty.  The concatenation is taken
      in canonical (lexicographic) order so the distance is exactly
      symmetric.  A pair-cache miss computes [C(xy)] with
      {!concat_length_bits}, so under LZ77 it allocates nothing. *)

  val stats : t -> stats
  (** Counter snapshot — exposed for tests. *)

  val pair_size : t -> int
  (** Pair entries currently cached (bounded by [pair_capacity]). *)
end
