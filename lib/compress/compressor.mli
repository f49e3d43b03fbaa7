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

module Cache : sig
  (** Memoizes [C(x)] per input string and [C(xy)] per canonical pair.  The
      clustering stage evaluates C(x), C(y) and C(xy) for every pair in an
      NxN matrix; caching the singleton lengths removes half the work, and
      the bounded pair cache removes the rest for repeated pairs (packet
      fields repeat heavily — empty cookies, boilerplate request lines).

      {b Freezing.}  A plain [Hashtbl] is not safe for concurrent mutation,
      so the parallel distance matrix uses a two-phase protocol: warm the
      cache sequentially (or via {!preload}), call {!freeze}, then share
      the cache read-only across domains.  While frozen, lookups that miss
      degrade to a direct computation — nothing is inserted — and are
      counted in [stats.frozen_misses]; {!preload} raises.  {!thaw}
      restores normal single-domain caching. *)

  type t

  type stats = {
    hits : int;  (** singleton-length cache hits *)
    misses : int;  (** singleton-length computations that were cached *)
    pair_hits : int;  (** pair-length [C(xy)] cache hits *)
    pair_misses : int;  (** pair-length computations *)
    frozen_misses : int;  (** uncached computations while frozen *)
  }

  val create : ?pair_capacity:int -> algorithm -> t
  (** [pair_capacity] bounds the pair-level cache (default 16384 entries);
      once full, further pairs compute without being stored. *)

  val shadow : t -> t
  (** [shadow frozen] is a fresh, unfrozen cache whose misses fall back to
      reading [frozen]'s tables before computing.  Each domain in a
      parallel loop gets its own shadow: singleton lookups hit the shared
      prewarmed table, while pair results are cached privately — restoring
      pair-level dedup that freezing alone would forfeit.  The shadow never
      writes to its parent.
      @raise Invalid_argument if the parent is not frozen. *)

  val algorithm : t -> algorithm
  val length_bits : t -> string -> int

  val preload : t -> string -> int -> unit
  (** [preload t s c] seeds the singleton cache with a length computed
      elsewhere (the parallel prewarm pass).  First write wins.
      @raise Invalid_argument when the cache is frozen. *)

  val freeze : t -> unit
  (** Seal both tables read-only so the cache can be shared across
      domains.  Idempotent. *)

  val thaw : t -> unit
  val frozen : t -> bool

  val ncd : t -> string -> string -> float
  (** [ncd t x y] is [(C(xy) - min(C(x),C(y))) / max(C(x),C(y))], clamped to
      [\[0, 1\]]; by convention 0 when both strings are empty.  The
      concatenation is taken in canonical (lexicographic) order so the
      distance is exactly symmetric.  A pair-cache miss, frozen or not,
      computes [C(xy)] with {!concat_length_bits}, so under LZ77 it
      allocates nothing. *)

  val stats : t -> stats
  (** Counter snapshot — exposed for tests and the benchmark report.
      Hit/miss counters other than [frozen_misses] are only maintained
      while unfrozen (they would be data races otherwise). *)

  val size : t -> int
  (** Singleton entries currently cached. *)

  val pair_size : t -> int
  (** Pair entries currently cached (bounded by [pair_capacity]). *)
end
