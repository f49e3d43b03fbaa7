(** Deterministic pseudo-random number generation.

    Every stochastic component of the reproduction draws from this module so
    that a workload is fully determined by its seed.  The generator is
    xoshiro256** (Blackman & Vigna), seeded through SplitMix64 as its authors
    recommend.  States are mutable but never shared implicitly: use {!split}
    to derive independent streams for sub-components. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from an integer seed.  Equal seeds give
    equal streams. *)

val split : t -> t
(** [split t] advances [t] and returns a fresh generator whose stream is
    statistically independent of [t]'s subsequent output.  Used to give every
    simulated application its own stream regardless of generation order. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val bits30 : t -> int
(** 30 uniform bits as a non-negative [int]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  @raise Invalid_argument if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float
(** Uniform float in [\[0, 1)]. *)

val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
