(** Banded LSH bucketing over minhash signatures.

    Signatures are split into [bands] bands of [rows] slots each (using the
    first [bands * rows] slots); items whose slots agree on any whole band
    become candidates, and candidates are closed transitively into disjoint
    buckets.  The (bands, rows) pair tunes the similarity threshold at
    which collision becomes likely — see {!threshold}. *)

val buckets : bands:int -> rows:int -> int64 array array -> int list list
(** [buckets ~bands ~rows sigs] partitions indices [0 .. n-1] of [sigs]
    into disjoint buckets: the connected components of the
    shares-some-band relation.  Deterministic — buckets appear in
    ascending order of their first member and members ascend within each
    bucket, so the result is a pure function of [sigs].
    @raise Invalid_argument when [bands < 1], [rows < 1], or any
    signature is narrower than [bands * rows]. *)

val threshold : bands:int -> rows:int -> float
(** [(1/bands)^(1/rows)] — the similarity at which the collision curve
    crosses its steep middle; pairs above it are likely candidates. *)
