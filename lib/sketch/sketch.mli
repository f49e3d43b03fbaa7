(** Minhash/LSH sketch prefilter — the sub-quadratic front half of sketch
    clustering.

    Payloads are shingled ({!Shingle}), minhashed ({!Minhash}) and LSH-
    bucketed ({!Lsh}); the clustering backend then runs exact NCD + UPGMA
    only inside each bucket.  Everything here is deterministic in
    [params]: the same payloads and parameters give byte-identical buckets
    at any pool size. *)

type params = {
  shingle_len : int;  (** n-gram width over payload bytes *)
  hashes : int;  (** minhash signature width *)
  bands : int;  (** LSH bands; bands * rows <= hashes *)
  rows : int;  (** slots per band *)
  seed : int;  (** seeds the minhash key vector *)
  max_bucket : int;  (** cap on exact-clustering bucket size *)
}

val default : params
(** shingle_len 4, hashes 128, bands 32, rows 4 (threshold ≈ 0.42),
    seed 0x5eed, max_bucket 256. *)

val validate : params -> (unit, string) result
(** Structural checks: positive fields, [bands * rows <= hashes],
    [max_bucket >= 2]. *)

val threshold : params -> float
(** Similarity at the collision curve's steep middle — see
    {!Lsh.threshold}. *)

val signatures : ?pool:Leakdetect_parallel.Pool.t -> params -> string array -> int64 array array
(** [signatures ?pool p payloads] minhashes every payload (fanned over the
    pool; slot [i] is payload [i]'s signature regardless of schedule).
    @raise Invalid_argument when [validate p] fails. *)

val bucket : ?pool:Leakdetect_parallel.Pool.t -> params -> string array -> int list list
(** [bucket ?pool p payloads] is the disjoint partition of payload indices
    into LSH buckets.  A bucket larger than [p.max_bucket] is refined by
    re-running LSH over its members with progressively stricter banding
    (fewer, wider bands — reusing the same signatures); only groups whose
    signatures agree on every hash and still exceed the cap are split into
    consecutive index-ascending slices.  A final rescue pass re-runs LSH
    at half the rows and lets any stranded singleton rejoin a colliding
    bucket that still has room — a lone near-member would otherwise become
    a verbatim-payload signature that matches nothing.  Buckets appear in
    ascending
    first-member order with ascending members — a pure function of
    [payloads] and [p].
    @raise Invalid_argument when [validate p] fails. *)
