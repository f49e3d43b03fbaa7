(** Clustering backend selection — exact O(N²) or the minhash/LSH sketch
    prefilter.

    [Exact] builds the full pairwise NCD matrix and runs
    {!Leakdetect_cluster.Agglomerative} over it with the given linkage:
    the paper's procedure, quadratic in the sample.  [Sketch] first
    buckets near-duplicate payloads with {!Leakdetect_sketch.Sketch}, runs
    the exact matrix and linkage only inside each bucket, and stitches the
    per-bucket dendrograms under balanced synthetic joins one unit above
    the maximum possible packet distance (so any sensible dendrogram cut
    keeps buckets apart).  When every payload lands in one bucket the sketch path
    degenerates to the exact path, byte for byte.

    Both backends are deterministic at any pool size: bucketing is a pure
    function of the payloads and sketch parameters, and per-bucket results
    are written to slots owned by their bucket index. *)

type backend = Exact | Sketch of Leakdetect_sketch.Sketch.params

val default_sketch : Leakdetect_sketch.Sketch.params
(** Re-export of {!Leakdetect_sketch.Sketch.default} so config call sites
    need not bind the sketch library. *)

val backend_name : backend -> string
(** ["exact"] or ["sketch"] — the CLI flag vocabulary. *)

type stats = {
  backend : string;
  buckets : int;  (** 1 for exact; LSH bucket count for sketch *)
  largest_bucket : int;
  exact_pairs : int;  (** NCD pair distances actually computed *)
  total_pairs : int;  (** C(n,2): what [Exact] would compute *)
}

type result = {
  dendrogram : Leakdetect_cluster.Dendrogram.t option;  (** [None] only for the empty sample *)
  stats : stats;
}

val run :
  ?pool:Leakdetect_parallel.Pool.t ->
  ?obs:Leakdetect_obs.Obs.t ->
  backend:backend ->
  linkage:Leakdetect_cluster.Agglomerative.linkage ->
  Distance.t ->
  Leakdetect_http.Packet.t array ->
  result
(** [run ~backend ~linkage dist sample] clusters the sample.  With
    [?pool], [Exact] parallelizes the matrix pair loop and [Sketch]
    parallelizes signature computation and fans whole buckets across
    domains over one interned view of the sample ({!Distance.with_view}).
    [?obs] (default noop) records the sketch bucket counters
    ([leakdetect_cluster_buckets_total], [leakdetect_cluster_bucket_size],
    [leakdetect_cluster_exact_pairs_total],
    [leakdetect_cluster_pairs_avoided_total]) and the view's host-distance
    and [C(xy)] counters, plus whatever {!Distance.matrix} records on the
    exact path. *)
