(** Clustering backend selection — exact O(N²) or the minhash/LSH sketch
    prefilter.

    [Exact] builds the full pairwise NCD matrix and runs the selected
    {!Leakdetect_cluster.Cluster.algorithm} over it: the paper's
    procedure, quadratic in the sample.  [Sketch] first buckets
    near-duplicate payloads with {!Leakdetect_sketch.Sketch}, runs the
    exact matrix and algorithm only inside each bucket, and merges the
    per-bucket results: hierarchies are stitched under balanced synthetic
    joins one unit above the maximum possible packet distance (so any
    sensible dendrogram cut keeps buckets apart), partitions are
    concatenated.  When every payload lands in one bucket the sketch path
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

type result = { output : Leakdetect_cluster.Cluster.output; stats : stats }

val run :
  ?pool:Leakdetect_parallel.Pool.t ->
  ?obs:Leakdetect_obs.Obs.t ->
  backend:backend ->
  algorithm:Leakdetect_cluster.Cluster.algorithm ->
  Distance.t ->
  Leakdetect_http.Packet.t array ->
  result
(** [run ~backend ~algorithm dist sample] clusters the sample.  With
    [?pool], [Exact] parallelizes the matrix pair loop and [Sketch]
    parallelizes signature computation and fans whole buckets across
    domains over one interned view of the sample ({!Distance.with_view}).
    [?obs] (default noop) records the sketch bucket counters
    ([leakdetect_cluster_buckets_total], [leakdetect_cluster_bucket_size],
    [leakdetect_cluster_exact_pairs_total],
    [leakdetect_cluster_pairs_avoided_total]) and the view's host-distance
    and [C(xy)] counters, plus whatever {!Distance.matrix} records on the
    exact path. *)
