(** End-to-end experiment driver: the full Figure 3(a) server pipeline —
    payload-check split, uniform sample of N suspicious packets, clustering,
    signature generation, whole-trace detection, paper metrics. *)

module Config = Pipeline_config
(** The unified configuration record shared by {!run}, {!Siggen.generate},
    {!Bayes.run} and the CLI — see {!Pipeline_config}. *)

type config = Pipeline_config.t = {
  components : Distance.components;
  compressor : Leakdetect_compress.Compressor.algorithm;
  content_metric : Distance.content_metric;
  registry : Leakdetect_net.Registry.t option;
      (** WHOIS refinement of the destination distance (Sec. VI). *)
  siggen : Siggen.config;
  clustering : Clustering.backend;
      (** Exact O(N²) clustering or the minhash/LSH sketch prefilter. *)
  pool : Leakdetect_parallel.Pool.t option;
  on_error : Config.on_error;
  sample_n : int;
  obs : Leakdetect_obs.Obs.t;
  normalize : Leakdetect_normalize.Normalize.t option;
      (** Canonicalization lattice applied during detection (evasion
          robustness); [None] is the legacy raw-byte path. *)
}
(** Equation on {!Pipeline_config.t}: pre-existing [Pipeline.default_config]
    record updates and [config.Pipeline.field] accesses keep compiling. *)

val default_config : config
(** Alias of {!Config.default}. *)

type outcome = {
  sample_size : int;  (** Actual N drawn (capped by the suspicious count). *)
  signatures : Signature.t list;
  n_clusters : int;
      (** Clusters cut from the dendrogram; each yields one signature or is
          rejected by the degenerate-signature filter. *)
  metrics : Metrics.t;
}

val run :
  ?config:config ->
  ?n:int ->
  rng:Leakdetect_util.Prng.t ->
  suspicious:Leakdetect_http.Packet.t array ->
  normal:Leakdetect_http.Packet.t array ->
  unit ->
  outcome
(** [run ~rng ~suspicious ~normal ()] samples [min n |suspicious|]
    packets, generates signatures and evaluates them on the whole dataset
    (both groups).  The groups are the ground-truth split the paper prepared
    manually (Sec. V-A); obtain them from {!Payload_check.split} or from
    trace labels.

    [n] defaults to [config.sample_n].  When [config.obs] is active, the run is wrapped in a
    [pipeline.run] span and records the [leakdetect_pipeline_*] metric
    families on top of the per-stage instrumentation.

    [config.pool] parallelizes the two hot phases — the NCD distance matrix and
    whole-trace detection — over its domains.  Sampling, clustering and
    signature extraction are unchanged and the outcome is bit-identical
    for every pool size. *)

