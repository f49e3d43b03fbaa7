(** The unified pipeline configuration ([Pipeline.Config]).

    Every knob the end-to-end pipeline reads lives here: distance
    components and compressor, the signature-generation sub-config, the
    domain pool, the parse-error policy, the default sample size N and the
    observability registry.  It is the only way to set these knobs:
    [Pipeline], [Siggen], [Bayes] and the loaders read them from here.

    Build configurations from {!default} with record updates or the
    [with_*] builders:

    {[
      Pipeline.Config.(default |> with_pool pool |> with_obs registry)
    ]} *)

(** Where to cut the dendrogram into clusters (see {!Siggen.cut}). *)
type cut = Auto | Threshold of float | Count of int | Every_merge

type siggen = {
  linkage : Leakdetect_cluster.Agglomerative.linkage;
      (** Linkage of the agglomerative clustering (default
          [Group_average], the paper's configuration). *)
  cut : cut;
  min_token_len : int;  (** Tokens shorter than this are dropped (default 3). *)
  min_specificity : int;
      (** Signatures whose non-boilerplate token mass is below this are
          rejected as degenerate (default 8). *)
  mode : Signature.mode;
}
(** The signature-generation sub-config; [Siggen.config] is an equation on
    this type, so the two are interchangeable. *)

val default_siggen : siggen

type on_error = [ `Fail | `Skip ]
(** Policy for malformed trace / signature lines: fail on the first, or
    salvage and count. *)

type t = {
  components : Distance.components;
  compressor : Leakdetect_compress.Compressor.algorithm;
  content_metric : Distance.content_metric;
  registry : Leakdetect_net.Registry.t option;
      (** WHOIS refinement of the destination distance (Sec. VI). *)
  siggen : siggen;
  clustering : Clustering.backend;
      (** Exact O(N²) clustering (default) or the minhash/LSH sketch
          prefilter — see {!Clustering}. *)
  pool : Leakdetect_parallel.Pool.t option;
      (** Domain pool for the parallel phases; [None] = sequential. *)
  on_error : on_error;  (** Parse-error policy for loaders (default [`Fail]). *)
  sample_n : int;  (** Default sample size N when a run does not pass one. *)
  obs : Leakdetect_obs.Obs.t;
      (** Observability registry; {!Leakdetect_obs.Obs.noop} (the default)
          disables instrumentation at one-branch cost. *)
  normalize : Leakdetect_normalize.Normalize.t option;
      (** Canonicalization lattice for evasion-robust matching; [None]
          (the default) is the byte-identical legacy raw-byte path. *)
}

val default : t

val with_clustering : Clustering.backend -> t -> t
(** Select the clustering backend: [Clustering.Exact] (the default) or
    [Clustering.Sketch params] for sub-quadratic LSH-bucketed runs. *)

val with_pool : Leakdetect_parallel.Pool.t option -> t -> t

val with_jobs : ?obs:Leakdetect_obs.Obs.t -> int -> t -> t
(** Attach the process-wide warm pool for [jobs] domains
    ({!Leakdetect_parallel.Pool.warm}): the domains are spun up once and
    reused by every phase and every subsequent configuration that asks for
    the same width, instead of paying domain spawn/teardown per run.
    [jobs <= 1] selects the sequential path ([pool = None]). *)

val with_obs : Leakdetect_obs.Obs.t -> t -> t
val with_normalize : Leakdetect_normalize.Normalize.t option -> t -> t

val distance : t -> Distance.t
(** A fresh {!Distance.t} built from the distance-related fields. *)
