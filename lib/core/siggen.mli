(** Signature generation: sample -> distance matrix -> hierarchical
    clustering -> per-cluster invariant tokens -> filtered signature set
    (Sec. IV-D and IV-E end to end). *)

type cut = Pipeline_config.cut = Auto | Threshold of float | Count of int | Every_merge
(** Where to cut the dendrogram into clusters.  The paper iterates over "the
    top of cluster" without fixing a rule; [Auto] cuts at a quarter of the
    maximum possible packet distance under the active components, which
    empirically separates per-advertisement-module clusters.  [Every_merge]
    is the most literal reading of Sec. IV-E: every internal node of the
    dendrogram becomes a candidate cluster (signatures deduplicated by
    token list, degenerate ones rejected as usual).

    (An equation on {!Pipeline_config.cut}: the definition moved into the
    unified config.) *)

type config = Pipeline_config.siggen = {
  linkage : Leakdetect_cluster.Agglomerative.linkage;
      (** Linkage of the agglomerative clustering (default group average,
          the paper's). *)
  cut : cut;
  min_token_len : int;  (** Tokens shorter than this are dropped (default 3). *)
  min_specificity : int;
      (** Signatures whose non-boilerplate token mass is below this are
          rejected as degenerate (default 8). *)
  mode : Signature.mode;
}
(** An equation on {!Pipeline_config.siggen}, so a siggen sub-config can be
    read out of (or spliced into) a unified [Pipeline.Config.t]. *)

val default : config

type result = {
  signatures : Signature.t list;
  dendrogram : Leakdetect_cluster.Dendrogram.t option;
      (** The (merged) dendrogram; [None] only for the empty sample. *)
  clusters : int list list;  (** Sample indices per cluster, post-cut. *)
  rejected : int;  (** Clusters whose signature failed the filters. *)
  stats : Clustering.stats option;
      (** Backend statistics (bucket counts, exact pairs computed);
          [None] only for the empty sample. *)
}

val generate :
  ?config:Pipeline_config.t -> Distance.t -> Leakdetect_http.Packet.t array -> result
(** [generate ~config dist sample] clusters the sample and extracts one
    signature per surviving cluster.  Signature ids number accepted
    clusters from 0 in cut order.  The clustering knobs come from
    [config.siggen], the backend ([Exact] or [Sketch]) from
    [config.clustering]; [config.pool] parallelizes the distance matrix /
    bucketed clustering (see {!Distance.matrix} and {!Clustering.run});
    the result is identical for every pool size.  [config.obs] records
    spans ([siggen.generate] > [siggen.cluster] / [siggen.tokens]) and
    the cluster / signature counters. *)

val cut_threshold_value : config -> Distance.t -> float
(** The concrete threshold [Auto] resolves to (exposed for reporting). *)
