(** Baseline detectors the benchmark compares against the paper's pipeline.

    - {!exact}: the sampled packets themselves are the signature set; a
      packet is detected only if its content equals a sample byte-for-byte.
      No generalization at all — the floor any clustering method must beat.
    - {!sample_substring}: each sampled packet's whole content becomes a
      one-token signature matched by substring.  Mild generalization
      (prefix/suffix noise tolerated), no clustering.
    - {!random_cluster}: the paper's token-extraction and matching, but over
      a uniformly random partition of the sample instead of the hierarchical
      clustering — isolates the contribution of the distance function.

    Each returns the evaluation {!Leakdetect_core.Metrics.t} computed with
    the paper's formulas, so rows are directly comparable. *)

val exact :
  sample:Leakdetect_http.Packet.t array ->
  suspicious:Leakdetect_http.Packet.t array ->
  normal:Leakdetect_http.Packet.t array ->
  Leakdetect_core.Metrics.t

val sample_substring :
  sample:Leakdetect_http.Packet.t array ->
  suspicious:Leakdetect_http.Packet.t array ->
  normal:Leakdetect_http.Packet.t array ->
  Leakdetect_core.Metrics.t

val partition_metrics :
  ?config:Leakdetect_core.Siggen.config ->
  n:int ->
  clusters:Leakdetect_http.Packet.t list list ->
  suspicious:Leakdetect_http.Packet.t array ->
  normal:Leakdetect_http.Packet.t array ->
  unit ->
  Leakdetect_core.Metrics.t
(** Token extraction + degeneracy filtering over an {e arbitrary} partition
    of packets — the signature half of the paper's pipeline without its
    clustering half — evaluated with the paper's metrics.  Used to plug
    alternative clusterers (k-medoids, DBSCAN, random) into the same
    evaluation. *)

val random_cluster :
  rng:Leakdetect_util.Prng.t ->
  ?n_clusters:int ->
  ?config:Leakdetect_core.Siggen.config ->
  sample:Leakdetect_http.Packet.t array ->
  suspicious:Leakdetect_http.Packet.t array ->
  normal:Leakdetect_http.Packet.t array ->
  unit ->
  Leakdetect_core.Metrics.t
(** [n_clusters] defaults to [length sample / 8], matching the cluster
    granularity the hierarchical cut typically produces. *)
