(** Probabilistic (Bayes) signatures — the future-work extension the paper
    names in Sec. VI ("Probabilistic signatures [14], [30], [31] might
    improve detection of information leakage ... we hope to include them in
    our scheme in future work"), after Polygraph's Bayes signatures.

    Instead of a hard conjunction, every candidate token gets a weight

      w(t) = log P(t | suspicious) - log P(t | benign)

    estimated with add-one smoothing from a suspicious training sample and
    a benign training sample.  A packet's score is the sum of the weights
    of the tokens it contains; it is flagged when the score reaches a
    threshold chosen so that at most [target_fp] of the benign training
    sample is flagged.  This degrades gracefully where conjunctions are
    brittle: a packet missing one token of a signature can still be caught
    by the remaining evidence. *)

type scored_token = { token : string; weight : float }

type t = {
  tokens : scored_token list;  (** Positive-weight tokens only. *)
  threshold : float;
}

val candidate_tokens :
  ?min_token_len:int ->
  Leakdetect_http.Packet.t list list ->
  string list
(** Union of the invariant tokens of each cluster (deduplicated,
    boilerplate removed) — the candidate set Polygraph feeds its Bayes
    learner. *)

val train :
  ?target_fp:float ->
  tokens:string list ->
  suspicious:Leakdetect_http.Packet.t array ->
  benign:Leakdetect_http.Packet.t array ->
  unit ->
  t
(** [train ~tokens ~suspicious ~benign ()] estimates weights and picks the
    threshold ([target_fp] defaults to 0.005).  @raise Invalid_argument
    when either training sample is empty. *)

type compiled

val compile : t -> compiled

val count_detected : compiled -> Leakdetect_http.Packet.t array -> int

type outcome = {
  signature_ : t;
  n_tokens : int;
  metrics : Metrics.t;
}

val run :
  ?config:Pipeline_config.t ->
  ?target_fp:float ->
  ?benign_train:int ->
  rng:Leakdetect_util.Prng.t ->
  ?n:int ->
  suspicious:Leakdetect_http.Packet.t array ->
  normal:Leakdetect_http.Packet.t array ->
  unit ->
  outcome
(** End-to-end Bayes variant of {!Pipeline.run}: sample N suspicious
    packets (default [config.sample_n]), cluster them exactly as the paper
    does, take the per-cluster invariant tokens as candidates, train
    weights against a benign sample of [benign_train] packets (default
    2000), and evaluate on the whole dataset with the paper's metrics. *)
