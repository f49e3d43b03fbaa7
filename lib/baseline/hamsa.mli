(** Hamsa-style greedy signature generation (Li et al., S&P 2006 — cited by
    the paper as [30] among the probabilistic approaches it considers
    adopting).

    Hamsa builds a multiset signature greedily: starting from the candidate
    token pool, repeatedly add the token that maximizes coverage of the
    suspicious pool while keeping the false-positive rate on a benign pool
    under a bound that tightens with each added token ([u(k) = u0 * ur^k]).
    The resulting token set matches a packet when {e all} selected tokens
    occur (conjunction semantics), so it is directly comparable with the
    paper's cluster signatures.

    This implementation generates one such signature per iteration against
    the still-uncovered suspicious pool, until coverage stops improving —
    Hamsa's outer loop for polymorphic mixes. *)

type config = {
  u0 : float;  (** Initial benign false-positive bound (default 0.04). *)
  ur : float;  (** Per-token tightening factor (default 0.5). *)
  max_tokens : int;  (** Per-signature token budget (default 8). *)
  max_signatures : int;  (** Outer-loop budget (default 32). *)
  min_coverage : int;  (** Stop when a signature covers fewer packets. *)
}

val generate :
  ?config:config ->
  tokens:string list ->
  suspicious:Leakdetect_http.Packet.t array ->
  benign:Leakdetect_http.Packet.t array ->
  unit ->
  Leakdetect_core.Signature.t list
(** Greedy signature set over the candidate [tokens].  Signature ids are
    assigned in generation order. *)

val evaluate :
  ?config:config ->
  rng:Leakdetect_util.Prng.t ->
  n:int ->
  ?benign_train:int ->
  suspicious:Leakdetect_http.Packet.t array ->
  normal:Leakdetect_http.Packet.t array ->
  unit ->
  Leakdetect_core.Metrics.t
(** End-to-end comparator: sample N suspicious packets, cluster them with
    the paper's pipeline to obtain candidate tokens, run Hamsa's greedy
    selection against a benign sample, evaluate with the paper's metrics. *)
