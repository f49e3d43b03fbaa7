(** K-medoids (PAM: BUILD + SWAP) over a precomputed distance matrix.

    A partitional alternative to the paper's hierarchical clustering,
    included in the ablation benchmark: it needs [k] fixed up front — the
    very parameter the dendrogram cut avoids choosing — which is the
    qualitative argument for the paper's design. *)

type result = {
  medoids : int array;  (** Item indices, one per cluster, sorted. *)
  assignment : int array;  (** For each item, the index into [medoids]. *)
}

val cluster :
  rng:Leakdetect_util.Prng.t ->
  k:int ->
  ?max_iterations:int ->
  Dist_matrix.t ->
  result
(** [cluster ~rng ~k m] with greedy BUILD initialization and first-
    improvement SWAP refinement (at most [max_iterations] passes,
    default 30).  [k] is clamped to the item count.
    @raise Invalid_argument when [k < 1] or the matrix is empty. *)

val clusters : result -> int list list
(** Member lists per medoid, each sorted ascending. *)
