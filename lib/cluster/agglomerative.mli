(** Hierarchical agglomerative clustering.

    The paper (Sec. IV-D) assigns each packet to its own cluster and
    repeatedly merges the two nearest clusters under the group-average
    distance

      d_group(Cx, Cy) = (1 / |Cx||Cy|) * sum over pairs of d_pkt

    until one cluster remains.  This module implements that procedure with
    the Lance-Williams update, which maintains the exact group-average
    between merged clusters without re-summing pairs.  Single and complete
    linkage are provided for the ablation benchmark. *)

type linkage = Group_average | Single | Complete

val linkage_name : linkage -> string
val linkage_of_name : string -> linkage option

val cluster : ?linkage:linkage -> Dist_matrix.t -> Dendrogram.t option
(** [cluster m] is [None] only for an empty matrix.  With [n] items it
    performs exactly [n - 1] merges; each merge records its linkage distance
    as the dendrogram height.  O(n^2) memory, O(n^3) time — the paper's
    sample sizes (N <= 500) keep this well under a second. *)
