(** Nearest-neighbor-chain agglomerative clustering.

    Produces the same hierarchy as {!Agglomerative.cluster} for {e reducible}
    linkages (group-average, single, complete — all three here) in O(n^2)
    time instead of the naive O(n^3) global-minimum scan, provided no two
    candidate merges tie.  The paper's N is
    small enough for either; this implementation exists so the library
    scales to larger samples, and the test suite uses the naive version as
    its oracle. *)

val cluster :
  ?linkage:Agglomerative.linkage -> Dist_matrix.t -> Dendrogram.t option
(** Same contract as {!Agglomerative.cluster}.  Without ties the multiset
    of merge heights is identical to the naive algorithm's (child order may
    differ).  With tied distances the two break ties differently: both
    yield a valid hierarchy — every merge at the linkage distance of its
    children — but the topology, and for group-average and complete linkage
    the merge heights, can differ.  Single linkage's heights are the
    minimum spanning tree's edges and always agree. *)
