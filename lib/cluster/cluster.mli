(** Unified clustering entry point.

    The library's three algorithms ({!Agglomerative}, {!Kmedoids},
    {!Dbscan}) historically each exposed their own [cluster]
    signature, forcing callers to bind to modules.  This module selects an
    algorithm {e by value} and returns one result shape, which is what the
    sketch-bucketed driver and the pipeline configuration need: an
    [algorithm] is plain data that can sit in a config record, be printed,
    and be threaded through CLI flags. *)

type algorithm =
  | Agglomerative of Agglomerative.linkage
      (** Naive Lance-Williams agglomeration — the paper's Sec. IV-D
          procedure.  O(n^3). *)
  | Kmedoids of { k : int; seed : int }
      (** PAM with [k] clusters; [seed] feeds a private
          {!Leakdetect_util.Prng} so the result is deterministic data. *)
  | Dbscan of { eps : float; min_points : int }
      (** Density clustering; sparse items land in [noise]. *)

val default : algorithm
(** [Agglomerative Group_average] — the paper's configuration. *)

val is_hierarchical : algorithm -> bool
(** Whether {!run} yields a {!Hierarchy} (so dendrogram-cut policies
    apply) rather than a flat {!Partition}. *)

val name : algorithm -> string
(** Stable human-readable name, e.g. ["agglomerative-average"],
    ["kmedoids-4"] — used in logs and benchmark records. *)

type output =
  | Empty  (** zero items *)
  | Hierarchy of Dendrogram.t  (** agglomerative family *)
  | Partition of { clusters : int list list; noise : int list }
      (** partitional family; [noise] is non-empty only for DBSCAN *)

val run : algorithm -> Dist_matrix.t -> output
(** [run algorithm matrix] dispatches to the selected implementation.
    Propagates the underlying algorithm's [Invalid_argument] on bad
    parameters (e.g. [Kmedoids] with [k < 1] on a non-empty matrix). *)

val flat_clusters : ?threshold:float -> output -> int list list
(** [flat_clusters ~threshold output] as member lists: a hierarchy is cut
    at [threshold] (default [infinity], one cluster per root), a partition
    is returned as-is with noise items appended as singletons, [Empty] is
    [[]]. *)
