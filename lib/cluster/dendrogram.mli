(** Dendrograms — the nested-cluster structure produced by hierarchical
    clustering (the paper generates one signature per cluster of this tree,
    Sec. IV-E). *)

type t =
  | Leaf of int  (** Index of the clustered item. *)
  | Node of { left : t; right : t; height : float; size : int }
      (** [height] is the linkage distance at which the children merged. *)

val node : t -> t -> float -> t
val size : t -> int
val height : t -> float
(** 0 for leaves. *)

val members : t -> int list
(** Item indices, ascending. *)

val cut : threshold:float -> t -> t list
(** Maximal subtrees whose merge height is [<= threshold].  A higher
    threshold gives fewer, larger clusters; [cut ~threshold:infinity] is the
    whole tree. *)

val cut_into : int -> t -> t list
(** [cut_into k t] splits the highest merges until at least [k] subtrees
    exist (or only leaves remain). *)

val pp : Format.formatter -> t -> unit

val to_newick : ?label:(int -> string) -> t -> string
(** Newick serialization with branch lengths, e.g.
    [((0:0.50,1:0.50):1.25,2:1.75);] — loadable by standard tree viewers.
    Branch length of a child is the parent height minus the child height;
    [label] renders leaf names (default: the index). *)
