(** Symmetric pairwise-distance matrix with zero diagonal, stored as the
    condensed upper triangle.  Holds the [d_pkt] values the clustering stage
    consumes (Sec. IV-D). *)

type t

val create : int -> t
(** [create n] is the all-zero matrix over [n] items. *)

val build : ?pool:Leakdetect_parallel.Pool.t -> int -> (int -> int -> float) -> t
(** [build n f] evaluates [f i j] once per unordered pair [i < j].  With
    [?pool], rows are fanned out across domains — [f] must then be safe to
    call concurrently (pure, or reading only frozen state); every cell is
    still computed exactly once and lands in the same slot, so the result
    is identical to the sequential build. *)

val size : t -> int
val get : t -> int -> int -> float
(** [get t i j] for any [i, j] in range; [get t i i = 0]. *)

val set : t -> int -> int -> float -> unit
(** @raise Invalid_argument when [i = j]. *)
