(** Versioned tenant-to-origin assignment for the horizontal distribution
    tier.

    A shard map is an {e epoch} (a monotonically increasing version of the
    fleet topology) plus the set of origin authority ids serving it, each
    with a capacity {e weight}, and an optional node→origin {e proximity}
    table.  Tenants are assigned by rendezvous (highest-random-weight)
    hashing: every (origin, tenant) pair gets a deterministic score and
    the tenant belongs to the origin with the highest score.  HRW gives
    the two properties the rebalance protocol leans on:

    - {b stability}: at a fixed origin set, ownership is a pure function
      of the names (and weights) — every node that holds the same map
      agrees on every owner without coordination;
    - {b minimal disruption}: adding or removing an origin only moves the
      tenants whose top-scoring origin changed — everything else stays
      put, so a rebalance migrates the few tenants in {!moved} and
      touches nothing else.

    {b Weights.}  A weight-[w] origin scores [-w / ln h] for [h] the raw
    HRW hash mapped uniformly into (0,1) — weighted rendezvous hashing —
    so it wins an expected [w]-proportional share of tenants, and
    changing only a weight moves only tenants into or out of that origin.
    When every weight is 1 the integer raw-score argmax is used directly,
    bit-identical to the unweighted maps journaled before weights
    existed (the float formula is strictly monotone in the raw score at
    fixed weight, so both paths agree).

    {b Proximity.}  The table records abstract distances from reading
    nodes (relays) to origins — and between relay siblings — purely as
    routing {e preference}: the relay gossip tier uses it to prefer close
    siblings among equally fresh ones.  Proximity never affects ownership.

    The epoch makes rebalancing a first-class, journaled state transition
    rather than a config edit: {!advance} produces the successor map,
    origins journal it (see {!Authority.set_shard}), and a request landing
    on a non-owner is answered with [421 Misdirected] carrying the epoch,
    so a stale client can tell a partitioned minority from its own stale
    routing.  Weights and proximity ride the same line codec, hence the
    same journal and epoch-flip machinery. *)

type t

val create :
  ?weights:(string * int) list ->
  ?proximity:(string * string * int) list ->
  epoch:int ->
  origins:string list ->
  unit ->
  (t, string) result
(** [Error] when the epoch is negative, the list is empty, an id is
    invalid, ids repeat, a weight is below 1 or names an unknown origin,
    or a proximity distance is negative.  Origins are kept sorted;
    omitted weights default to 1. *)

val epoch : t -> int

val weight : t -> origin:string -> int
(** 1 unless set. *)

val distance : t -> node:string -> origin:string -> int option
(** Proximity-table lookup; [None] when unrecorded. *)

val owner : t -> tenant:string -> string
(** The (weighted) HRW winner for this tenant at this epoch.
    Deterministic: equal maps agree everywhere. *)

val advance :
  ?weights:(string * int) list ->
  ?proximity:(string * string * int) list ->
  t ->
  origins:string list ->
  (t, string) result
(** The successor topology at [epoch + 1].  Weights and proximity default
    to the current map's, with entries naming departed origins dropped;
    pass replacements to change them as part of the flip.  Same
    validation as {!create}. *)

val moved : before:t -> after:t -> tenants:string list -> (string * string * string) list
(** [(tenant, from, to)] for every tenant whose owner differs between the
    two maps — the migration work list for a rebalance. *)

val to_line : t -> string
val of_line : string -> (t, string) result
(** Journal/wire codec:
    [epoch TAB origin[=weight],... [TAB node>origin=dist;...]] — weight-1
    and empty-proximity fields are omitted, so maps without the new
    attributes round-trip byte-identically with the pre-weight format and
    old journal lines parse unchanged. *)
