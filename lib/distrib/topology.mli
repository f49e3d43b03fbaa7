(** Deterministic multi-node soak: N sharded origins × M relays ×
    hundreds of clients, driven tick by tick from one PRNG seed.

    The topology under test is the full horizontal tier:

    - origins partition tenants by a {!Shard_map} (rendezvous hashing at
      an explicit epoch); every origin journals to its own directory and
      crashes/recovers mid-publish and mid-compaction;
    - relays ({!Relay}) sync each tenant from its owning origin through a
      faulty transport and re-serve the fleet, fail-static across
      partitions;
    - clients sync through the relay tier with origin escalation
      ({!Delta_client.sync_via}); candidate reports are POSTed to relays
      and forwarded upstream;
    - routing knowledge is deliberately stale: clients and relays follow
      [421 Misdirected] redirects to re-learn owners after a rebalance.

    Scheduled hostilities: network partitions cutting chosen relays from
    all origins for a stretch of ticks; relay crashes (total state loss —
    the replacement must refuse to serve until its first verified sync);
    one or more {e epoch flips} mid-soak, advancing the shard map to a
    larger (or back to the smaller) origin set so tenants migrate via the
    export/adopt/release protocol while clients keep syncing; a byzantine
    relay whose served responses are corrupted at a configurable rate;
    plus the usual transport faults, origin crash points, torn journal
    tails and client restarts.

    Zero-violation invariants, judged against an audit table of every
    committed (tenant, version) → checksum recorded at mutation time:
    no client ever installs a set differing from the committed one at
    that version (no checksum fork, across relay failover and migration);
    no client ever observes a version regression; every promotion carries
    [>= k] distinct reporters; origin recovery never loses or rewrites
    committed state; and after a bounded drain every client converges to
    its tenant's post-rebalance owner's head.  The origin-offload ratio
    (client sync requests absorbed by relays) is reported and gated at
    [min_offload].

    With [relays = 0] the same engine is the single-origin soak: clients
    {!Delta_client.sync} straight against their owner origin (still
    through the 421 redirect), candidate reports are POSTed to that
    origin, and the offload floor does not apply.  The relay-only
    hostilities (byzantine relays, partitions, relay crashes, fork
    injections) must then be zero. *)

type config = {
  origins : int;  (** Origins in the initial shard map. *)
  standby_origins : int;
      (** Extra origins that join the map at odd epoch flips (and leave
          again at even ones) — the migration driver. *)
  relays : int;  (** 0 runs the relay-free single-origin soak. *)
  byzantine_relays : int;
      (** Of the relays, how many serve corrupted bytes (rate below). *)
  byzantine_corrupt_rate : float;
  clients : int;
  tenants : int;
  ticks : int;
  sync_period : int;  (** Client sync cadence, jittered per client. *)
  relay_sync_period : int;  (** Relay upstream sync cadence. *)
  publishes : int;
  compact_every : int;  (** Compact all origins every n-th publish. *)
  k : int;
  reporter_cap : int;
  compact_keep : int;
  candidates : int;  (** Honest candidates per tenant (k reporters each). *)
  byzantine : int;  (** Byzantine flooding reporters. *)
  fault : Leakdetect_fault.Fault.config;  (** Transport fault rates. *)
  partitions : int;
  partition_ticks : int;
  relay_crashes : int;
  epoch_flips : int;
  origin_crash_rate : float;
  client_restart_rate : float;
  min_offload : float;  (** Required relay share of client sync requests. *)
  drain_rounds : int;
  gossip_period : int;
      (** Relay gossip cadence in ticks (staggered per relay); 0 disables
          gossip entirely. *)
  fork_injections : int;
      (** Adversarial mirror forks injected mid-soak ({!Relay.inject_fork}
          on a chosen relay, every synced tenant) — ranged repair must
          heal each without a resnapshot. *)
  origin_weight : int;
      (** Capacity weight of origin 0 in the shard map (>= 1); 1 keeps
          the map unweighted and bit-exact with pre-weight journals. *)
  seed : int;
}

val default_config : config
(** 2 origins + 1 standby, 3 relays (1 byzantine at 0.5), 250 clients,
    4 tenants, 2000 ticks, 3 partitions × 150 ticks, 2 relay crashes,
    1 epoch flip, offload floor 0.8, seed 42. *)

(** The report and its parts are mutable because {!run} fills them in
    place, each count where the soak observes it; nothing writes them
    after {!run} returns. *)

type phase_counters = {
  mutable delta : int;
  mutable snapshot : int;
  mutable unchanged : int;
  mutable failed : int;
}

type invariants = {
  mutable divergences : int;
  mutable regressions : int;
  mutable sub_k_promotions : int;
  mutable recovery_mismatches : int;
  mutable unconverged : int;
  mutable relay_divergences : int;
      (** Ticks on which a relay served (was willing to serve) a tenant
          set whose canonical checksum differed from the committed
          checksum at its claimed version — the serving-guard invariant:
          a diverged mirror must refuse, not serve. *)
  mutable staleness_lapses : int;
      (** Gossip rounds after which a partitioned relay remained behind
          the freshest reachable honest sibling — the bounded-staleness
          invariant: while siblings are reachable, a partition bounds
          staleness by the gossip period. *)
}

type report = {
  config : config;
  ramp : phase_counters;
  steady : phase_counters;
  drain : phase_counters;
  mutable relay_requests : int;  (** Client sync requests sent to the relay tier. *)
  mutable origin_requests : int;  (** Client sync requests sent to origins. *)
  mutable offload : float;  (** relay_requests / (relay_requests + origin_requests). *)
  mutable escalations : int;  (** Client syncs that abandoned the relay tier. *)
  mutable fork_smells : int;  (** 304s refused for a checksum mismatch. *)
  mutable forced_full : int;
  mutable regressions_refused : int;
  mutable misdirected_follows : int;  (** 421 redirects followed to a new owner. *)
  mutable origin_crashes : int;
  mutable torn_tails : int;
  mutable recoveries : int;
  mutable promoted_on_recovery : int;
  mutable relay_crashes_done : int;
  mutable partitions_done : int;
  mutable epoch_flips_done : int;
  mutable migrations : int;  (** Tenants moved across origins by flips. *)
  mutable final_epoch : int;
  mutable relay_sync_rounds : int;
  mutable relay_sync_failures : int;
  mutable relay_resnapshots : int;
  mutable relay_served : int;
  mutable relay_unready : int;  (** 503s served before a first verified sync. *)
  mutable relay_inconsistent : int;
      (** 503s served while a relay's mirror diverged from its verified
          state (the serving guard refusing, as it must). *)
  mutable gossip_rounds : int;
  mutable gossip_catchups : int;
      (** Tenant catch-ups pulled from a sibling relay during gossip. *)
  mutable repairs : int;  (** Ranged anti-entropy repairs (splice, no rebuild). *)
  mutable repair_bytes : int;  (** Wire bytes paid by those repairs. *)
  mutable resnapshot_bytes : int;
      (** Canonical snapshot bytes paid by full mirror rebuilds. *)
  mutable forks_done : int;  (** Adversarial forks actually injected. *)
  mutable forwarded_reports : int;
  mutable forward_failures : int;
  mutable client_restarts : int;
  mutable compactions : int;
  mutable promotions : int;
  mutable accepted_reports : int;
  mutable duplicate_reports : int;
  mutable capped_reports : int;
  mutable lost_reports : int;
  mutable fault_events : (Leakdetect_fault.Fault.kind * int) list;
  mutable final_versions : (string * int) list;
  mutable tenant_owners : (string * string) list;  (** Post-rebalance owners. *)
  invariants : invariants;
}

val ok : report -> bool
(** All invariants zero {e and}, when there are relays,
    [offload >= min_offload]. *)

val steady_delta_ratio : report -> float
(** Steady+drain delta updates per snapshot update (the delta count
    itself when no snapshot was needed) — the share of warm-fleet syncs
    the changelog served. *)

val run :
  ?obs:Leakdetect_obs.Obs.t ->
  ?on_sync:(Delta_client.t -> unit) ->
  dir:string ->
  config ->
  report
(** Run the topology soak; [dir] gets one journal directory per origin.
    Deterministic in [config.seed].  [on_sync] sees each client right
    after each of its sync rounds — where a test checks the client's
    state against an independent witness.
    @raise Invalid_argument on a nonsensical config, including relay-only
    hostilities with [relays = 0]. *)

val report_to_json : report -> Leakdetect_util.Json.t
(** Self-contained artifact: the full config (every rate and the seed)
    plus all counters and invariants — reproducible from the JSON alone. *)

val summary : report -> string
