(** The multi-client fault soak: hundreds-to-thousands of simulated
    {!Delta_client}s, honest and byzantine candidate reporters, and a
    journaled {!Authority} that crashes mid-publish and mid-compaction —
    all driven by one deterministic tick scheduler (no threads, no wall
    clock; the whole run is a function of the seed).

    The run has three phases:
    - {b ramp} [(0, ticks/3)]: fresh clients bootstrap from version 0
      while the publish / candidate-report / compaction schedule mutates
      the authority — full downloads are expected here;
    - {b steady} [(ticks/3, end)]: the fleet is warm and mutations keep
      flowing (they stop only in the final tenth, so the run can
      converge) — this is where delta sync must dominate;
    - {b drain}: bounded extra rounds for not-yet-converged clients
      (faults stay on; the retry machine is what gets them through).

    Invariants audited throughout, each a counter that must end at zero:
    - {b divergence}: a client lands on a version whose set checksum
      differs from what the authority committed at that version (the
      audit table records every committed (version, checksum) as it is
      created);
    - {b regression}: a client's installed version moves backwards;
    - {b sub-k promotion}: any promotion with fewer than [k] distinct
      reporters, judged from the authorities' audit trails (collected
      across crashes);
    - {b recovery mismatch}: after a crash, the reopened authority
      disagrees with the audit table about any committed version;
    - {b unconverged}: a client that never reaches the final version and
      checksum despite the drain budget. *)

module Fault = Leakdetect_fault.Fault
module Obs = Leakdetect_obs.Obs
module Json = Leakdetect_util.Json

type config = {
  clients : int;
  tenants : int;  (** Clients are assigned round-robin. *)
  ticks : int;
  sync_period : int;  (** Ticks between one client's sync rounds. *)
  publishes : int;  (** Authority set mutations over the ramp phase. *)
  compact_every : int;  (** Compaction every N publishes; 0 = never. *)
  k : int;
  reporter_cap : int;
  compact_keep : int;
  candidates : int;  (** Honest candidates per tenant, each reported by [k] reporters. *)
  byzantine : int;  (** Hostile reporters flooding unique candidates. *)
  fault : Fault.config;  (** Transport faults (both directions). *)
  server_crash_rate : float;
      (** Probability of a crash point per publish / compaction. *)
  client_restart_rate : float;
      (** Probability per sync that a client loses its state. *)
  drain_rounds : int;
  seed : int;
}

val default_config : config
(** 500 clients, 2 tenants, 2000 ticks, period 20, 40 publishes with
    compaction every 5, k = 3, 6 candidates/tenant, 2 byzantine
    reporters, {!Fault.default} transports raised to a 10% drop rate,
    25% crash points, 1% client restarts, 40 drain rounds, seed 42. *)

type phase_counters = {
  delta : int;  (** Updated syncs assembled from a changelog suffix. *)
  snapshot : int;  (** Updated syncs downloaded in full. *)
  unchanged : int;
  failed : int;
}

type invariants = {
  divergences : int;
  regressions : int;
  sub_k_promotions : int;
  recovery_mismatches : int;
  unconverged : int;
}

type report = {
  config : config;
  ramp : phase_counters;
  steady : phase_counters;
  drain : phase_counters;
  forced_full : int;
  regressions_refused : int;
  server_crashes : int;
  torn_tails : int;  (** Crashes that also left a torn journal tail. *)
  recoveries : int;
  promoted_on_recovery : int;
  client_restarts : int;
  compactions : int;
  promotions : int;
  accepted_reports : int;
  duplicate_reports : int;
  capped_reports : int;
  lost_reports : int;  (** Candidate POSTs that exhausted their retries. *)
  fault_events : (Fault.kind * int) list;
  final_versions : (string * int) list;  (** Tenant -> head version. *)
  invariants : invariants;
  steady_delta_ratio : float;
      (** Steady+drain delta updates per snapshot update (delta count
          itself when no snapshot was needed). *)
}

val ok : report -> bool
(** All five invariant counters are zero. *)

val run :
  ?obs:Obs.t -> ?on_sync:(Delta_client.t -> unit) -> dir:string -> config -> report
(** Run one soak; [dir] holds the authority's journal and snapshot (the
    crash/reopen cycle needs real files).  [on_sync] sees each client
    right after each of its sync rounds — where a test checks the
    client's state against an independent witness.
    @raise Invalid_argument on a nonsensical config (no clients, no
    ticks, [k < 1]...). *)

val report_to_json : report -> Json.t
val summary : report -> string
