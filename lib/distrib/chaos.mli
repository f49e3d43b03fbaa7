(** The end-to-end fault-injection soak over the handset's path.  {!run}
    takes a labeled trace through five phases over one state: the
    fault-free [baseline] pipeline; [ingest] over a faulty wire; [sync] of
    the baseline's signatures from a one-tenant authority to a
    {!Delta_client} over a faulty transport; [enforce] of the synced set on
    the recovered packets; and [durability] of a journaled authority under
    crash points, torn writes and compaction.  Each phase fills its part of
    the {!report}; a failed check stops the run, and the report then holds
    the phases reached and the failure.  Fault plans are seeded from
    [config.seed]. *)

val tenant : string
(** ["handset"]: the one tenant the run publishes to and syncs. *)

type config = {
  seed : int;
  sample_n : int;  (** Suspicious packets sampled for the baseline signatures. *)
  fault : Leakdetect_fault.Fault.config;
  syncs : int;  (** Publish rounds. *)
  fail_mode : Leakdetect_monitor.Flow_control.fail_mode;
  limit : int;  (** Recovered packets replayed through the monitor. *)
  crash_points : int;  (** Crash-recovery trials. *)
}

type baseline = {
  packets : int; signatures : int; detected : int; metrics : Leakdetect_core.Metrics.t;
}

type ingest = {
  delivered : int; recovered : int; skipped : Leakdetect_http.Trace.skipped;
  intact : int;  (** Delivered records no corrupt or truncate fault hit. *)
}

type sync = {
  client_version : int; head : int;
  extra_syncs : int;  (** Catch-up syncs after the last round. *)
  attempts : int; failed_syncs : int;
  waited : int;  (** Backoff ticks. *)
  delayed : int;  (** Responses the transport delayed. *)
  health : Leakdetect_monitor.Signature_client.health;
  staleness : Leakdetect_monitor.Signature_client.staleness;
}

(** The monitor enforces in [config.fail_mode] under [sync.health]. *)
type enforce = {
  replayed : int; allowed : int; blocked : int; prompted : int;
  chaos_detected : int;  (** Recovered packets the synced set detects. *)
}

type durability = {
  checkpoints : int;  (** Committed journal records. *)
  wal_bytes : int;
  recovered_detected : int;  (** Packets the cleanly recovered set detects. *)
  mutable trials : (int * int) option;
      (** Crash trials restoring the exact pre-crash state, and those
          truncated to an earlier committed one. *)
  mutable compaction : Authority.report option;  (** Recovery after compaction. *)
}

(** Mutable because {!run} fills each part in place as its phase gets
    there; nothing writes it after {!run} returns. *)
type report = {
  config : config;
  mutable baseline : baseline option;
  mutable ingest : ingest option;
  mutable sync : sync option;
  mutable enforce : enforce option;
  mutable durability : durability option;
  faults : (string * Leakdetect_fault.Fault.plan) list;
      (** The ingest, sync and journal fault plans, by name. *)
  mutable failure : string option;  (** The failed check, or an exception raised. *)
}

val run : ?state_dir:string -> config -> Leakdetect_http.Trace.record array -> report
(** The journals live in [state_dir] (created if missing, and kept: its
    [history] directory is an authority journal), or in a temporary
    directory removed afterwards. *)

val render : report -> string
(** Every line of the phases the run reached, in order; on success the
    fault tally and a closing [uncaught exceptions: 0]. *)
