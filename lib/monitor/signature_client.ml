module Prng = Leakdetect_util.Prng
module Obs = Leakdetect_obs.Obs

type health = Healthy | Degraded | Stale

let health_to_string = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Stale -> "stale"

type config = {
  max_attempts : int;
  base_backoff : int;
  max_backoff : int;
  jitter : int;
  stale_after : int;
}

let default_config =
  { max_attempts = 5; base_backoff = 1; max_backoff = 16; jitter = 1;
    stale_after = 3 }

type staleness = { failed_syncs : int; failed_attempts : int; version_gap : int }

(* The metric handles every sync writes, interned together at the first
   sync and then kept: [Obs] answers every intern of one series with the
   same cell, so later syncs skip the registry's lock and lookup.  The
   per-outcome counter is interned at the first sync with that outcome,
   so a series appears in the exposition only once it has been used. *)
type handles = {
  attempts : Obs.Counter.t;
  backoff : Obs.Counter.t;
  version_gauge : Obs.Gauge.t;
  health_gauge : Obs.Gauge.t;
  syncs : Obs.Counter.t option array;  (* by [outcome_index] *)
}

type t = {
  config : config;
  rng : Prng.t;
  obs : Obs.t;
  mutable handles : handles option;
  mutable version : int;
  mutable health : health;
  mutable failed_syncs : int;
  mutable failed_attempts : int;
  mutable version_gap : int;
}

let create ?(config = default_config) ?(obs = Obs.noop) ?(seed = 0) () =
  if config.max_attempts < 1 then invalid_arg "Signature_client: max_attempts < 1";
  if config.stale_after < 1 then invalid_arg "Signature_client: stale_after < 1";
  {
    config;
    rng = Prng.create seed;
    obs;
    handles = None;
    version = 0;
    health = Healthy;
    failed_syncs = 0;
    failed_attempts = 0;
    version_gap = 0;
  }

let version t = t.version
let health t = t.health

let staleness t =
  {
    failed_syncs = t.failed_syncs;
    failed_attempts = t.failed_attempts;
    version_gap = t.version_gap;
  }

type fetched =
  | Up_to_date of { observed : int option }
  | Installed of int

type outcome = Updated of int | Unchanged | Failed of string

type sync_report = { outcome : outcome; attempts : int; waited : int }

(* Attempt k (1-based) failed: wait base * 2^(k-1), capped, plus jitter. *)
let backoff_ticks t ~attempt =
  let exp = min (attempt - 1) 30 in
  let base = min t.config.max_backoff (t.config.base_backoff lsl exp) in
  base + if t.config.jitter > 0 then Prng.int t.rng (t.config.jitter + 1) else 0

(* 0 = healthy, 1 = degraded, 2 = stale — the metric encoding of [health]. *)
let health_rank = function Healthy -> 0 | Degraded -> 1 | Stale -> 2

let handles t =
  match t.handles with
  | Some h -> h
  | None ->
    let obs = t.obs in
    let h =
      {
        attempts =
          Obs.counter obs ~help:"Fetch attempts made by the sync retry loop."
            "leakdetect_client_sync_attempts_total";
        backoff =
          Obs.counter obs ~help:"Backoff ticks accumulated across syncs."
            "leakdetect_client_backoff_ticks_total";
        version_gauge =
          Obs.gauge obs ~help:"Last-known-good signature version on the device."
            "leakdetect_client_version";
        health_gauge =
          Obs.gauge obs ~help:"Client health: 0 healthy, 1 degraded, 2 stale."
            "leakdetect_client_health";
        syncs = Array.make 3 None;
      }
    in
    t.handles <- Some h;
    h

let outcome_index = function Updated _ -> 0 | Unchanged -> 1 | Failed _ -> 2

let syncs_counter t h outcome =
  let i = outcome_index outcome in
  match h.syncs.(i) with
  | Some c -> c
  | None ->
    let label =
      match outcome with
      | Updated _ -> "updated"
      | Unchanged -> "unchanged"
      | Failed _ -> "failed"
    in
    let c =
      Obs.counter t.obs ~help:"Completed sync rounds, by outcome."
        ~labels:[ ("outcome", label) ]
        "leakdetect_client_syncs_total"
    in
    h.syncs.(i) <- Some c;
    c

let record_sync t report =
  if not (Obs.is_noop t.obs) then begin
    let h = handles t in
    Obs.Counter.inc (syncs_counter t h report.outcome);
    Obs.Counter.add h.attempts report.attempts;
    Obs.Counter.add h.backoff report.waited;
    Obs.Gauge.set h.version_gauge t.version;
    Obs.Gauge.set h.health_gauge (health_rank t.health)
  end

let sync t ~fetch =
  let rec attempt k waited =
    match fetch ~since:t.version with
    | Ok payload ->
      let outcome =
        match payload with
        | Up_to_date { observed } ->
          (* A 304 carrying the server's version still tells a lagging
             client how far behind it is — without a body fetch. *)
          (match observed with
          | Some v -> t.version_gap <- max 0 (v - t.version)
          | None -> ());
          Unchanged
        | Installed version ->
          t.version_gap <- max 0 (version - t.version - 1);
          t.version <- version;
          Updated version
      in
      t.failed_syncs <- 0;
      t.health <- Healthy;
      { outcome; attempts = k; waited }
    | Error e ->
      t.failed_attempts <- t.failed_attempts + 1;
      if k >= t.config.max_attempts then begin
        t.failed_syncs <- t.failed_syncs + 1;
        t.health <- (if t.failed_syncs >= t.config.stale_after then Stale else Degraded);
        { outcome = Failed e; attempts = k; waited }
      end
      else attempt (k + 1) (waited + backoff_ticks t ~attempt:k)
  in
  let report = attempt 1 0 in
  record_sync t report;
  report
