module Prng = Leakdetect_util.Prng
module Obs = Leakdetect_obs.Obs

type health = Healthy | Degraded | Stale

let health_to_string = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Stale -> "stale"

type jitter_mode = Equal | Decorrelated

type config = {
  max_attempts : int;
  base_backoff : int;
  max_backoff : int;
  jitter : int;
  jitter_mode : jitter_mode;
  stale_after : int;
}

let default_config =
  { max_attempts = 5; base_backoff = 1; max_backoff = 16; jitter = 1;
    jitter_mode = Equal; stale_after = 3 }

type staleness = { failed_syncs : int; failed_attempts : int; version_gap : int }

type t = {
  config : config;
  rng : Prng.t;
  obs : Obs.t;
  mutable version : int;
  mutable health : health;
  mutable failed_syncs : int;
  mutable failed_attempts : int;
  mutable version_gap : int;
  mutable last_error : string option;
  mutable prev_backoff : int;  (* decorrelated jitter carries state *)
}

let create ?(config = default_config) ?(obs = Obs.noop) ?(seed = 0) () =
  if config.max_attempts < 1 then invalid_arg "Signature_client: max_attempts < 1";
  if config.stale_after < 1 then invalid_arg "Signature_client: stale_after < 1";
  {
    config;
    rng = Prng.create seed;
    obs;
    version = 0;
    health = Healthy;
    failed_syncs = 0;
    failed_attempts = 0;
    version_gap = 0;
    last_error = None;
    prev_backoff = config.base_backoff;
  }

let version t = t.version
let health t = t.health

let staleness t =
  {
    failed_syncs = t.failed_syncs;
    failed_attempts = t.failed_attempts;
    version_gap = t.version_gap;
  }

let last_error t = t.last_error

type fetched =
  | Up_to_date of { observed : int option }
  | Installed of int

type outcome = Updated of int | Unchanged | Failed of string

type sync_report = { outcome : outcome; attempts : int; waited : int }

let backoff_ticks t ~attempt =
  match t.config.jitter_mode with
  | Equal ->
    (* attempt k (1-based) failed: wait base * 2^(k-1), capped, plus jitter. *)
    let exp = min (attempt - 1) 30 in
    let base = min t.config.max_backoff (t.config.base_backoff lsl exp) in
    base + if t.config.jitter > 0 then Prng.int t.rng (t.config.jitter + 1) else 0
  | Decorrelated ->
    (* Decorrelated ("full") jitter: sleep = uniform(base, 3 * previous
       sleep), capped.  Each client's wait depends on its own random walk
       rather than on the shared attempt number, so a relay's whole
       population does not re-arrive in synchronized exponential waves
       after a failover. *)
    let lo = max 1 t.config.base_backoff in
    let hi = max lo (min t.config.max_backoff (t.prev_backoff * 3)) in
    let w = Prng.int_in t.rng lo hi in
    t.prev_backoff <- w;
    w

(* 0 = healthy, 1 = degraded, 2 = stale — the metric encoding of [health]. *)
let health_rank = function Healthy -> 0 | Degraded -> 1 | Stale -> 2

let record_sync t report =
  let obs = t.obs in
  if not (Obs.is_noop obs) then begin
    let outcome_label =
      match report.outcome with
      | Updated _ -> "updated"
      | Unchanged -> "unchanged"
      | Failed _ -> "failed"
    in
    Obs.Counter.inc
      (Obs.counter obs ~help:"Completed sync rounds, by outcome."
         ~labels:[ ("outcome", outcome_label) ]
         "leakdetect_client_syncs_total");
    Obs.Counter.add
      (Obs.counter obs ~help:"Fetch attempts made by the sync retry loop."
         "leakdetect_client_sync_attempts_total")
      report.attempts;
    Obs.Counter.add
      (Obs.counter obs ~help:"Backoff ticks accumulated across syncs."
         "leakdetect_client_backoff_ticks_total")
      report.waited;
    Obs.Gauge.set
      (Obs.gauge obs ~help:"Last-known-good signature version on the device."
         "leakdetect_client_version")
      t.version;
    Obs.Gauge.set
      (Obs.gauge obs
         ~help:"Client health: 0 healthy, 1 degraded, 2 stale."
         "leakdetect_client_health")
      (health_rank t.health)
  end

let sync t ~fetch =
  Obs.with_span t.obs "client.sync" @@ fun () ->
  t.prev_backoff <- t.config.base_backoff;
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
      t.last_error <- Some e;
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
