(** The retry / backoff / health machine of device-side signature sync.

    The paper's deployment (Sec. V) keeps on-device detectors supplied with
    fresh signatures from the generation server; in practice that link
    sees corrupt bytes, transient server errors and delays.  This client
    wraps a fetch function in a retry loop with exponential backoff and
    deterministic jitter, keeps a bounded per-sync attempt budget, and
    tracks a health state machine:

    - [Healthy]: the last sync succeeded;
    - [Degraded]: recent syncs failed but fewer than [stale_after] in a
      row — the last-known-good signature set is still served;
    - [Stale]: at least [stale_after] consecutive syncs failed; the
      signature set may be arbitrarily far behind the server.

    It holds no signature set: the fetch function installs what it
    downloads wherever its caller keeps the set
    ([Leakdetect_distrib.Delta_client] keeps a verified tree) and reports
    only the version.  Staleness (consecutive failed syncs, total failed
    attempts and the version gap observed at the last recovery) is
    recorded so enforcement can react — see {!Flow_control} fail modes.

    Time is simulated: backoff is counted in abstract ticks and reported
    per sync, never slept. *)

type health = Healthy | Degraded | Stale

val health_to_string : health -> string

type jitter_mode =
  | Equal
      (** [base * 2^(k-1)] capped at [max_backoff], plus a uniform draw in
          [0, jitter].  With a small [jitter] every client that failed at
          the same tick retries in near-lockstep — fine against an origin,
          a thundering herd against a relay that just failed over. *)
  | Decorrelated
      (** Decorrelated ("full") jitter: each wait is uniform in
          [base_backoff, 3 * previous wait], capped at [max_backoff] —
          the walk decorrelates clients from the shared attempt number.
          [jitter] is ignored in this mode. *)

type config = {
  max_attempts : int;  (** Fetch attempts per sync (>= 1). *)
  base_backoff : int;  (** Ticks before the first retry. *)
  max_backoff : int;  (** Ceiling for the exponential backoff. *)
  jitter : int;  (** [Equal] mode: extra random ticks in [0, jitter]. *)
  jitter_mode : jitter_mode;
  stale_after : int;  (** Consecutive failed syncs before [Stale]. *)
}

val default_config : config
(** 5 attempts, backoff 1 doubling to a ceiling of 16 ticks, [Equal]
    jitter 1, stale after 3 failed syncs. *)

type t

val create : ?config:config -> ?obs:Leakdetect_obs.Obs.t -> ?seed:int -> unit -> t
(** [create ()] starts at version 0 with [Healthy] health.  [seed]
    (default 0) drives the backoff jitter only.  [?obs] (default noop)
    records per-sync counters
    ([leakdetect_client_syncs_total{outcome}], attempt and backoff-tick
    totals) and the version / health gauges, plus a [client.sync] span. *)

val version : t -> int
(** Last-known-good signature version (0 before the first update). *)

val health : t -> health

type staleness = {
  failed_syncs : int;  (** Consecutive syncs that exhausted their budget. *)
  failed_attempts : int;  (** Total fetch attempts that errored, ever. *)
  version_gap : int;
      (** Versions jumped over at the most recent successful update: 0 when
          updates arrive one by one, larger after recovering from an
          outage. *)
}

val staleness : t -> staleness
val last_error : t -> string option

type fetched =
  | Up_to_date of { observed : int option }
      (** The server answered 304; [observed] is the version it advertised
          in [X-Signature-Version], letting a lagging client record its
          gap without a body fetch. *)
  | Installed of int
      (** The fetch installed a newer set (downloaded, or assembled from a
          delta) at this version. *)

type outcome =
  | Updated of int  (** New signature version installed. *)
  | Unchanged  (** Server confirmed we are up to date. *)
  | Failed of string  (** Attempt budget exhausted; last error. *)

type sync_report = { outcome : outcome; attempts : int; waited : int }
(** [attempts] = fetch calls made; [waited] = backoff ticks accumulated. *)

val sync : t -> fetch:(since:int -> (fetched, string) result) -> sync_report
(** One synchronisation round: fetches with [since] = current version,
    retrying with backoff up to [max_attempts] times, then updates the
    health state machine.  On [Up_to_date] with an observed version ahead
    of ours, [staleness.version_gap] records the distance. *)
