(** The on-device information-flow-control application of Figure 3(b).

    It holds the signature set fetched from the generation server, inspects
    every outgoing HTTP packet of every application, consults the
    per-application policy, and returns a decision.  Everything is plain
    user-space logic — the point of the paper's design is that no Android
    framework modification or special privilege is needed.

    Prompts are resolved by a callback so that library users (CLI, tests,
    example apps) can model the human answer; it receives the signature
    the packet matched, which the event log also records. *)

type decision = Allowed | Blocked | Prompted of bool  (** [Prompted true] = user let it through. *)

val decision_to_string : decision -> string

type event = {
  app_id : int;
  packet : Leakdetect_http.Packet.t;
  matched : Leakdetect_core.Signature.t option;
  decision : decision;
}

type fail_mode = Fail_open | Fail_closed
(** What enforcement does while the signature feed is {!Signature_client.Stale}:
    [Fail_open] keeps enforcing with the last-known-good signature set (the
    availability-first default); [Fail_closed] blocks every packet until the
    feed recovers (security-first — a stale detector cannot be trusted to
    clear traffic). *)

val fail_mode_to_string : fail_mode -> string

type t

val create :
  ?policy:Policy.t ->
  ?prompt_budget:int ->
  ?fail_mode:fail_mode ->
  ?on_prompt:(app_id:int -> Leakdetect_http.Packet.t -> Leakdetect_core.Signature.t -> bool) ->
  ?obs:Leakdetect_obs.Obs.t ->
  ?normalize:Leakdetect_normalize.Normalize.t ->
  Leakdetect_core.Signature.t list ->
  t
(** [create signatures] builds a monitor with the default policy (prompt on
    sensitive) and a prompt callback that denies transmission — the safe
    default for an unattended device.

    [prompt_budget] caps how many times any single application may prompt
    the user; past the cap the app's most recent answer is applied silently
    (the paper's usability concern: "users will be continually bothered by
    unnecessary warnings" if prompts are unbounded).  Default: unlimited.

    [fail_mode] (default [Fail_open]) selects the degraded-feed behaviour;
    it only takes effect when {!set_health} reports [Stale].

    [normalize] extends matching over the canonicalization lattice, so
    re-encoded leaks are still flagged.  Omitted, matching is the legacy
    raw-byte scan. *)

val set_health : t -> Signature_client.health -> unit
(** Feed the monitor the signature client's health after each sync; while
    [Stale] and [Fail_closed], {!process} blocks everything. *)

val prompts_for : t -> app_id:int -> int
(** How many times the given app has prompted so far. *)

val process : t -> app_id:int -> Leakdetect_http.Packet.t -> decision
(** Inspect one outgoing packet, record the event, return the decision. *)

val replay : t -> limit:int -> Leakdetect_http.Trace.record array -> int
(** {!process} the first [limit] records (all of them when fewer) in
    order, each as its own app's packet; returns how many it processed. *)

val log : t -> event list
(** All events, oldest first. *)

val stats : t -> int * int * int
(** (allowed, blocked, prompted) counts over the log; a prompt counts as
    prompted regardless of the user's answer.  O(1): counters are
    maintained incrementally by {!process}. *)

val reconcile : t -> (unit, string) result
(** Cross-checks the three tallies of the same decision stream: the O(1)
    {!stats} counters, a recount of the event log, and — when [?obs] was
    active at {!create} — the
    [leakdetect_monitor_decisions_total{decision=...}] obs counters.
    [Error] describes the first disagreement found.  The obs comparison
    assumes this monitor is the only writer of that metric family in its
    registry. *)
