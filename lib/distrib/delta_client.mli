(** Device-side incremental sync against the {!Authority} — or a tier of
    {!Relay}s in front of it.

    Wraps {!Leakdetect_monitor.Signature_client} — the retry / backoff /
    health machine, which holds no set — keeps the last-known-good set
    itself, and supplies the machine a fetch function that speaks the
    delta protocol:

    - ask for [?tenant=T&since=V]; a [delta]-mode answer is a changelog
      suffix applied entry-by-entry on top of the local set (idempotent:
      [Add] replaces by id, [Retire] of an absent id is a no-op);
    - the advertised [X-Signature-Checksum] must match the CRC of the
      set the client lands on — on mismatch, or on a non-consecutive
      entry suffix (a gap), the client {e within the same attempt}
      re-requests a full snapshot with [full=1];
    - a [304] at the client's own version must advertise the checksum of
      the client's own set: a mismatch is a {e fork smell} — the server
      is on a divergent history at our version — and triggers a full
      resync from the authoritative transport rather than acceptance;
    - a response whose version is below the client's is refused (counted,
      never applied): committed versions are monotonic, so a regression
      signals a lying or rolled-back server.

    {!sync} talks to a single transport.  {!sync_via} implements the
    relayed escalation ladder: attempts go to the relay tier first
    (rotating from a sticky preferred relay), overflow to the origin, and
    any {e verification} failure — fork smell, checksum mismatch,
    regression — escalates the rest of the sync to the origin immediately
    and fails the preferred relay over to a sibling.  Recovery ([full=1])
    always goes to the authoritative transport, so a corrupting relay can
    never supply its own "recovery" bytes.

    All waiting is in abstract backoff ticks, as in the wrapped client. *)

module Signature_client = Leakdetect_monitor.Signature_client

type t

val create :
  ?config:Signature_client.config ->
  ?obs:Leakdetect_obs.Obs.t ->
  ?seed:int ->
  tenant:string ->
  unit ->
  t
(** Starts at version 0 with no signatures.  [seed] drives backoff jitter.
    @raise Invalid_argument on a bad tenant id. *)

val tenant : t -> string
val version : t -> int
val signatures : t -> Leakdetect_core.Signature.t list
(** Last-known-good set, id-ascending (listed from the tree on each
    call). *)

val set : t -> Sigset.t
(** {!signatures} as the tree the client verifies against. *)

val checksum : t -> int
(** CRC-32 of the canonical serialization of {!signatures}.  The set is
    held as a {!Sigset}, so this is O(1) and each applied change
    O(log n). *)

val health : t -> Signature_client.health
val staleness : t -> Signature_client.staleness

type update = [ `Delta of Changelog.entry list | `Snapshot ]

val last_update : t -> update option
(** How the most recent {!sync} / {!sync_via} updated the set: [`Delta]
    carries the exact verified entry suffix that was applied (a {!Relay}
    mirrors it into its own changelog); [None] when the round did not
    install anything. *)

type counters = private {
  mutable delta_updates : int;  (** Updates assembled from a changelog suffix. *)
  mutable snapshot_updates : int;  (** Updates downloaded as a full set. *)
  mutable forced_full : int;
      (** Delta attempts that fell back to [full=1] mid-attempt (gap,
          checksum mismatch, fork smell, or sub-horizon [since]). *)
  mutable regressions_refused : int;
      (** Responses advertising a version below ours, dropped unapplied. *)
  mutable fork_smells : int;
      (** [304]s whose advertised checksum did not match our set at the
          same version — divergent-history evidence. *)
  mutable escalations : int;
      (** {!sync_via} rounds that abandoned the relay tier for the origin
          (verification failure, or relay attempts exhausted). *)
}

val counters : t -> counters
(** The client's own counters, live: later syncs keep moving them. *)

val sync :
  ?full_transport:(string -> (string, string) result) ->
  t ->
  transport:(string -> (string, string) result) ->
  Signature_client.sync_report
(** One sync round through [transport] (printed request bytes in,
    printed response bytes out — wrap {!Authority.wire_transport} in a
    fault plan to exercise it).  Retry, backoff and health transitions
    are the wrapped client's.  Recovery resyncs use [full_transport]
    when given, else the same transport — relay gossip pins it to the
    origin so a [full=1] escalation never trusts a sibling mirror for
    the authoritative snapshot. *)

val sync_via :
  t ->
  relays:(string -> (string, string) result) list ->
  origin:(string -> (string, string) result) ->
  Signature_client.sync_report
(** One sync round through the relay tier with origin escalation (see the
    module doc).  The preferred relay is sticky across rounds and fails
    over on verification failure.
    @raise Invalid_argument when [relays] is empty. *)
