(** The multi-tenant signature authority: Fig. 3's generation server,
    the one distribution tier from a single-tenant handset loop up to
    fleet-scale operation.

    Per tenant it keeps a {!Changelog} — a monotonically versioned log of
    [Add]/[Retire] entries — and a crowdsourced candidate table.  Three
    design rules, in PrivacyProxy's robustness shape:

    - {b Delta sync.}  [GET /signatures?tenant=T&since=V] answers with
      just the changelog suffix newer than [V] (plus version and
      canonical-set checksum headers), falling back to a full snapshot
      when [V] is below the compaction horizon or [full=1] is asked for.
      Up-to-date clients get [304] with the version still in the header.
    - {b k-anonymous promotion.}  [POST /candidates?tenant=T&reporter=R]
      records locally observed candidate signatures; a candidate joins
      the published set only once [>= k] {e distinct} reporter ids have
      submitted it, and a per-reporter cap on pending candidates keeps a
      hostile client from flooding the table.
    - {b Crash-recoverable versions.}  Every accepted mutation (changelog
      entry, candidate report) is journaled through the
      {!Leakdetect_store.Wal} before it is applied, so recovery replays to
      the exact committed changelog; compaction writes an atomic
      {!Leakdetect_store.Snapshot} and resets the journal, and replay is
      version-idempotent across the crash window between the two.

    Tenant and reporter ids are restricted to [A-Za-z0-9._:-] (max 64
    chars) so they embed safely in journal lines and query strings. *)

module Signature = Leakdetect_core.Signature

val id_ok : string -> bool
(** Valid tenant/reporter id. *)

type config = {
  k : int;  (** Distinct reporters required to promote a candidate. *)
  reporter_cap : int;
      (** Pending (unpromoted) candidates one reporter may be party to,
          per tenant; reports beyond it are rejected as [`Capped]. *)
  compact_keep : int;
      (** Changelog entries left live (delta-servable) by {!compact}. *)
}

val default_config : config
(** [k = 3], [reporter_cap = 16], [compact_keep = 64]. *)

(** {1 Lifecycle} *)

type t

type snapshot_status = Loaded | Absent | Corrupt of string

type report = {
  snapshot : snapshot_status;
  replayed : int;  (** Journal entries applied during recovery. *)
  stale : int;  (** Entries whose version was not newer: replay no-ops. *)
  undecodable : int;  (** Checksum-valid records that failed to decode. *)
  tail : Leakdetect_store.Wal.tail;
  promoted_on_recovery : int;
      (** Candidates found at [>= k] reporters after replay (the crash
          landed between the k-th report and its promotion entry) and
          promoted during {!open_}. *)
}

val report_to_string : report -> string

val create : ?obs:Leakdetect_obs.Obs.t -> ?config:config -> unit -> t
(** An in-memory authority (no journal): durable-free tests and
    benchmarks.  Mutations are applied but not persisted. *)

val open_ :
  ?obs:Leakdetect_obs.Obs.t ->
  ?config:config ->
  dir:string ->
  unit ->
  (t * report, string) result
(** Recover a journaled authority from [dir] (creating it as needed):
    load the snapshot if intact, replay the WAL (truncating a torn tail
    in place), then promote any candidates the crash caught between
    their k-th report and the promotion entry. *)

val close : t -> unit

val wal_path : dir:string -> string
(** The journal file of a state directory. *)

val snapshot_path : dir:string -> string
(** The compaction snapshot of a state directory. *)

exception Crashed of string
(** Raised by the [?inject] hooks below to simulate the process dying at
    a chosen point; the instance must then be abandoned and {!open_}ed
    again from its directory. *)

(** {1 State} *)

val config : t -> config
val tenants : t -> string list
(** Sorted. *)

val version : t -> tenant:string -> int
(** 0 for an unknown tenant. *)

val signatures : t -> tenant:string -> Signature.t list
val checksum : t -> tenant:string -> int
val checksum_at : t -> tenant:string -> version:int -> int option
val horizon : t -> tenant:string -> int
val changelog_entries : t -> tenant:string -> Changelog.entry list
val wal_size : t -> int  (** 0 for an in-memory authority. *)

type promotion = {
  tenant : string;
  signature : Signature.t;
  reporters : int;  (** Distinct reporters at promotion time. *)
  at_version : int;
}

val promotions : t -> promotion list
(** Every promotion since this instance opened, oldest first — the soak's
    audit trail for the [>= k] invariant (not persisted). *)

val pending_candidates : t -> tenant:string -> int

val is_published : t -> tenant:string -> Signature.t -> bool
(** Whether a live signature of the tenant has this one's identity (mode
    and token list; id and cluster size ignored) — the test that turns a
    candidate report into a [Duplicate].  O(1) from an index kept in step
    with every change and rebuilt on recovery and adoption. *)

(** {1 Mutations} *)

val publish :
  ?inject:(int -> unit) -> t -> tenant:string -> Signature.t list -> int
(** Install a desired set: diffed against the current one into [Add]
    (new or changed ids) and [Retire] (absent ids) entries, each
    journaled then applied.  A byte-identical set appends nothing and
    returns the unchanged version.  [?inject] is called with the change
    index before each journal append — a crash-point hook for harnesses
    (raise {!Crashed} to simulate dying mid-publish).
    @raise Invalid_argument on a bad tenant id. *)

type candidate_outcome =
  | Accepted of int  (** Distinct reporters so far, this one included. *)
  | Duplicate  (** Same reporter already reported it, or it is already published. *)
  | Promoted of int  (** The k-th reporter arrived: published at this version. *)
  | Capped  (** The reporter is at its pending-candidate cap. *)

val candidate_outcome_to_string : candidate_outcome -> string

val report_candidate :
  t -> tenant:string -> reporter:string -> Signature.t -> candidate_outcome
(** Record one crowdsourced candidate (keyed by mode + token list; the
    submitted id is ignored).  Promotion publishes it with a fresh id and
    [cluster_size] = distinct-reporter count.
    @raise Invalid_argument on a bad tenant or reporter id. *)

val compact : ?inject:(string -> unit) -> t -> unit
(** Fold every tenant's changelog down to [compact_keep] live entries,
    snapshot the state atomically, and reset the journal.  [?inject] is
    called at ["pre_snapshot"] and ["post_snapshot"] — the second is the
    crash window (new snapshot, old journal) that idempotent replay must
    absorb.  A shard assignment is re-journaled into the fresh log (the
    snapshot codec carries tenants only). *)

(** {1 Sharding and rebalance}

    An origin given a {!Shard_map} via {!set_shard} serves only the
    tenants the map assigns to it: requests for other tenants draw
    [421 Misdirected Request] with [X-Shard-Owner] / [X-Shard-Epoch]
    headers, and requests for an owned tenant that has not been
    {!adopt_tenant}ed yet draw a retryable [503] — never a fresh empty
    tenant, which a synced client would (rightly) refuse as a version
    regression.  Without a map (the default) every tenant is served,
    preserving the single-origin behaviour.

    A rebalance is: advance the map, {!set_shard} it on every origin,
    then for each tenant in {!Shard_map.moved} pipe {!export_tenant} on
    the old owner into {!adopt_tenant} on the new one and
    {!release_tenant} the old copy.  The transfer payload folds the
    changelog to its head — the new owner continues at [head + 1], so
    committed versions stay monotonic across the migration — and carries
    the candidate table, so promotion tallies are not split.  All three
    steps are journaled and replay idempotently (adopt and release are
    version-gated against the compaction crash window). *)

val shard : t -> (string * Shard_map.t) option
(** [(self, map)] once {!set_shard} has run (possibly via replay). *)

val owns : t -> tenant:string -> bool
(** True when no map is installed, or the map assigns [tenant] to us. *)

val set_shard : t -> self:string -> Shard_map.t -> unit
(** Install (journal, then apply) the map this origin serves under.
    [self] may be absent from the map — such an origin owns nothing and
    answers 421 for every tenant (a standby, or a node being drained).
    @raise Invalid_argument on a bad [self] id. *)

val export_tenant : t -> tenant:string -> (string, string) result
(** The tenant's folded section (current set as base at the head version,
    no entries, candidates attached) — the adopt transfer payload.
    [Error] on an unknown tenant. *)

val adopt_tenant : t -> string -> (string, string) result
(** Install an {!export_tenant} payload (journal, then apply), returning
    the tenant name.  [Error] on a malformed payload or one whose version
    is behind a tenant state we already hold. *)

val release_tenant : t -> tenant:string -> (int, string) result
(** Drop a tenant after handoff (journal, then apply), returning the
    version it was released at.  [Error] on an unknown tenant. *)

(** {1 HTTP} *)

val signatures_endpoint : string
(** ["/signatures"] *)

val candidates_endpoint : string
(** ["/candidates"] *)

val metrics_endpoint : string
(** ["/metrics"] *)

val digest_endpoint : string
(** ["/digest"] *)

val handle : t -> Leakdetect_http.Request.t -> Leakdetect_http.Response.t
(** [GET /signatures?tenant=T&since=V[&full=1]]:
    - [200] with [X-Signature-Mode: delta], the entry suffix as body and
      [X-Signature-Since] echoing [V], when the suffix is servable;
    - [200] with [X-Signature-Mode: snapshot] and the full set as body
      when [V] predates the horizon (or [full=1]);
    - [304] when up to date — [X-Signature-Version] and
      [X-Signature-Checksum] are carried on every one of these;
    - [421] / [503] under a shard map, as described above;
    - [400] on a missing/bad tenant or [since], [404]/[405] as usual.

    [POST /candidates?tenant=T&reporter=R] with signature lines as body:
    [200] with a tally body ([accepted/duplicate/promoted/capped] TAB
    counts), [400] on bad ids or a malformed line.

    [GET /digest?tenant=T[&since=V][&interval=K]]: the ranged
    anti-entropy digest — [version TAB crc-hex] checkpoint lines (see
    {!Changelog.digest}; [since] defaults to 0, [interval] to 8), with
    the usual version headers.  A diverged mirror compares the
    checkpoints against its own history, takes the newest agreeing
    version as the splice point, and repairs just that suffix.  Gated by
    the shard map like the other tenant endpoints; [400] on a bad
    [since] or [interval].

    [GET /metrics]: Prometheus exposition of the registry. *)

val wire_transport : t -> string -> (string, string) result
(** Parse printed request bytes, {!handle}, print the response — the
    loss-free transport that fault plans wrap. *)
