(** Monotonically versioned signature changelog — the unit of state the
    multi-tenant authority keeps per tenant.

    Every mutation is an {!change} ([Add] installs-or-replaces a signature
    by id, [Retire] removes one) and bumps the version by exactly one, so
    the set at any version is determined by the entry prefix up to it.
    Delta sync is literally {!since}: the entry suffix newer than the
    client's version.  {!compact} folds old entries into the base set and
    advances the {!horizon}; a [since] below the horizon can no longer be
    served incrementally and the caller falls back to a full snapshot.

    The canonical serialization of a set (id-ascending {!Leakdetect_core.Signature_io}
    lines) doubles as the integrity witness: {!checksum_at} is the CRC-32
    of the canonical set at a version, and a client that applies a delta
    must land on the checksum the authority advertises.  The set is a
    {!Sigset}, so each change costs O(log n) and the retained history is
    indexed by version: {!append}, {!checksum_at} and {!wire_checksum}
    never serialize the whole set, and {!since} costs O(suffix).  Each
    entry's {!entry_to_line} is encoded once, when it is appended, and
    kept with it through {!compact}, {!truncate} and {!restore}; the
    set's piece checksum reads the same bytes, and {!since_lines} serves
    them. *)

module Signature = Leakdetect_core.Signature

type change =
  | Add of Signature.t  (** Install or replace the signature with this id. *)
  | Retire of int  (** Remove the signature with this id. *)

type entry = { version : int; change : change }

val entry_to_line : entry -> string
val entry_of_line : string -> (entry, string) result
(** Line codec shared by the WAL journal and the HTTP delta bodies:
    [a TAB version TAB sig-line] / [r TAB version TAB id].  Signature
    lines escape tabs and newlines, so splitting is unambiguous. *)

val apply_change : Signature.t list -> change -> Signature.t list
(** Pure application onto an id-ascending set; keeps the order invariant.
    [Add] replaces any existing signature with the same id; [Retire] of an
    absent id is a no-op (which makes re-application idempotent). *)

val apply : Sigset.t -> change -> Sigset.t
(** {!apply_change} on the tree form, in O(log n). *)

type t

val create : unit -> t
(** Empty changelog at version 0, horizon 0. *)

val restore :
  base_version:int ->
  base:Signature.t list ->
  next_id:int ->
  entries:entry list ->
  (t, string) result
(** Rebuild from snapshot parts: the folded base set at [base_version]
    plus the retained entries, whose versions must be consecutive from
    [base_version + 1].  [Error] on a version gap, negative inputs or two
    base signatures with one id. *)

val of_set : version:int -> Sigset.t -> t
(** A changelog whose base is [set] at [version], with no entries; its
    {!next_id} is one past the largest id in [set].  Shares the tree, so
    it costs no serialization.
    @raise Invalid_argument when [version < 0]. *)

val truncate : t -> version:int -> t
(** A new changelog with [t]'s base and its entries up to [version]
    (clamped to [\[horizon t, version t\]]), whose {!next_id} counts only
    that kept history; [t] is unchanged.  Costs O(entries kept · log n). *)

val replay : t -> entry list -> (unit, string) result
(** Append entries that must continue the history consecutively from
    [version t + 1]; stops with [Error] at the first gap, leaving the
    entries before it applied. *)

val version : t -> int
val horizon : t -> int
(** Versions [<= horizon] are folded into the base: {!since} below it is
    [None] and {!checksum_at} only answers at or above it. *)

val next_id : t -> int
(** Smallest id never yet used by an [Add] — survives retires and
    compaction so promoted candidates cannot reuse a retired id. *)

val current : t -> Signature.t list
(** The live set, id-ascending. *)

val current_set : t -> Sigset.t
(** The live set as a tree. *)

val current_checksum : t -> int
(** CRC-32 of the canonical serialization of the live set. *)

val wire_checksum : t -> int
(** The head's [X-Signature-Checksum]: CRC-32 over the version number, a
    newline and the canonical serialization.  Binding the version in
    means a transit-corrupted version header cannot pair with an
    otherwise-valid body — the client recomputes this against the
    version it was told and bails on mismatch. *)

val checksum_at : t -> int -> int option
(** Canonical-set CRC at an exact version; [None] below the horizon (or
    above the head). *)

val since : t -> int -> entry list option
(** [since t v]: the entries with version > [v], oldest first — the delta
    that carries a client at version [v] to the head.  [None] when [v] is
    below the horizon (compacted away) or beyond the head (a gap the
    caller must treat as a full-resync condition). *)

val since_lines : t -> int -> string list option
(** [Option.map (List.map entry_to_line) (since t v)], from the lines
    stored when each entry was appended: serving a delta encodes
    nothing. *)

val digest : t -> since:int -> interval:int -> (int * int) list
(** Ranged anti-entropy digest: [(version, canonical-set CRC)] checkpoints
    ascending from [max since horizon] in [interval] steps, with the head
    always included last — so the result is never empty and
    [digest ~since:max_int ~interval:1] is a head-only freshness probe.
    A mirror that forked from this history compares its own
    {!checksum_at} against the checkpoints, takes the newest agreeing
    version as the splice point, and repairs just the suffix — the
    rebuild-from-scratch resnapshot stays the fallback for divergence
    below the horizon (no agreeing checkpoint survives compaction).
    @raise Invalid_argument when [interval < 1]. *)

val entries : t -> entry list
(** All retained entries, oldest first. *)

val base : t -> Signature.t list
val append : t -> change -> entry
(** Apply and record one change at version [version t + 1]. *)

val append_encoded : t -> change -> line:string -> entry
(** {!append} for a caller that already holds the entry's line: [line]
    must be [entry_to_line { version = version t + 1; change }], which is
    then stored and checksummed as it is rather than encoded again. *)

val compact : t -> keep:int -> unit
(** Fold all but the newest [keep] entries into the base, advancing the
    horizon.  [keep] is clamped to [0, entries]. *)
