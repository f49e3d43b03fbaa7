(** The detection engine: applies a generated signature set to packets.
    This is what the paper's on-device information-flow-control application
    runs against intercepted traffic (Fig. 3b).

    The hot path is zero-copy: a packet's three content fields are fed
    through a resumable Aho-Corasick scan with the canonical ['\n']
    separators in between, so the automaton walks the exact bytes of
    {!Leakdetect_http.Packet.content_string} without that string ever being
    built.  It is materialized lazily, only when an ordered signature must
    verify token order or the canonicalization lattice needs input to
    decode.

    All entry points accept an optional {!Leakdetect_normalize.Normalize.t}:
    when present, every packet is matched against its raw content and then
    against each derived view of the bounded canonicalization lattice, so a
    re-encoded leak still hits the signature set.  The same shared
    Aho-Corasick automaton scans every view; omitting [?normalize] is the
    byte-identical legacy path. *)

type t

type detector = t
(** Alias so {!Stream}'s signature can name the detector unambiguously. *)

val create : Signature.t list -> t
val signature_count : t -> int

val first_match :
  ?normalize:Leakdetect_normalize.Normalize.t ->
  t -> Leakdetect_http.Packet.t -> Signature.t option
(** The first signature (in id order) matching the packet; the raw content
    is tried before any derived view. *)

val first_match_normalized :
  ?normalize:Leakdetect_normalize.Normalize.t ->
  t ->
  Leakdetect_http.Packet.t ->
  (Signature.t * Leakdetect_normalize.Normalize.step list) option
(** Like {!first_match} but also reports the decode chain of the view that
    matched ([[]] for the raw content), for evasion attribution. *)

val detects :
  ?normalize:Leakdetect_normalize.Normalize.t ->
  t -> Leakdetect_http.Packet.t -> bool

(** {2 Reusable scan scratch}

    One scan needs a matched-token set (one flag per automaton pattern) and
    a resumable matcher state.  A {!scratch} bundles both so long-lived
    callers — the sequential whole-trace loop, each pool domain, the
    on-device monitor — allocate once and reuse it per packet instead of
    allocating per packet.  A scratch must not be shared across domains;
    the detector itself is immutable and may be. *)

type scratch

val scratch : t -> scratch
(** A fresh scratch sized for this detector's automaton. *)

val first_match_with :
  ?normalize:Leakdetect_normalize.Normalize.t ->
  t -> scratch -> Leakdetect_http.Packet.t ->
  (Signature.t * Leakdetect_normalize.Normalize.step list) option
(** {!first_match_normalized} scanning through a caller-owned scratch:
    no per-packet allocation on the conjunction fast path. *)

val count_detected :
  ?pool:Leakdetect_parallel.Pool.t ->
  ?obs:Leakdetect_obs.Obs.t ->
  ?normalize:Leakdetect_normalize.Normalize.t ->
  t -> Leakdetect_http.Packet.t array -> int
(** Sequential runs ([?pool] absent) reuse one scratch across the whole
    trace — the same shared-automaton + private-buffer discipline as each
    parallel domain. *)

val detect_bitmap :
  ?pool:Leakdetect_parallel.Pool.t ->
  ?obs:Leakdetect_obs.Obs.t ->
  ?normalize:Leakdetect_normalize.Normalize.t ->
  t -> Leakdetect_http.Packet.t array -> bool array
(** Per-packet detection flags, aligned with the input array.  [?obs]
    (default noop) records a [detector.scan] span and the
    [leakdetect_detection_*] counters/histogram — per scan, not per packet,
    so the hot loop is untouched.  With [?pool], packets are sharded across
    domains: the Aho-Corasick automaton (and the normalizer, which holds no
    per-call state) is shared read-only and every domain reuses a private
    {!scratch}, so the bitmap is identical to the sequential scan. *)

(** {2 Streaming detection}

    The monitor path inspects packets as a transport produces them — often
    as chunked-body fragments — and must not pay reassembly-then-rescan.  A
    {!Stream.t} wraps a detector with shared hit/byte/packet counters; each
    {!Stream.flow} carries resumable matcher state across the fragments of
    one logical packet, so a token split across two chunk seams still
    matches, and every fragment is scanned in place ([?off]/[?len] slices
    of the transport's buffer, no copies).  Flows reset themselves on
    {!Stream.close} for reuse. *)
module Stream : sig
  type t

  val create :
    ?pool:Leakdetect_parallel.Pool.t ->
    ?normalize:Leakdetect_normalize.Normalize.t ->
    detector -> t
  (** The full fed content is retained per flow only when the signature set
      contains ordered signatures or [?normalize] is given — conjunction
      matching over raw traffic buffers nothing. *)

  type flow

  val open_flow : t -> flow
  (** A flow scans the canonical content stream of one packet: feed the
      request line, ["\n"], the cookie, ["\n"], then the body fragments in
      order, and the result equals whole-packet {!detects}/{!first_match}.
      Not domain-safe; open one flow per worker and reuse it. *)

  val feed : flow -> ?off:int -> ?len:int -> string -> unit
  (** Scan the next fragment ([?off]/[?len] delimit a slice of a
      caller-owned buffer, default the whole string) without copying it. *)

  val feed_chunked :
    flow ->
    ?limits:Leakdetect_http.Wire.limits ->
    string ->
    (int, Leakdetect_http.Wire.error) result
  (** Frame a raw chunked transfer-coded body
      ({!Leakdetect_http.Wire.chunked_fragments}) and feed each chunk
      payload slice in place; returns the decoded length.  Fragments before
      an error have been fed. *)

  val close : flow -> Signature.t option
  (** Finish the flow: test the accumulated matched set against every
      signature (forcing the buffered content only for ordered signatures
      or lattice views), update the stream's aggregate counters, and reset
      the flow for the next packet. *)

  val detect_batch : t -> Leakdetect_http.Packet.t array -> bool array
  (** {!detect_bitmap} through the stream's pool — packets sharded across
      per-domain workers, each with its own matched-set scratch — plus the
      aggregate packet/byte/hit accounting.  This is the line-rate batch
      entry the benchmark drives for packets/sec. *)

  type stats = { packets : int; bytes : int; hits : int }

  val stats : t -> stats
  (** Aggregate totals across every flow and batch since {!create};
      readable from any domain. *)
end
