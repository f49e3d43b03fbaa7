(** The detection engine: applies a generated signature set to packets.
    This is what the paper's on-device information-flow-control application
    runs against intercepted traffic (Fig. 3b), and what the whole-trace
    evaluation runs for Figure 4.

    There is one per-packet kernel, {!first_match_with}, and one batch
    entry, {!first_matches}, which runs the kernel over a packet array
    ({!detect_bitmap} and {!count_detected} are its flag and count
    views).  The kernel is zero-copy: a
    packet's three content fields are fed through a resumable Aho-Corasick
    scan with the canonical ['\n'] separators in between, so the automaton
    walks the exact bytes of {!Leakdetect_http.Packet.content_string}
    without that string ever being built.  It is materialized lazily, only
    when an ordered signature must verify token order or the
    canonicalization lattice needs input to decode.

    Every entry point accepts an optional {!Leakdetect_normalize.Normalize.t}:
    when present, a packet that matches nothing in its raw content is matched
    against each derived view of the bounded canonicalization lattice, so a
    re-encoded leak still hits the signature set.  The same shared
    Aho-Corasick automaton scans every view; omitting [?normalize] is the
    byte-identical legacy path. *)

type t

val create : Signature.t list -> t
val signature_count : t -> int

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
(** The first signature, in the order given to {!create}, that matches the
    packet's raw content, attributed [[]].  With [?normalize], when nothing
    matches the raw content, the first derived view in lattice order that
    matches some signature, with that view's decode chain.  Scans through
    the caller-owned scratch: no per-packet allocation on the conjunction
    fast path. *)

val first_matches :
  ?pool:Leakdetect_parallel.Pool.t ->
  ?obs:Leakdetect_obs.Obs.t ->
  ?normalize:Leakdetect_normalize.Normalize.t ->
  t -> Leakdetect_http.Packet.t array ->
  (Signature.t * Leakdetect_normalize.Normalize.step list) option array
(** {!first_match_with} of every packet, aligned with the input array:
    one scan per packet names the match too.  [?obs] (default noop)
    records a [detector.scan] span and the [leakdetect_detection_*]
    counters/histogram — per scan, not per packet, so the hot loop is
    untouched.  Sequential runs ([?pool] absent) reuse one scratch across
    the whole array.  With [?pool], packets are sharded across domains:
    the Aho-Corasick automaton (and the normalizer, which holds no
    per-call state) is shared read-only and every domain reuses a private
    {!scratch}, so the result is identical to the sequential scan. *)

val detect_bitmap :
  ?pool:Leakdetect_parallel.Pool.t ->
  ?obs:Leakdetect_obs.Obs.t ->
  ?normalize:Leakdetect_normalize.Normalize.t ->
  t -> Leakdetect_http.Packet.t array -> bool array
(** The [Option.is_some] view of {!first_matches}, which records the
    observations. *)

val count_detected :
  ?pool:Leakdetect_parallel.Pool.t ->
  ?obs:Leakdetect_obs.Obs.t ->
  ?normalize:Leakdetect_normalize.Normalize.t ->
  t -> Leakdetect_http.Packet.t array -> int
(** The number of matched packets of {!first_matches}, which records the
    observations. *)
