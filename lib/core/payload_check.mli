(** The payload check (Sec. IV-A): splits a trace into the suspicious group
    (packets carrying sensitive information) and the normal group.

    In the paper's setting all traffic comes from one handset, so the
    concrete identifier values are known; the check scans each packet for
    those values and for their MD5/SHA1 hex digests.  The needle table is
    supplied by the caller (the Android device model provides one via
    [Leakdetect_android.Device.needles]), keeping this module independent of
    how identifiers are obtained.

    Digest-shaped needles (32/40 hex characters) match case-insensitively —
    ad modules emit digests in either case — while raw identifiers stay
    byte-exact.  Every needle is compiled into the
    {!Leakdetect_text.Aho_corasick} kernel once, in {!create}, as two lanes:
    an exact lane (all needles, digests lower-cased) and a caseless lane
    (the digests).  A packet is one pass of both lanes together over its
    request line, cookie and body, read in place: the flattened content and
    its lower-cased copy are never built.  An optional
    {!Leakdetect_normalize.Normalize.t} extends the scan over the bounded
    lattice of decoded views, so re-encoded (percent/base64/hex/chunked)
    leaks are still classified as sensitive; without it, behavior is the
    legacy raw-byte scan. *)

type t

val create : (Sensitive.kind * string) list -> t
(** [create needles] pre-compiles the search patterns.  Multiple needles per
    kind are allowed (e.g. a raw value and its URL-encoded form).  Empty
    needle strings are rejected with [Invalid_argument]. *)

val needles : t -> (Sensitive.kind * string) list

(** How a needle was found: in the raw bytes, in the case-folded content
    (digest needles only), or in a derived view reached by a decode chain. *)
type via = Raw | Folded | View of Leakdetect_normalize.Normalize.step list

val via_to_string : via -> string
(** ["raw"], ["folded"], or the decode chain joined with [+]
    (e.g. ["percent+base64"]). *)

type verdict = { kind : Sensitive.kind; via : via }

val scan_verdicts :
  ?normalize:Leakdetect_normalize.Normalize.t ->
  t ->
  Leakdetect_http.Packet.t ->
  verdict list
(** Like {!scan} but each kind carries the view that matched it, so an
    evasion report can attribute detections to decode chains.  For a kind
    matched by several views, the earliest (raw, then folded, then the
    derived views in lattice order, shallower decode chains first) wins,
    whichever of the kind's needles matched there and whatever order the
    needles were given in. *)

val scan :
  ?normalize:Leakdetect_normalize.Normalize.t ->
  t ->
  Leakdetect_http.Packet.t ->
  Sensitive.kind list
(** The distinct kinds whose needle occurs in the packet content
    (request-line, cookie or body), in Table III order. *)

val is_sensitive :
  ?normalize:Leakdetect_normalize.Normalize.t -> t -> Leakdetect_http.Packet.t -> bool

val split :
  ?obs:Leakdetect_obs.Obs.t ->
  ?normalize:Leakdetect_normalize.Normalize.t ->
  t ->
  Leakdetect_http.Packet.t array ->
  Leakdetect_http.Packet.t array * Leakdetect_http.Packet.t array
(** [(suspicious, normal)] preserving input order within each group.
    [?obs] records a [payload_check.split] span and the per-class
    [leakdetect_payload_check_packets_total] counter. *)
