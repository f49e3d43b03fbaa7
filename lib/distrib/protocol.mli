(** The signature sync protocol — the one place its wire format lives.
    Origins ({!Authority}), relays ({!Relay}), handsets ({!Delta_client})
    and the soak's reporters ({!Topology}) speak it only through here.

    - [GET /signatures?tenant=T&since=V[&full=1]] ([since] defaults to
      0): [304] when [V >= head] and not [full=1]; else [200] with
      [X-Signature-Mode: delta], [X-Signature-Since: V] and the changelog
      suffix, or [X-Signature-Mode: snapshot] and the whole set (below the
      horizon, or [full=1]).  [X-Signature-Version] and
      [X-Signature-Checksum] ({!Changelog.wire_checksum}) lead each.
    - [GET /digest?tenant=T[&since=V][&interval=K]]: {!Changelog.digest}
      as [version TAB crc-hex] lines, mode [digest], version headers.
    - [POST /candidates?tenant=T&reporter=R], signature lines as body:
      a {!tally} body and [X-Signature-Version].
    - [GET /metrics]: Prometheus text exposition 0.0.4.

    [400] on a bad tenant, reporter, [since] (below 0), [interval] (below
    1) or candidate body (empty included), [405] with [Allow] on a wrong
    method, [404] elsewhere.  Checks run in a fixed order — method,
    tenant id, {!server}[.resolve], query, {!server}[.gate] — that is part
    of the wire: fault plans draw offsets from byte lengths. *)

module Http := Leakdetect_http

val metrics_endpoint : string
(** ["/metrics"] *)

val default_digest_interval : int
(** [8]: the checkpoint stride of a [/digest] that names no [interval]. *)

val id_ok : string -> bool
(** Valid tenant, reporter, relay or origin id: [A-Za-z0-9._:-], 1–64
    chars, so ids embed safely in journal lines, shard-map lines and
    query strings. *)

(** {1 Body codecs} *)

val lines : string -> string list
(** A body's lines; the empty body has none. *)

val sigs_of_lines :
  string list -> (Leakdetect_core.Signature.t list, string) result
(** Snapshot and candidate bodies (one {!Leakdetect_core.Signature_io}
    line each); [Error] names the first bad line. *)

val entries_of_lines : string list -> (Changelog.entry list, string) result
(** Delta bodies (one {!Changelog.entry_to_line} each). *)

val digest_of_body : string -> ((int * int) list, string) result
(** A [/digest] body as [(version, crc)] checkpoints; rejects
    non-ascending versions and malformed lines. *)

val sig_body : Leakdetect_core.Signature.t list -> string
(** Snapshot and candidate bodies: one {!Leakdetect_core.Signature_io}
    line per signature, newline-separated. *)

type tally = { accepted : int; duplicate : int; promoted : int; capped : int }
(** The answer to a candidate POST: how its signatures fared. *)

(** {1 Serving} *)

type served = [ `Not_modified | `Delta | `Snapshot | `Digest ]

(** What differs between an origin and a relay. *)
type 'st server = {
  resolve : string -> ('st, Http.Response.t) result;
      (** A well-formed tenant id to its state, or the answer (a relay's
          [404]), before the query is parsed. *)
  gate : 'st -> (Changelog.t, Http.Response.t) result;
      (** After the query: the changelog to serve, or the refusal. *)
  headers : 'st -> (string * string) list;  (** After the version headers. *)
  served : served -> unit;  (** Once per answer, before it is built. *)
  digest_interval : int;  (** [/digest]'s default [interval]. *)
  candidates : Http.Request.t -> (string * string) list -> Http.Response.t;
      (** A [POST /candidates] and its query: {!accept_candidates}, or a
          forward upstream. *)
  metrics : unit -> string;  (** The [GET /metrics] body. *)
}

val handle : 'st server -> Http.Request.t -> Http.Response.t
(** Route one request to its endpoint and answer it. *)

val accept_candidates :
  gate:(string -> (unit, Http.Response.t) result) ->
  report:
    (tenant:string ->
    reporter:string ->
    Leakdetect_core.Signature.t ->
    [ `Accepted | `Duplicate | `Promoted | `Capped ]) ->
  version:(string -> int) ->
  Http.Request.t ->
  (string * string) list ->
  Http.Response.t
(** The origin side of [POST /candidates]: check the ids, [gate] the
    tenant, decode the body, [report] each signature and answer the
    tally with the tenant's [version] after it. *)

val parse_request : string -> (Http.Request.t, string) result
(** Printed request bytes to a request. *)

val tenant_of : Http.Request.t -> string option
(** The request's [tenant] query parameter, unchecked. *)

val wire_transport :
  (Http.Request.t -> Http.Response.t) -> string -> (string, string) result
(** Parse printed request bytes, answer them, print the response — the
    loss-free transport that fault plans wrap. *)

(** {1 Shard routing}

    Under a shard map, an origin answers a request for a tenant it does
    not own with [421 Misdirected Request] naming the owner, and one for
    a tenant it owns but has not adopted yet with a retryable [503].  Both
    carry the map's [X-Shard-Epoch], so a client can tell stale routing
    from a partitioned minority. *)

val misdirected : epoch:int -> owner:string -> Http.Response.t
(** The [421], with [X-Shard-Epoch] and [X-Shard-Owner]. *)

val not_adopted : epoch:int -> Http.Response.t
(** The [503], with [X-Shard-Epoch] and [Retry-After: 1]. *)

val misdirected_to : string -> string option
(** The owner a printed {!misdirected} answer names; [None] for bytes that
    do not parse as a [421] with an [X-Shard-Owner].  The [Content-Length]
    is not checked. *)

(** {1 Relay answers} *)

val relay_headers :
  id:string -> staleness:int -> version_age:int -> (string * string) list
(** [X-Relay-Id], [X-Relay-Staleness] and [X-Relay-Version-Age], in that
    order: what a relay adds to every tenant answer. *)

val retry_later : (string * string) list -> Http.Response.t
(** [503] with [Retry-After: 1], then the given headers: a relay's
    refusal of an unready or diverged mirror (with its {!relay_headers}),
    and of a candidate POST it could not forward (with none). *)

(** {1 Asking} *)

type transport = string -> (string, string) result
(** Printed request bytes in, printed response bytes out. *)

val signatures_target : tenant:string -> since:int -> full:bool -> string
val digest_target : tenant:string -> since:int -> interval:int -> string

val parse_response : string -> (Http.Response.t, string) result
(** Parse an answer's bytes.  An answer whose body disagrees with its
    [Content-Length] (cut or padded on the way) is an [Error], like one
    that does not parse.  Every answer a client, reporter or relay takes
    from a transport goes through this check. *)

val get :
  host:[ `Authority | `Relay ] ->
  transport ->
  string ->
  (string * Http.Response.t, string) result
(** [GET target] with [Host: sigauthority.local] or [sigrelay.local]:
    the raw answer and its {!parse_response}. *)

val version : Http.Response.t -> int option
(** [X-Signature-Version]. *)

val checksum : Http.Response.t -> int option
(** [X-Signature-Checksum]. *)

val mode : Http.Response.t -> [ `Delta | `Snapshot | `Other of string ] option
(** [X-Signature-Mode] of a [/signatures] answer. *)

val post_candidates :
  transport ->
  tenant:string ->
  reporter:string ->
  Leakdetect_core.Signature.t list ->
  (tally, string) result
(** Report candidate signatures ([Host: sigrelay.local]); [Error] on a
    lost answer, one {!parse_response} refuses, a status other than
    [200] or a malformed tally. *)
