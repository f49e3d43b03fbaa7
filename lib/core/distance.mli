(** The paper's HTTP packet distance (Sec. IV-B and IV-C).

    Destination distance between packets [p_x], [p_y]:

      d_dst = d_ip + d_port + d_host

    - [d_ip]: the paper prints [lmatch/32], which would make identical
      addresses maximally distant and contradicts its own motivation; we
      implement the evident intent, [1 - lmatch/32].
    - [d_port]: likewise implemented as 0 for equal ports and 1 otherwise
      (the paper's [match] returns 1 on equality).
    - [d_host]: normalized Levenshtein distance over the FQDNs, exactly as
      printed.

    Content distance:

      d_header = ncd(request-line) + ncd(cookie) + ncd(body)

    with [ncd(x,y) = (C(xy) - min(C x, C y)) / max(C x, C y)] for a real
    compressor [C] (LZ77 by default).

    Overall packet distance: d_pkt = d_dst + d_header, so d_pkt ranges over
    [0, 6].  Component toggles support the ablation experiments. *)

type components = {
  use_ip : bool;
  use_port : bool;
  use_host : bool;
  use_rline : bool;
  use_cookie : bool;
  use_body : bool;
}

val all_components : components
val destination_only : components
val content_only : components

type content_metric = Ncd | Trigram
(** Content comparator: the paper's NCD (default), or cosine distance over
    byte-trigram profiles — the cheaper statistical comparator common in
    the traffic-clustering literature, kept for the ablation. *)

type t
(** Distance context: component configuration plus the string-keyed
    compressor and trigram caches behind {!d_pkt}. *)

val create :
  ?components:components ->
  ?compressor:Leakdetect_compress.Compressor.algorithm ->
  ?content_metric:content_metric ->
  ?registry:Leakdetect_net.Registry.t ->
  unit ->
  t
(** [registry] enables the WHOIS refinement of Sec. VI: when both packet
    destinations have a registered owner, [d_ip] becomes 0 (same owner) or
    1 (different owners) instead of the prefix heuristic. *)

val d_ip : Leakdetect_net.Ipv4.t -> Leakdetect_net.Ipv4.t -> float
(** The registry-free prefix heuristic. *)

val d_ip_registry :
  Leakdetect_net.Registry.t ->
  Leakdetect_net.Ipv4.t -> Leakdetect_net.Ipv4.t -> float
(** Registry-verified address distance: 0 / 1 when ownership of both
    addresses is known, the prefix heuristic otherwise. *)

val d_port : int -> int -> float
val d_host : string -> string -> float

val d_dst : t -> Leakdetect_http.Packet.t -> Leakdetect_http.Packet.t -> float
val d_header : t -> Leakdetect_http.Packet.t -> Leakdetect_http.Packet.t -> float
val d_pkt : t -> Leakdetect_http.Packet.t -> Leakdetect_http.Packet.t -> float

val matrix :
  ?pool:Leakdetect_parallel.Pool.t ->
  ?obs:Leakdetect_obs.Obs.t ->
  t -> Leakdetect_http.Packet.t array -> Leakdetect_cluster.Dist_matrix.t
(** Pairwise [d_pkt] over the sample — the input to clustering.  Every cell
    is bit-identical to [d_pkt t packets.(i) packets.(j)].

    The build runs over an interned view of the sample (see {!with_view}),
    not through the context's string-keyed caches, which it leaves
    untouched.

    [?obs] (default noop) records a [distance.matrix] span, the
    [leakdetect_distance_pairs_total], [leakdetect_distance_host_distances_total]
    and [leakdetect_distance_concat_total] counters and the
    [leakdetect_distance_matrix_seconds] histogram — once per build, so the
    pair loop itself carries no instrumentation.

    With [?pool] (size > 1) the O(N^2) pair loop fans out across domains,
    each with its own memo tables; the result is identical to the
    sequential build. *)

type view_stats = {
  strings : int;  (** distinct content strings interned *)
  hosts : int;  (** distinct (lowercased) hosts interned *)
  host_distances : int;  (** host edit distances computed, over all domains *)
  concats : int;  (** [C(xy)] computed, over all domains (0 under [Trigram]) *)
}

val matrix_with_stats :
  ?pool:Leakdetect_parallel.Pool.t ->
  ?obs:Leakdetect_obs.Obs.t ->
  t -> Leakdetect_http.Packet.t array -> Leakdetect_cluster.Dist_matrix.t * view_stats
(** {!matrix} together with the interned view's counts. *)

type scratch
(** One domain's handle on an interned sample: the shared read-only view
    plus that domain's private memo tables. *)

val with_view :
  ?pool:Leakdetect_parallel.Pool.t ->
  ?obs:Leakdetect_obs.Obs.t ->
  t ->
  Leakdetect_http.Packet.t array ->
  (init:(unit -> scratch) -> 'a) ->
  'a * view_stats
(** [with_view ?pool t packets f] interns [packets] once and runs [f] with
    a factory of per-domain scratches over it.

    The view gives each packet int ids for its host and for each enabled
    content field, and computes every per-string quantity once per id
    ([C(s)] through [?pool], or a trigram profile).  Ids follow
    [String.compare] order, so id order is the canonical pair order of the
    string-level NCD.  A scratch memoizes [d_host] per host-id pair and
    [C(xy)] per content-id pair, each table bounded; scratches are never
    shared, so nothing shared is written in the pair loop.

    After [f] returns, the scratches' counts are summed into the returned
    stats and, with [?obs], added to the
    [leakdetect_distance_host_distances_total] and
    [leakdetect_distance_concat_total] counters.  {!matrix} uses this; the
    sketch-bucketed clustering uses it to fan whole buckets out
    across domains. *)

val pair : scratch -> int -> int -> float
(** [pair s i j] is [d_pkt t packets.(i) packets.(j)] for the context and
    sample [s] was made from, bit for bit. *)

val max_possible : t -> float
(** Upper bound of [d_pkt] under the enabled components (each enabled
    component contributes at most 1). *)
