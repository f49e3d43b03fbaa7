module Http = Leakdetect_http
module Crc32 = Leakdetect_util.Crc32
module Signature = Leakdetect_core.Signature
module Signature_io = Leakdetect_core.Signature_io
module Signature_client = Leakdetect_monitor.Signature_client
module Obs = Leakdetect_obs.Obs

type config = { compact_keep : int; digest_interval : int }

let default_config = { compact_keep = 64; digest_interval = 8 }

type tenant_state = {
  dc : Delta_client.t;
  mutable mirror : Changelog.t;
  mutable synced : bool;
  mutable last_sync_tick : int;
  (* Canonical-set CRC of the verified client state, cached after every
     successful sync so the serve-time consistency guard is O(1). *)
  mutable verified_sum : int;
}

type t = {
  id : string;
  config : config;
  obs : Obs.t;
  tenant_tbl : (string, tenant_state) Hashtbl.t;
  mutable upstream : (string -> (string, string) result) option;
  mutable peers : (string * (string -> (string, string) result)) list;
  mutable shard : Shard_map.t option;
  mutable clock : int;
  mutable sync_rounds : int;
  mutable sync_failures : int;
  mutable resnapshots : int;
  mutable resnapshot_bytes : int;
  mutable repairs : int;
  mutable repair_bytes : int;
  mutable gossip_rounds : int;
  mutable gossip_catchups : int;
  mutable served_delta : int;
  mutable served_snapshot : int;
  mutable served_not_modified : int;
  mutable served_unready : int;
  mutable served_inconsistent : int;
  mutable served_digest : int;
  mutable forwarded : int;
  mutable forward_failures : int;
}

let create ?(obs = Obs.noop) ?(config = default_config) ?client_config
    ?(seed = 0) ~id ~tenants () =
  if not (Authority.id_ok id) then
    invalid_arg (Printf.sprintf "Relay: bad id %S" id);
  if config.digest_interval < 1 then
    invalid_arg "Relay: digest_interval < 1";
  let t =
    {
      id;
      config;
      obs;
      tenant_tbl = Hashtbl.create (max 4 (List.length tenants));
      upstream = None;
      peers = [];
      shard = None;
      clock = 0;
      sync_rounds = 0;
      sync_failures = 0;
      resnapshots = 0;
      resnapshot_bytes = 0;
      repairs = 0;
      repair_bytes = 0;
      gossip_rounds = 0;
      gossip_catchups = 0;
      served_delta = 0;
      served_snapshot = 0;
      served_not_modified = 0;
      served_unready = 0;
      served_inconsistent = 0;
      served_digest = 0;
      forwarded = 0;
      forward_failures = 0;
    }
  in
  List.iteri
    (fun i tenant ->
      (* Delta_client validates the tenant id; per-tenant seeds keep the
         relays' backoff jitter decorrelated from each other. *)
      let dc =
        Delta_client.create ?config:client_config
          ~seed:(seed + (i * 7919) + Crc32.string id)
          ~tenant ()
      in
      Hashtbl.replace t.tenant_tbl tenant
        {
          dc;
          mirror = Changelog.create ();
          synced = false;
          last_sync_tick = 0;
          verified_sum = Sigset.checksum Sigset.empty;
        })
    tenants;
  t

let id t = t.id

let tenants t =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.tenant_tbl [])

let state t ~tenant =
  match Hashtbl.find_opt t.tenant_tbl tenant with
  | Some st -> st
  | None -> invalid_arg (Printf.sprintf "Relay %s: unknown tenant %S" t.id tenant)

let version t ~tenant =
  match Hashtbl.find_opt t.tenant_tbl tenant with
  | Some st -> Delta_client.version st.dc
  | None -> 0

let synced t ~tenant =
  match Hashtbl.find_opt t.tenant_tbl tenant with
  | Some st -> st.synced
  | None -> false

let checksum t ~tenant =
  match Hashtbl.find_opt t.tenant_tbl tenant with
  | Some st -> Changelog.current_checksum st.mirror
  | None -> Sigset.checksum Sigset.empty

let staleness t ~tenant =
  match Hashtbl.find_opt t.tenant_tbl tenant with
  | Some st -> (Delta_client.staleness st.dc).Signature_client.failed_syncs
  | None -> 0

let set_upstream t transport = t.upstream <- Some transport
let set_peers t peers = t.peers <- List.filter (fun (pid, _) -> pid <> t.id) peers
let set_shard t map = t.shard <- Some map
let set_clock t now = t.clock <- now

let version_age t ~tenant =
  match Hashtbl.find_opt t.tenant_tbl tenant with
  | Some st -> max 0 (t.clock - st.last_sync_tick)
  | None -> 0

(* The serve-time guard: the mirror head must sit exactly on the
   verified client state — same version, same canonical-set CRC (read
   from the mirror's cached sums table, so the check is O(1)).  A
   forked or corrupted mirror trips this immediately and the relay
   refuses to serve until repaired. *)
let consistent_st st =
  let head = Changelog.version st.mirror in
  head = Delta_client.version st.dc
  && Changelog.checksum_at st.mirror head = Some st.verified_sum

let consistent t ~tenant =
  match Hashtbl.find_opt t.tenant_tbl tenant with
  | Some st -> st.synced && consistent_st st
  | None -> false

(* --- raw sub-requests (digest probes, repair fetches) --- *)

let raw_get ~transport target =
  let request =
    Http.Request.make
      ~headers:(Http.Headers.of_list [ ("Host", "sigrelay.local") ])
      Http.Request.GET target
  in
  match transport (Http.Wire.print request) with
  | Error _ -> None
  | Ok raw -> (
    match Http.Response.parse raw with
    | Error _ -> None
    | Ok response -> (
      let body = response.Http.Response.body in
      match
        Option.bind
          (Http.Headers.get response.Http.Response.headers "Content-Length")
          int_of_string_opt
      with
      | Some n when n <> String.length body -> None
      | _ -> Some (raw, response)))

(* --- mirror maintenance: resnapshot, ranged repair, absorb --- *)

let resnapshot t st =
  (* Rebuild the mirror as a fold of the verified set: base at the
     verified head, no history.  Lagging clients get snapshots until the
     mirror regrows entries.  The canonical body length is recorded as
     the wire cost a full resync would have paid, so repair savings are
     directly comparable. *)
  let set = Delta_client.set st.dc in
  t.resnapshot_bytes <- t.resnapshot_bytes + Sigset.canonical_length set;
  st.mirror <- Changelog.of_set ~version:(Delta_client.version st.dc) set;
  t.resnapshots <- t.resnapshots + 1

(* Ranged anti-entropy repair.  Fetch the checkpoint digest from
   [transport] (origin, or a sibling whose own serving guard vouches for
   its mirror), find the newest checkpoint our mirror agrees with,
   re-fetch only the suffix past it, and splice.  The splice is accepted
   only if the rebuilt mirror lands *exactly* on the locally verified
   client state (version and canonical CRC), so a byzantine repair
   source can waste our time but never poison the mirror. *)
let try_repair t st ~transport =
  let tenant = Delta_client.tenant st.dc in
  let horizon = Changelog.horizon st.mirror in
  let dtarget =
    Printf.sprintf "%s?tenant=%s&since=%d&interval=%d"
      Authority.digest_endpoint tenant horizon t.config.digest_interval
  in
  match raw_get ~transport dtarget with
  | None -> false
  | Some (draw, dresp) -> (
    if dresp.Http.Response.status <> 200 then false
    else
      match Changelog.digest_of_body dresp.Http.Response.body with
      | Error _ -> false
      | Ok checkpoints -> (
        let agree =
          List.fold_left
            (fun acc (v, sum) ->
              if Changelog.checksum_at st.mirror v = Some sum then Some v
              else acc)
            None checkpoints
        in
        match agree with
        | None -> false (* divergence below the horizon: resnapshot *)
        | Some split ->
          let splice fetched_raw fetched =
            (* Entries past the verified head are trimmed: the source
               may have advanced beyond what our client has verified,
               and the mirror must never outrun verification. *)
            let held = Delta_client.version st.dc in
            let fetched =
              List.filter
                (fun (e : Changelog.entry) -> e.Changelog.version <= held)
                fetched
            in
            let log = Changelog.truncate st.mirror ~version:(min split held) in
            match Changelog.replay log fetched with
            | Error _ -> false
            | Ok () ->
              if
                Changelog.version log = held
                && Changelog.current_checksum log = st.verified_sum
              then begin
                st.mirror <- log;
                Changelog.compact st.mirror ~keep:t.config.compact_keep;
                t.repairs <- t.repairs + 1;
                t.repair_bytes <-
                  t.repair_bytes + String.length draw
                  + String.length fetched_raw;
                true
              end
              else false
          in
          if split >= Delta_client.version st.dc then
            (* The fork is entirely past the verified head (e.g. bogus
               entries appended to a current mirror): truncation alone
               repairs it, no suffix fetch needed. *)
            splice "" []
          else
            let starget =
              Printf.sprintf "%s?tenant=%s&since=%d"
                Authority.signatures_endpoint tenant split
            in
            match raw_get ~transport starget with
            | None -> false
            | Some (sraw, sresp) -> (
              if
                sresp.Http.Response.status <> 200
                || Http.Headers.get sresp.Http.Response.headers
                     "X-Signature-Mode"
                   <> Some "delta"
              then false
              else
                let lines =
                  let body = sresp.Http.Response.body in
                  if body = "" then [] else String.split_on_char '\n' body
                in
                let rec parse acc = function
                  | [] -> Some (List.rev acc)
                  | line :: rest -> (
                    match Changelog.entry_of_line line with
                    | Ok e -> parse (e :: acc) rest
                    | Error _ -> None)
                in
                match parse [] lines with
                | None -> false
                | Some fetched -> splice sraw fetched)))

(* Repair first, rebuild as the last resort: either way the mirror ends
   exactly on the verified client state. *)
let ensure_consistent t st ~transport =
  if not (consistent_st st) then
    if not (try_repair t st ~transport) then resnapshot t st

let mirror_absorb t st ~transport =
  (match Delta_client.last_update st.dc with
  | Some (`Delta entries) -> (
    (* The suffix was verified consecutive from the client's previous
       version; if the mirror was at that version too, append in step.
       Any mismatch is divergence — localize and repair, or rebuild. *)
    try
      List.iter
        (fun (e : Changelog.entry) ->
          if e.Changelog.version = Changelog.version st.mirror + 1 then
            ignore (Changelog.append st.mirror e.Changelog.change)
          else raise Exit)
        entries
    with Exit -> ())
  | Some `Snapshot | None -> ());
  ensure_consistent t st ~transport;
  Changelog.compact st.mirror ~keep:t.config.compact_keep

let staleness_gauge t tenant st =
  if not (Obs.is_noop t.obs) then begin
    Obs.Gauge.set
      (Obs.gauge t.obs
         ~help:"Consecutive failed upstream syncs, per relay and tenant."
         ~labels:[ ("relay", t.id); ("tenant", tenant) ]
         "leakdetect_relay_staleness")
      (Delta_client.staleness st.dc).Signature_client.failed_syncs;
    Obs.Gauge.set
      (Obs.gauge t.obs
         ~help:"Ticks since the last verified sync, per relay and tenant."
         ~labels:[ ("relay", t.id); ("tenant", tenant) ]
         "leakdetect_relay_version_age")
      (max 0 (t.clock - st.last_sync_tick));
    Obs.Gauge.set
      (Obs.gauge t.obs
         ~help:"Verified signature version held, per relay and tenant."
         ~labels:[ ("relay", t.id); ("tenant", tenant) ]
         "leakdetect_relay_version")
      (Delta_client.version st.dc)
  end

let note_verified t st =
  st.synced <- true;
  st.last_sync_tick <- t.clock;
  st.verified_sum <- Delta_client.checksum st.dc

let sync_tenant t ~tenant ~transport =
  let st = state t ~tenant in
  t.sync_rounds <- t.sync_rounds + 1;
  let report = Delta_client.sync st.dc ~transport in
  (match report.Signature_client.outcome with
  | Signature_client.Updated _ ->
    note_verified t st;
    mirror_absorb t st ~transport
  | Signature_client.Unchanged ->
    (* A verified 304: current state re-confirmed at our version.  The
       mirror may still have diverged underneath (fork injection, bit
       rot) — heal it now rather than waiting for the next delta. *)
    note_verified t st;
    ensure_consistent t st ~transport
  | Signature_client.Failed _ -> t.sync_failures <- t.sync_failures + 1);
  staleness_gauge t tenant st;
  report

(* --- gossip --- *)

(* One gossip round: for each tenant, probe every sibling with a
   head-only digest, order the strictly-fresher ones by (version desc,
   proximity, id) and catch up from the first that passes the client's
   full verification ladder.  The origin stays the only write authority:
   gossip only moves *verified* suffixes sideways, and any full=1
   escalation inside the catch-up sync is pinned to the origin. *)
let gossip t ~upstream =
  t.gossip_rounds <- t.gossip_rounds + 1;
  List.iter
    (fun tenant ->
      let st = state t ~tenant in
      let held = Delta_client.version st.dc in
      let probe (pid, ptransport) =
        let target =
          Printf.sprintf "%s?tenant=%s&since=%d&interval=1"
            Authority.digest_endpoint tenant max_int
        in
        match raw_get ~transport:ptransport target with
        | Some (_, resp) when resp.Http.Response.status = 200 -> (
          match Changelog.digest_of_body resp.Http.Response.body with
          | Ok ((_ :: _) as checkpoints) ->
            let v, _ = List.nth checkpoints (List.length checkpoints - 1) in
            if v > held then Some (v, pid, ptransport) else None
          | Ok [] | Error _ -> None)
        | _ -> None
      in
      let rank pid =
        match t.shard with
        | Some map -> (
          match Shard_map.distance map ~node:t.id ~origin:pid with
          | Some d -> d
          | None -> max_int)
        | None -> max_int
      in
      let candidates =
        List.sort
          (fun (v1, p1, _) (v2, p2, _) ->
            compare (-v1, rank p1, p1) (-v2, rank p2, p2))
          (List.filter_map probe t.peers)
      in
      let rec catch_up = function
        | [] -> ()
        | (_, _, ptransport) :: rest -> (
          let report =
            Delta_client.sync ~full_transport:(upstream ~tenant) st.dc
              ~transport:ptransport
          in
          match report.Signature_client.outcome with
          | Signature_client.Updated _ ->
            note_verified t st;
            mirror_absorb t st ~transport:ptransport;
            t.gossip_catchups <- t.gossip_catchups + 1;
            staleness_gauge t tenant st
          | Signature_client.Unchanged | Signature_client.Failed _ ->
            catch_up rest)
      in
      catch_up candidates)
    (tenants t)

(* --- adversarial harness hook --- *)

let inject_fork t ~tenant =
  let st = state t ~tenant in
  (* Re-point recent history: drop the newest mirror entry, then append
     two bogus ones.  The mirror ends one version *ahead* of the
     verified state with a diverged tail, while the prefix up to
     head - 1 still agrees — exactly the shape ranged repair exists
     for.  The serving guard trips on the very next request. *)
  st.mirror <-
    Changelog.truncate st.mirror ~version:(Changelog.version st.mirror - 1);
  let bogus i =
    Signature.make
      ~id:(Changelog.next_id st.mirror + 9973 + i)
      ~mode:Signature.Conjunction ~cluster_size:2
      [ Printf.sprintf "forged=entry%d" i ]
  in
  ignore (Changelog.append st.mirror (Changelog.Add (bogus 0)));
  ignore (Changelog.append st.mirror (Changelog.Add (bogus 1)))

(* --- serving --- *)

type counters = {
  sync_rounds : int;
  sync_failures : int;
  resnapshots : int;
  resnapshot_bytes : int;
  repairs : int;
  repair_bytes : int;
  gossip_rounds : int;
  gossip_catchups : int;
  served_delta : int;
  served_snapshot : int;
  served_not_modified : int;
  served_unready : int;
  served_inconsistent : int;
  served_digest : int;
  forwarded : int;
  forward_failures : int;
}

let counters (t : t) : counters =
  {
    sync_rounds = t.sync_rounds;
    sync_failures = t.sync_failures;
    resnapshots = t.resnapshots;
    resnapshot_bytes = t.resnapshot_bytes;
    repairs = t.repairs;
    repair_bytes = t.repair_bytes;
    gossip_rounds = t.gossip_rounds;
    gossip_catchups = t.gossip_catchups;
    served_delta = t.served_delta;
    served_snapshot = t.served_snapshot;
    served_not_modified = t.served_not_modified;
    served_unready = t.served_unready;
    served_inconsistent = t.served_inconsistent;
    served_digest = t.served_digest;
    forwarded = t.forwarded;
    forward_failures = t.forward_failures;
  }

let served (t : t) =
  t.served_delta + t.served_snapshot + t.served_not_modified

let relay_headers t st =
  [ ("X-Relay-Id", t.id);
    ( "X-Relay-Staleness",
      string_of_int
        (Delta_client.staleness st.dc).Signature_client.failed_syncs );
    ( "X-Relay-Version-Age",
      string_of_int (max 0 (t.clock - st.last_sync_tick)) ) ]

let version_headers st =
  [ ("X-Signature-Version", string_of_int (Changelog.version st.mirror));
    ( "X-Signature-Checksum",
      Crc32.to_hex (Changelog.wire_checksum st.mirror) ) ]

let unready (t : t) st ~counter =
  (match counter with
  | `Unready -> t.served_unready <- t.served_unready + 1
  | `Inconsistent -> t.served_inconsistent <- t.served_inconsistent + 1);
  Http.Response.make
    ~headers:(Http.Headers.of_list (("Retry-After", "1") :: relay_headers t st))
    503

let handle_signatures t (request : Http.Request.t) params =
  if request.Http.Request.meth <> Http.Request.GET then
    Http.Response.make ~headers:(Http.Headers.of_list [ ("Allow", "GET") ]) 405
  else
    match List.assoc_opt "tenant" params with
    | Some tenant when Authority.id_ok tenant -> (
      match Hashtbl.find_opt t.tenant_tbl tenant with
      | None -> Http.Response.make 404
      | Some st -> (
        let since =
          match List.assoc_opt "since" params with
          | Some v -> int_of_string_opt v
          | None -> Some 0
        in
        let full = List.assoc_opt "full" params = Some "1" in
        match since with
        | None -> Http.Response.make 400
        | Some since when since < 0 -> Http.Response.make 400
        | Some since ->
          if not st.synced then
            (* Nothing verified yet: refuse rather than serve an empty
               set a synced client would refuse as a regression. *)
            unready t st ~counter:`Unready
          else if not (consistent_st st) then
            (* The mirror diverged from the verified state (fork, bit
               rot): never serve it — repair will converge it. *)
            unready t st ~counter:`Inconsistent
          else
            let head = Changelog.version st.mirror in
            let headers extra =
              Http.Headers.of_list
                (version_headers st @ relay_headers t st @ extra)
            in
            if since >= head && not full then begin
              t.served_not_modified <- t.served_not_modified + 1;
              Http.Response.make ~headers:(headers []) 304
            end
            else
              let snapshot () =
                t.served_snapshot <- t.served_snapshot + 1;
                let body =
                  String.concat "\n"
                    (List.map Signature_io.to_line
                       (Changelog.current st.mirror))
                in
                Http.Response.make
                  ~headers:
                    (headers
                       [ ("X-Signature-Mode", "snapshot");
                         ("Content-Type", "text/tab-separated-values") ])
                  ~body 200
              in
              if full then snapshot ()
              else
                match Changelog.since st.mirror since with
                | None -> snapshot ()
                | Some entries ->
                  t.served_delta <- t.served_delta + 1;
                  let body =
                    String.concat "\n"
                      (List.map Changelog.entry_to_line entries)
                  in
                  Http.Response.make
                    ~headers:
                      (headers
                         [ ("X-Signature-Mode", "delta");
                           ("X-Signature-Since", string_of_int since);
                           ("Content-Type", "text/tab-separated-values") ])
                    ~body 200))
    | _ -> Http.Response.make 400

(* Sibling-facing: the ranged digest of the mirror, with the same
   refusal rules as /signatures — an unsynced or inconsistent mirror
   must not advertise a head other relays could try to catch up to. *)
let handle_digest t (request : Http.Request.t) params =
  if request.Http.Request.meth <> Http.Request.GET then
    Http.Response.make ~headers:(Http.Headers.of_list [ ("Allow", "GET") ]) 405
  else
    match List.assoc_opt "tenant" params with
    | Some tenant when Authority.id_ok tenant -> (
      match Hashtbl.find_opt t.tenant_tbl tenant with
      | None -> Http.Response.make 404
      | Some st -> (
        let since =
          match List.assoc_opt "since" params with
          | Some v -> int_of_string_opt v
          | None -> Some 0
        in
        let interval =
          match List.assoc_opt "interval" params with
          | Some v -> int_of_string_opt v
          | None -> Some t.config.digest_interval
        in
        match (since, interval) with
        | Some since, Some interval when since >= 0 && interval >= 1 ->
          if not st.synced then unready t st ~counter:`Unready
          else if not (consistent_st st) then
            unready t st ~counter:`Inconsistent
          else begin
            t.served_digest <- t.served_digest + 1;
            let body =
              Changelog.digest_to_body
                (Changelog.digest st.mirror ~since ~interval)
            in
            Http.Response.make
              ~headers:
                (Http.Headers.of_list
                   (version_headers st @ relay_headers t st
                   @ [ ("X-Signature-Mode", "digest");
                       ("Content-Type", "text/tab-separated-values") ]))
              ~body 200
          end
        | _ -> Http.Response.make 400))
    | _ -> Http.Response.make 400

let handle_candidates t (request : Http.Request.t) =
  if request.Http.Request.meth <> Http.Request.POST then
    Http.Response.make ~headers:(Http.Headers.of_list [ ("Allow", "POST") ]) 405
  else
    match t.upstream with
    | None ->
      t.forward_failures <- t.forward_failures + 1;
      Http.Response.make
        ~headers:(Http.Headers.of_list [ ("Retry-After", "1") ])
        503
    | Some upstream -> (
      match upstream (Http.Wire.print request) with
      | Error _ ->
        t.forward_failures <- t.forward_failures + 1;
        Http.Response.make
          ~headers:(Http.Headers.of_list [ ("Retry-After", "1") ])
          503
      | Ok raw -> (
        match Http.Response.parse raw with
        | Error _ ->
          t.forward_failures <- t.forward_failures + 1;
          Http.Response.make
            ~headers:(Http.Headers.of_list [ ("Retry-After", "1") ])
            503
        | Ok response ->
          t.forwarded <- t.forwarded + 1;
          response))

(* Scrape-time export: the counter totals as gauges plus the per-tenant
   freshness gauges, refreshed so a scrape between events still sees
   current values. *)
let refresh_metrics t =
  if not (Obs.is_noop t.obs) then begin
    let gauge name help value =
      Obs.Gauge.set
        (Obs.gauge t.obs ~help ~labels:[ ("relay", t.id) ] name)
        value
    in
    gauge "leakdetect_relay_sync_rounds" "Upstream sync rounds attempted."
      t.sync_rounds;
    gauge "leakdetect_relay_sync_failures"
      "Upstream sync rounds that exhausted the retry budget."
      t.sync_failures;
    gauge "leakdetect_relay_resnapshots" "Full mirror rebuilds."
      t.resnapshots;
    gauge "leakdetect_relay_resnapshot_bytes"
      "Canonical snapshot bytes paid by mirror rebuilds." t.resnapshot_bytes;
    gauge "leakdetect_relay_repairs" "Ranged anti-entropy mirror repairs."
      t.repairs;
    gauge "leakdetect_relay_repair_bytes"
      "Wire bytes paid by ranged repairs (digest + suffix)." t.repair_bytes;
    gauge "leakdetect_relay_gossip_rounds" "Sibling gossip rounds run."
      t.gossip_rounds;
    gauge "leakdetect_relay_gossip_catchups"
      "Tenant catch-ups pulled from a sibling during gossip."
      t.gossip_catchups;
    gauge "leakdetect_relay_served_delta" "Delta responses served."
      t.served_delta;
    gauge "leakdetect_relay_served_snapshot" "Snapshot responses served."
      t.served_snapshot;
    gauge "leakdetect_relay_served_not_modified" "304 responses served."
      t.served_not_modified;
    gauge "leakdetect_relay_served_unready"
      "503s before the first verified sync." t.served_unready;
    gauge "leakdetect_relay_served_inconsistent"
      "503s while the mirror diverged from the verified state."
      t.served_inconsistent;
    gauge "leakdetect_relay_served_digest" "Digest responses served."
      t.served_digest;
    gauge "leakdetect_relay_forwarded" "Candidate POSTs relayed upstream."
      t.forwarded;
    gauge "leakdetect_relay_forward_failures" "Candidate forwards that failed."
      t.forward_failures;
    Hashtbl.iter (fun tenant st -> staleness_gauge t tenant st) t.tenant_tbl
  end

let handle_metrics t (request : Http.Request.t) =
  if request.Http.Request.meth <> Http.Request.GET then
    Http.Response.make ~headers:(Http.Headers.of_list [ ("Allow", "GET") ]) 405
  else begin
    refresh_metrics t;
    Http.Response.make
      ~headers:
        (Http.Headers.of_list
           [ ("Content-Type", "text/plain; version=0.0.4; charset=utf-8") ])
      ~body:(Obs.to_prometheus t.obs) 200
  end

let handle t (request : Http.Request.t) =
  let path, query =
    Leakdetect_net.Url.split_path_query request.Http.Request.target
  in
  let params =
    Option.value ~default:[] (Leakdetect_net.Url.decode_query query)
  in
  if path = Authority.signatures_endpoint then
    handle_signatures t request params
  else if path = Authority.digest_endpoint then handle_digest t request params
  else if path = Authority.metrics_endpoint then handle_metrics t request
  else if path = Authority.candidates_endpoint then handle_candidates t request
  else Http.Response.make 404

let wire_transport t raw =
  match Http.Wire.parse raw with
  | Error e -> Error ("request corrupt: " ^ Http.Wire.error_to_string e)
  | Ok request -> Ok (Http.Response.print (handle t request))
