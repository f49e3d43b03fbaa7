module Http = Leakdetect_http
module Crc32 = Leakdetect_util.Crc32
module Signature = Leakdetect_core.Signature
module Signature_client = Leakdetect_monitor.Signature_client
module Obs = Leakdetect_obs.Obs

type config = { compact_keep : int; digest_interval : int }

let default_config =
  { compact_keep = 64; digest_interval = Protocol.default_digest_interval }

type tenant_state = {
  dc : Delta_client.t;
  mutable mirror : Changelog.t;
  mutable synced : bool;
  mutable last_sync_tick : int;
  (* Canonical-set CRC of the verified client state, cached after every
     successful sync so the serve-time consistency guard is O(1). *)
  mutable verified_sum : int;
  (* The staleness, version-age and version gauges, interned together on
     first use and then kept: [Obs] answers every intern of one series
     with the same cell, so later syncs skip the registry's lock and
     lookup. *)
  mutable gauges : (Obs.Gauge.t * Obs.Gauge.t * Obs.Gauge.t) option;
}

type counters = {
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

type t = {
  id : string;
  config : config;
  obs : Obs.t;
  tenant_tbl : (string, tenant_state) Hashtbl.t;
  mutable upstream : (string -> (string, string) result) option;
  mutable peers : (string * (string -> (string, string) result)) list;
  mutable shard : Shard_map.t option;
  mutable clock : int;
  k : counters;
  (* The counter gauges, interned on the first scrape and then kept (see
     [refresh_metrics]). *)
  mutable counter_gauges : (Obs.Gauge.t * (counters -> int)) list option;
}

let create ?(obs = Obs.noop) ?(config = default_config) ?client_config
    ?(seed = 0) ~id ~tenants () =
  if not (Protocol.id_ok id) then
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
      k =
        { sync_rounds = 0; sync_failures = 0; resnapshots = 0;
          resnapshot_bytes = 0; repairs = 0; repair_bytes = 0;
          gossip_rounds = 0; gossip_catchups = 0; served_delta = 0;
          served_snapshot = 0; served_not_modified = 0; served_unready = 0;
          served_inconsistent = 0; served_digest = 0; forwarded = 0;
          forward_failures = 0 };
      counter_gauges = None;
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
          gauges = None;
        })
    tenants;
  t

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

let set_upstream t transport = t.upstream <- Some transport
let set_peers t peers = t.peers <- List.filter (fun (pid, _) -> pid <> t.id) peers
let set_shard t map = t.shard <- Some map
let set_clock t now = t.clock <- now

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

(* --- mirror maintenance: resnapshot, ranged repair, absorb --- *)

let resnapshot t st =
  (* Rebuild the mirror as a fold of the verified set: base at the
     verified head, no history.  Lagging clients get snapshots until the
     mirror regrows entries.  The canonical body length is recorded as
     the wire cost a full resync would have paid, so repair savings are
     directly comparable. *)
  let set = Delta_client.set st.dc in
  t.k.resnapshot_bytes <- t.k.resnapshot_bytes + Sigset.canonical_length set;
  st.mirror <- Changelog.of_set ~version:(Delta_client.version st.dc) set;
  t.k.resnapshots <- t.k.resnapshots + 1

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
    Protocol.digest_target ~tenant ~since:horizon
      ~interval:t.config.digest_interval
  in
  match Protocol.get ~host:`Relay transport dtarget with
  | Error _ -> false
  | Ok (draw, dresp) -> (
    if dresp.Http.Response.status <> 200 then false
    else
      match Protocol.digest_of_body dresp.Http.Response.body with
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
                t.k.repairs <- t.k.repairs + 1;
                t.k.repair_bytes <-
                  t.k.repair_bytes + String.length draw
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
              Protocol.signatures_target ~tenant ~since:split ~full:false
            in
            match Protocol.get ~host:`Relay transport starget with
            | Error _ -> false
            | Ok (sraw, sresp) -> (
              if
                sresp.Http.Response.status <> 200
                || Protocol.mode sresp <> Some `Delta
              then false
              else
                match
                  Protocol.entries_of_lines
                    (Protocol.lines sresp.Http.Response.body)
                with
                | Error _ -> false
                | Ok fetched -> splice sraw fetched)))

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
    let staleness, age, version =
      match st.gauges with
      | Some g -> g
      | None ->
        let gauge name help =
          Obs.gauge t.obs ~help ~labels:[ ("relay", t.id); ("tenant", tenant) ] name
        in
        let g =
          ( gauge "leakdetect_relay_staleness"
              "Consecutive failed upstream syncs, per relay and tenant.",
            gauge "leakdetect_relay_version_age"
              "Ticks since the last verified sync, per relay and tenant.",
            gauge "leakdetect_relay_version"
              "Verified signature version held, per relay and tenant." )
        in
        st.gauges <- Some g;
        g
    in
    Obs.Gauge.set staleness (Delta_client.staleness st.dc).Signature_client.failed_syncs;
    Obs.Gauge.set age (max 0 (t.clock - st.last_sync_tick));
    Obs.Gauge.set version (Delta_client.version st.dc)
  end

let note_verified t st =
  st.synced <- true;
  st.last_sync_tick <- t.clock;
  st.verified_sum <- Delta_client.checksum st.dc

let sync_tenant t ~tenant ~transport =
  let st = state t ~tenant in
  t.k.sync_rounds <- t.k.sync_rounds + 1;
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
  | Signature_client.Failed _ -> t.k.sync_failures <- t.k.sync_failures + 1);
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
  t.k.gossip_rounds <- t.k.gossip_rounds + 1;
  List.iter
    (fun tenant ->
      let st = state t ~tenant in
      let held = Delta_client.version st.dc in
      let probe (pid, ptransport) =
        let target = Protocol.digest_target ~tenant ~since:max_int ~interval:1 in
        match Protocol.get ~host:`Relay ptransport target with
        | Ok (_, resp) when resp.Http.Response.status = 200 -> (
          match Protocol.digest_of_body resp.Http.Response.body with
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
            t.k.gossip_catchups <- t.k.gossip_catchups + 1;
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

let counters t = t.k

let relay_headers t st =
  Protocol.relay_headers ~id:t.id
    ~staleness:(Delta_client.staleness st.dc).Signature_client.failed_syncs
    ~version_age:(max 0 (t.clock - st.last_sync_tick))

let unready t st ~counter =
  (match counter with
  | `Unready -> t.k.served_unready <- t.k.served_unready + 1
  | `Inconsistent -> t.k.served_inconsistent <- t.k.served_inconsistent + 1);
  Protocol.retry_later (relay_headers t st)

let forward t (request : Http.Request.t) =
  let failed () =
    t.k.forward_failures <- t.k.forward_failures + 1;
    Protocol.retry_later []
  in
  match t.upstream with
  | None -> failed ()
  | Some upstream -> (
    match upstream (Http.Wire.print request) with
    | Error _ -> failed ()
    | Ok raw -> (
      match Protocol.parse_response raw with
      | Error _ -> failed ()
      | Ok response ->
        t.k.forwarded <- t.k.forwarded + 1;
        response))

(* The counter totals a scrape exports as gauges: name, help, reader. *)
let counter_gauge_specs =
  [
    ("leakdetect_relay_sync_rounds", "Upstream sync rounds attempted.", fun k -> k.sync_rounds);
    ( "leakdetect_relay_sync_failures",
      "Upstream sync rounds that exhausted the retry budget.",
      fun k -> k.sync_failures );
    ("leakdetect_relay_resnapshots", "Full mirror rebuilds.", fun k -> k.resnapshots);
    ( "leakdetect_relay_resnapshot_bytes",
      "Canonical snapshot bytes paid by mirror rebuilds.",
      fun k -> k.resnapshot_bytes );
    ("leakdetect_relay_repairs", "Ranged anti-entropy mirror repairs.", fun k -> k.repairs);
    ( "leakdetect_relay_repair_bytes",
      "Wire bytes paid by ranged repairs (digest + suffix).",
      fun k -> k.repair_bytes );
    ("leakdetect_relay_gossip_rounds", "Sibling gossip rounds run.", fun k -> k.gossip_rounds);
    ( "leakdetect_relay_gossip_catchups",
      "Tenant catch-ups pulled from a sibling during gossip.",
      fun k -> k.gossip_catchups );
    ("leakdetect_relay_served_delta", "Delta responses served.", fun k -> k.served_delta);
    ("leakdetect_relay_served_snapshot", "Snapshot responses served.", fun k -> k.served_snapshot);
    ( "leakdetect_relay_served_not_modified",
      "304 responses served.",
      fun k -> k.served_not_modified );
    ( "leakdetect_relay_served_unready",
      "503s before the first verified sync.",
      fun k -> k.served_unready );
    ( "leakdetect_relay_served_inconsistent",
      "503s while the mirror diverged from the verified state.",
      fun k -> k.served_inconsistent );
    ("leakdetect_relay_served_digest", "Digest responses served.", fun k -> k.served_digest);
    ("leakdetect_relay_forwarded", "Candidate POSTs relayed upstream.", fun k -> k.forwarded);
    ( "leakdetect_relay_forward_failures",
      "Candidate forwards that failed.",
      fun k -> k.forward_failures );
  ]

(* Scrape-time export: the counter totals as gauges plus the per-tenant
   freshness gauges, refreshed so a scrape between events still sees
   current values.  The counter gauges are interned on the first scrape,
   not at [create], so a registry shows no relay series before one is
   used; later scrapes reuse the cells. *)
let refresh_metrics t =
  if not (Obs.is_noop t.obs) then begin
    let gauges =
      match t.counter_gauges with
      | Some g -> g
      | None ->
        let g =
          List.map
            (fun (name, help, read) ->
              (Obs.gauge t.obs ~help ~labels:[ ("relay", t.id) ] name, read))
            counter_gauge_specs
        in
        t.counter_gauges <- Some g;
        g
    in
    List.iter (fun (gauge, read) -> Obs.Gauge.set gauge (read t.k)) gauges;
    Hashtbl.iter (fun tenant st -> staleness_gauge t tenant st) t.tenant_tbl
  end

(* The mirror is served with the origin's semantics, behind two gates:
   nothing before the first verified sync (an empty set would read as a
   rollback), and nothing while the mirror has diverged from the verified
   state (fork, bit rot) — repair will converge it.  A [/digest] is gated
   the same way, so an unready mirror never advertises a head siblings
   could try to catch up to. *)
let server t =
  {
    Protocol.resolve =
      (fun tenant ->
        match Hashtbl.find_opt t.tenant_tbl tenant with
        | Some st -> Ok st
        | None -> Error (Http.Response.make 404));
    gate =
      (fun st ->
        if not st.synced then Error (unready t st ~counter:`Unready)
        else if not (consistent_st st) then
          Error (unready t st ~counter:`Inconsistent)
        else Ok st.mirror);
    headers = relay_headers t;
    served =
      (function
      | `Not_modified -> t.k.served_not_modified <- t.k.served_not_modified + 1
      | `Delta -> t.k.served_delta <- t.k.served_delta + 1
      | `Snapshot -> t.k.served_snapshot <- t.k.served_snapshot + 1
      | `Digest -> t.k.served_digest <- t.k.served_digest + 1);
    digest_interval = t.config.digest_interval;
    candidates = (fun request _ -> forward t request);
    metrics =
      (fun () ->
        refresh_metrics t;
        Obs.to_prometheus t.obs);
  }

let handle t request = Protocol.handle (server t) request
let wire_transport t = Protocol.wire_transport (handle t)
