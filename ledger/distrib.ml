(* The distribution path: the authority publishes a new signature set,
   which goes through the journal (WAL) and the tenant's changelog, a
   relay mirrors it by verified delta sync, and handsets fetch it through
   the relay with origin escalation.

   One episode starts a journaled authority in a fresh directory, one
   relay and a fleet of delta clients on one tenant, each with a live
   metrics registry as a server exposing /metrics has.  Version v
   publishes signatures 1..v, so the history grows by one signature per
   version, then the relay syncs and the next few clients in round-robin
   order sync through it.  One operation is one such round, from the
   publish call until the last of those clients holds version v.  Twice
   per episode the relay's mirror is forked after a round and must be
   healed by ranged repair on the next one.  The episode ends by closing
   the authority and recovering it from its journal. *)

module Json = Leakdetect_util.Json
module Prng = Leakdetect_util.Prng
module Signature = Leakdetect_core.Signature
module Signature_io = Leakdetect_core.Signature_io
module Authority = Leakdetect_distrib.Authority
module Relay = Leakdetect_distrib.Relay
module Delta_client = Leakdetect_distrib.Delta_client
module Changelog = Leakdetect_distrib.Changelog
module Signature_client = Leakdetect_monitor.Signature_client
module Obs = Leakdetect_obs.Obs

type size = { versions : int; clients : int; per_round : int }

let tenant = "t0"

(* The signatures a tenant accumulates, one per version. *)
let signature_pool ~seed versions =
  let rng = Prng.create seed in
  Array.init versions (fun i ->
      Signature.make ~id:(i + 1) ~mode:Signature.Conjunction
        ~cluster_size:(2 + Prng.int rng 30)
        [ "leak"; Printf.sprintf "tok%08x" (Prng.bits30 rng);
          Printf.sprintf "imei=35%06d%07d" (Prng.int rng 1_000_000) (Prng.int rng 10_000_000) ])

type state = {
  dir : string;
  auth : Authority.t;
  relay : Relay.t;
  clients : Delta_client.t array;
}

let open_authority ~obs dir =
  match Authority.open_ ~obs ~dir () with Ok (a, _) -> a | Error e -> failwith e

let fresh ~(size : size) ~seed ~obs dir =
  Sys.mkdir dir 0o700;
  { dir; auth = open_authority ~obs:(obs ()) dir;
    relay = Relay.create ~obs:(obs ()) ~seed ~id:"relay-0" ~tenants:[ tenant ] ();
    clients =
      Array.init size.clients (fun i -> Delta_client.create ~obs:(obs ()) ~seed:(seed + i) ~tenant ()) }

type episode = {
  syncs : int;
  failed : int;
  sync_bytes : int;
  wal_bytes : int;
  checksum : int;  (** The authority's final checksum; recovery must reproduce it. *)
  entries : Changelog.entry list;
  relay : Relay.counters;
  snapshot_bytes : int;  (** What resnapshotting the mirror would have cost at each fork. *)
  deltas : int;
  snapshots : int;
}

(* Set-up takes about a millisecond, mostly file creation, and the first
   few of a process are several times slower than the rest; a median over
   many keeps them from moving it. *)
let setup_reps = 32

let fork_points size = [ size.versions / 3; 2 * size.versions / 3 ]

(* [trace] is the traced run's registry, or noop; round latencies go to
   [rounds], if given. *)
let episode ~(size : size) ~pool ~obs ~trace ~speed ~rounds st =
  let span name f = Obs.with_span trace name f in
  let bytes = ref 0 in
  let counting transport raw =
    bytes := !bytes + String.length raw;
    let r = transport raw in
    (match r with Ok response -> bytes := !bytes + String.length response | Error _ -> ());
    r
  in
  let origin = Authority.wire_transport st.auth in
  let relays = [ counting (Relay.wire_transport st.relay) ] in
  let client_origin = counting origin in
  let failed = ref 0 and syncs = ref 0 and next = ref 0 and snapshot_bytes = ref 0 in
  for v = 1 to size.versions do
    let desired = Array.to_list (Array.sub pool 0 v) in
    let timed f = match rounds with Some ops -> Speed.time speed ops f | None -> f () in
    let synced =
      timed @@ fun () ->
      span "op" (fun () ->
          let published =
            span "distrib.authority.publish" (fun () -> Authority.publish st.auth ~tenant desired)
          in
          ignore
            (span "distrib.relay.sync" (fun () ->
                 Relay.sync_tenant st.relay ~tenant ~transport:origin));
          let relay_ok = published = v && Relay.version st.relay ~tenant = v in
          List.init size.per_round (fun _ ->
              let c = st.clients.(!next mod size.clients) in
              incr next;
              let report =
                span "distrib.delta_client.sync" (fun () ->
                    Delta_client.sync_via c ~relays ~origin:client_origin)
              in
              (relay_ok, c, report)))
    in
    List.iter
      (fun (relay_ok, c, report) ->
        incr syncs;
        let installed =
          match report.Signature_client.outcome with
          | Signature_client.Updated _ | Signature_client.Unchanged -> true
          | Signature_client.Failed _ -> false
        in
        let agrees =
          Authority.checksum_at st.auth ~tenant ~version:(Delta_client.version c)
          = Some (Delta_client.checksum c)
        in
        if not (relay_ok && installed && agrees && Delta_client.version c = v) then incr failed)
      synced;
    if List.mem v (fork_points size) then begin
      snapshot_bytes :=
        !snapshot_bytes
        + String.length
            (String.concat "\n"
               (List.map Signature_io.to_line (Authority.signatures st.auth ~tenant)));
      Relay.inject_fork st.relay ~tenant
    end
  done;
  let version = Authority.version st.auth ~tenant and checksum = Authority.checksum st.auth ~tenant in
  let wal_bytes = Authority.wal_size st.auth in
  Authority.close st.auth;
  let recovered =
    span "distrib.authority.recovery" (fun () -> open_authority ~obs:(obs ()) st.dir)
  in
  if Authority.version recovered ~tenant <> version || Authority.checksum recovered ~tenant <> checksum
  then begin
    Printf.printf "recovery landed on a different version or checksum\n%!";
    incr failed
  end;
  let entries = Authority.changelog_entries recovered ~tenant in
  Authority.close recovered;
  let relay = Relay.counters st.relay in
  let healed =
    relay.Relay.repairs = List.length (fork_points size)
    && relay.Relay.resnapshots = 0
    && relay.Relay.repair_bytes < !snapshot_bytes
  in
  if not healed then begin
    Printf.printf "forks not healed by ranged repair: %d repairs, %d resnapshots, %d B vs %d B\n%!"
      relay.Relay.repairs relay.Relay.resnapshots relay.Relay.repair_bytes !snapshot_bytes;
    incr failed
  end;
  let sum f = Array.fold_left (fun acc c -> acc + f (Delta_client.counters c)) 0 st.clients in
  { syncs = !syncs; failed = !failed; sync_bytes = !bytes; wal_bytes; checksum;
    entries; relay; snapshot_bytes = !snapshot_bytes;
    deltas = sum (fun k -> k.Delta_client.delta_updates);
    snapshots = sum (fun k -> k.Delta_client.snapshot_updates) }

(* Reference, outside the stage sum: a standalone changelog fed the same
   changes.  Rates are over the later half of the history, where the
   per-version cost is highest. *)
let changelog_rates ~(size : size) entries =
  let log = Changelog.create () in
  let half = List.length entries / 2 in
  let late = ref 0. in
  List.iteri
    (fun i (e : Changelog.entry) ->
      if i < half then ignore (Changelog.append log e.Changelog.change)
      else late := !late +. snd (Harness.time (fun () -> Changelog.append log e.Changelog.change)))
    entries;
  let head = Changelog.version log in
  let lag = size.clients / size.per_round in
  let versions = List.init (head - half) (fun i -> half + i + 1) in
  let (), since_s =
    Harness.time (fun () -> List.iter (fun v -> ignore (Changelog.since log (max 0 (v - lag)))) versions)
  in
  let (), checksum_s =
    Harness.time (fun () -> List.iter (fun v -> ignore (Changelog.checksum_at log v)) versions)
  in
  let n = float_of_int (List.length versions) in
  (n /. !late, n /. since_s, n /. checksum_s)

(* Total publish time over the first and over the last tenth of the
   versions of the traced episode whose spans [trace] holds. *)
let publish_tenths ~(size : size) trace =
  let publish root =
    List.find_map
      (fun c ->
        if Obs.Span.name c = "distrib.authority.publish" then Some (Obs.Span.duration_ns c) else None)
      (Obs.Span.children root)
  in
  let d =
    List.filter_map
      (fun root -> if Obs.Span.name root = "op" then publish root else None)
      (Obs.root_spans trace)
  in
  let tenth = max 1 (size.versions / 10) in
  let sum pred = List.fold_left ( + ) 0 (List.filteri (fun v _ -> pred v) d) in
  (sum (fun v -> v < tenth), sum (fun v -> v >= size.versions - tenth))

let run ~(size : size) (p : Outcome.params) =
  let seed = p.Outcome.seed and speed = p.Outcome.speed in
  let active () = Obs.create () and noop () = Obs.noop in
  Harness.with_temp_dir @@ fun root ->
  let dirs = ref 0 in
  let next_dir () =
    incr dirs;
    Filename.concat root (string_of_int !dirs)
  in
  let trace = if p.Outcome.traced then Obs.create () else Obs.noop in
  let tr = Outcome.trace () and early_ns = ref 0 and late_ns = ref 0 in
  let rounds = Speed.ops () and noop_rounds = Speed.ops () in
  let attempted = ref 0 and failed = ref 0 in
  let last = ref None and last_traced = ref None in
  let checksums = ref [] and setups = Speed.ops () in
  (* Set-up is timed per episode, [setup_reps] times: the signature
     history, a fresh journal directory, authority, relay and fleet; all
     but the last are closed and removed, untimed. *)
  Outcome.repeat p ~every:(if p.Outcome.traced then 3 else 1) ~min_ops:1 (fun i ->
      let kind = if p.Outcome.traced then i mod 3 else 0 in
      let obs = if kind = 2 then noop else active in
      let pool, st =
        List.fold_left
          (fun prev _ ->
            Option.iter
              (fun (_, st) ->
                Authority.close st.auth;
                Harness.rm_rf st.dir)
              prev;
            Some
              (Speed.time speed setups (fun () ->
                   (signature_pool ~seed size.versions, fresh ~size ~seed ~obs (next_dir ())))))
          None (List.init setup_reps Fun.id)
        |> Option.get
      in
      let e =
        episode ~size ~pool ~obs ~speed st
          ~trace:(if kind = 1 then trace else Obs.noop)
          ~rounds:(match kind with 0 -> Some rounds | 2 -> Some noop_rounds | _ -> None)
      in
      if kind = 1 then begin
        let early, late = publish_tenths ~size trace in
        early_ns := !early_ns + early;
        late_ns := !late_ns + late;
        Outcome.absorb tr trace
      end;
      Harness.rm_rf st.dir;
      attempted := !attempted + size.versions + e.syncs;
      failed := !failed + e.failed;
      checksums := e.checksum :: !checksums;
      if kind = 1 then last_traced := Some e;
      last := Some e);
  let heap_mb = Outcome.heap_peak_mb () in
  let e = Option.get !last in
  let digest = e.checksum in
  let stable = List.for_all (( = ) digest) !checksums in
  Printf.printf
    "%d episodes of %d versions, %d clients (%d per round): %d syncs, %d B per sync, %d repairs (%d B vs %d B resnapshot), wal %d B, %d failed\n%!"
    (List.length !checksums) size.versions size.clients size.per_round e.syncs
    (e.sync_bytes / max 1 e.syncs) e.relay.Relay.repairs e.relay.Relay.repair_bytes
    e.snapshot_bytes e.wal_bytes !failed;
  let metrics =
    match !last_traced with
    | None -> Outcome.end_to_end_metrics ~speed ~setup:setups ~heap_mb rounds
    | Some t ->
      let append, since, checksum_at = changelog_rates ~size t.entries in
      Outcome.trace_metrics tr ~untraced_s:(Outcome.mean (Speed.raw rounds))
        ~stages:
          [ ("distrib.authority.publish_pct", [ "distrib.authority.publish" ]);
            ("distrib.relay.sync_pct", [ "distrib.relay.sync" ]);
            (* Signature_client opens its own client.sync span, which
               nests under the ledger's. *)
            ("distrib.delta_client.sync_pct", [ "distrib.delta_client.sync"; "client.sync" ]);
            ("distrib.authority.recovery_pct", [ "distrib.authority.recovery" ]) ]
      @ [ ( "obs.overhead_pct",
            Outcome.overhead_pct
              ~base:(Harness.median (Speed.raw noop_rounds))
              (Harness.median (Speed.raw rounds)) );
          ("distrib.authority.publish_growth", float_of_int !late_ns /. float_of_int !early_ns);
          ("store.wal.bytes", float_of_int t.wal_bytes);
          ("distrib.changelog.append_per_s", append);
          ("distrib.changelog.since_per_s", since);
          ("distrib.changelog.checksum_at_per_s", checksum_at);
          ( "distrib.delta_client.delta_pct",
            Outcome.pct (float_of_int t.deltas) (float_of_int (t.deltas + t.snapshots)) );
          ("distrib.sync_bytes", float_of_int t.sync_bytes /. float_of_int t.syncs);
          ("distrib.relay.repairs", float_of_int t.relay.Relay.repairs);
          ("distrib.relay.repair_bytes", float_of_int t.relay.Relay.repair_bytes);
          ("distrib.relay.snapshot_bytes", float_of_int t.snapshot_bytes) ]
  in
  { Outcome.correct = !failed = 0 && stable;
    attempted = !attempted; failed = !failed; metrics; digest;
    notes =
      [ ("versions", Json.Int size.versions); ("clients", Json.Int size.clients);
        ("per_round", Json.Int size.per_round);
        ("episodes", Json.Int (List.length !checksums));
        ("latency_samples", Json.Int (Speed.count rounds));
        ("noop_obs_samples", Json.Int (Speed.count noop_rounds)) ] }
