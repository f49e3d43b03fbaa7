(* Distribution-tier benchmark: changelog append throughput as history
   grows, journaled publish throughput on the authority, delta-vs-snapshot
   sync cost as the fleet lags further behind, and recovery time as the
   journal grows — replaying the whole journal, and opening from the
   compaction snapshot alone.

   Appends cost O(log n) each, so their rate must stay flat as history
   grows: the run exits non-zero if appends at the largest size run at
   less than half the rate at the smallest.  A publish stays O(v) per
   call — its input is the whole desired set, diffed against the live
   one — so publish rates are reported, not gated.

   The delta/snapshot comparison is the one the design hangs on: a
   client [lag] versions behind pays for [lag] changelog entries over
   the wire instead of the whole set, so sync cost should track the lag,
   not the set size — until the lag crosses the compaction horizon and
   the full download returns.

   Emits BENCH_distrib.json so runs can be diffed.

   Usage: bench_distrib.exe [--quick]   (--quick shrinks every axis but
   the append sizes, which the gate compares) *)

module Json = Leakdetect_util.Json
module Changelog = Leakdetect_distrib.Changelog
module Signature = Leakdetect_core.Signature
module Signature_io = Leakdetect_core.Signature_io
module Authority = Leakdetect_distrib.Authority
module Delta_client = Leakdetect_distrib.Delta_client
module Relay = Leakdetect_distrib.Relay
module Topology = Leakdetect_distrib.Topology

let quick = Array.exists (fun a -> a = "--quick") Sys.argv

let fresh_dir () =
  let f = Filename.temp_file "ld_bench_distrib" "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

let sig_of i =
  Signature.make ~id:i ~mode:Signature.Conjunction ~cluster_size:3
    [ "leak"; Printf.sprintf "tok%06d" i;
      Printf.sprintf "imei=3550219301%05d" i ]

(* Grow a set one signature per version: version v has signatures 1..v.
   The signatures are built once, so a timed publish pays for its input
   list but not for formatting every signature in it. *)
let sigs = Array.init 3_000 (fun i -> sig_of (i + 1))
let set_at v = Array.to_list (Array.sub sigs 0 v)

(* One [Add] per version, as the publish loop produces, on a standalone
   changelog.  Timed over the later half of the history, where a cost
   growing with the set would show.  A sample repeats that later half on
   fresh logs until at least 40 ms of appends have been timed, so a GC
   slice or a scheduler hiccup cannot swing a short history's rate; the
   result is the median of five samples. *)
let bench_append n =
  let changes = Array.init n (fun i -> Changelog.Add sigs.(i)) in
  let half = n / 2 in
  let later_half () =
    let log = Changelog.create () in
    for i = 0 to half - 1 do
      ignore (Changelog.append log changes.(i))
    done;
    snd
      (time (fun () ->
           for i = half to n - 1 do
             ignore (Changelog.append log changes.(i))
           done))
  in
  let sample () =
    let rec go appends s =
      if s >= 0.04 then float_of_int appends /. s
      else go (appends + n - half) (s +. later_half ())
    in
    go 0 0.
  in
  let rate = List.nth (List.sort compare (List.init 5 (fun _ -> sample ()))) 2 in
  Printf.printf "%6d versions: append %9.0f chg/s over the later half\n%!" n rate;
  ( rate,
    Json.Obj
      [ ("versions", Json.Int n); ("append_changes_per_s", Json.Float rate) ] )

let bench_publish n =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let auth =
        match Authority.open_ ~dir () with
        | Ok (t, _) -> t
        | Error e -> failwith e
      in
      let (), publish_s =
        time (fun () ->
            for v = 1 to n do
              ignore (Authority.publish auth ~tenant:"bench" (set_at v))
            done)
      in
      let wal_bytes = Authority.wal_size auth in
      Authority.close auth;
      let (auth', rep), replay_s =
        time (fun () ->
            match Authority.open_ ~dir () with
            | Ok v -> v
            | Error e -> failwith e)
      in
      assert (rep.Authority.replayed = n);
      assert (Authority.version auth' ~tenant:"bench" = n);
      let (), compact_s = time (fun () -> Authority.compact auth') in
      Authority.close auth';
      (* Recovery from the snapshot alone (reset journal). *)
      let (auth'', rep''), snapshot_open_s =
        time (fun () ->
            match Authority.open_ ~dir () with
            | Ok v -> v
            | Error e -> failwith e)
      in
      assert (rep''.Authority.snapshot = Authority.Loaded);
      assert (Authority.version auth'' ~tenant:"bench" = n);
      Authority.close auth'';
      Printf.printf
        "%6d publishes: journal %7.1f ms (%8.0f chg/s), replay %7.1f ms, compact %5.1f ms, snapshot-open %5.1f ms, wal %8d B\n%!"
        n (1000. *. publish_s)
        (float_of_int n /. publish_s)
        (1000. *. replay_s) (1000. *. compact_s) (1000. *. snapshot_open_s)
        wal_bytes;
      Json.Obj
        [ ("publishes", Json.Int n);
          ("wal_bytes", Json.Int wal_bytes);
          ("publish_s", Json.Float publish_s);
          ("publish_changes_per_s", Json.Float (float_of_int n /. publish_s));
          ("replay_s", Json.Float replay_s);
          ("compact_s", Json.Float compact_s);
          ("snapshot_open_s", Json.Float snapshot_open_s) ])

(* One authority at head [versions]; clients parked [lag] versions behind
   sync [rounds] times each.  Compares wire bytes and time for delta sync
   against the same clients forced to full downloads. *)
let bench_sync ~versions ~rounds lag =
  let auth = Authority.create () in
  for v = 1 to versions do
    ignore (Authority.publish auth ~tenant:"bench" (set_at v))
  done;
  let transport = Authority.wire_transport auth in
  let counting_transport bytes raw =
    bytes := !bytes + String.length raw;
    match transport raw with
    | Ok response ->
      bytes := !bytes + String.length response;
      Ok response
    | Error _ as e -> e
  in
  (* Park a fresh client at [versions - lag] by syncing it against a
     truncated twin of the authority; the timed part is the catch-up. *)
  let park () =
    let c = Delta_client.create ~seed:1 ~tenant:"bench" () in
    let twin = Authority.create () in
    ignore (Authority.publish twin ~tenant:"bench" (set_at (versions - lag)));
    (match
       (Delta_client.sync c ~transport:(Authority.wire_transport twin))
         .Leakdetect_monitor.Signature_client.outcome
     with
    | Leakdetect_monitor.Signature_client.Updated _ -> ()
    | _ -> failwith "parking sync must update");
    c
  in
  let measure ~full =
    let clients = List.init rounds (fun _ -> park ()) in
    let bytes = ref 0 and deltas = ref 0 and snapshots = ref 0 in
    let (), s =
      time (fun () ->
          List.iter
            (fun c ->
              let transport raw =
                let raw =
                  if full then
                    (* Ask for the snapshot explicitly. *)
                    match String.index_opt raw ' ' with
                    | Some i -> (
                      match String.index_from_opt raw (i + 1) ' ' with
                      | Some j ->
                        String.sub raw 0 j ^ "&full=1"
                        ^ String.sub raw j (String.length raw - j)
                      | None -> raw)
                    | None -> raw
                  else raw
                in
                counting_transport bytes raw
              in
              match
                (Delta_client.sync c ~transport)
                  .Leakdetect_monitor.Signature_client.outcome
              with
              | Leakdetect_monitor.Signature_client.Updated _ -> (
                match Delta_client.last_update c with
                | Some (`Delta _) -> incr deltas
                | Some `Snapshot | None -> incr snapshots)
              | _ -> failwith "catch-up sync must update")
            clients)
    in
    (!bytes, s, !deltas, !snapshots)
  in
  let d_bytes, d_s, d_deltas, _ = measure ~full:false in
  let f_bytes, f_s, _, f_snapshots = measure ~full:true in
  Printf.printf
    "lag %5d of %d: delta %8d B %7.2f ms (%d delta)   full %9d B %7.2f ms (%d snapshot)   bytes saved %4.1fx\n%!"
    lag versions d_bytes (1000. *. d_s) d_deltas f_bytes (1000. *. f_s)
    f_snapshots
    (float_of_int f_bytes /. float_of_int (max 1 d_bytes));
  Json.Obj
    [ ("lag", Json.Int lag);
      ("delta_bytes", Json.Int d_bytes);
      ("delta_s", Json.Float d_s);
      ("full_bytes", Json.Int f_bytes);
      ("full_s", Json.Float f_s);
      ( "bytes_saved_ratio",
        Json.Float (float_of_int f_bytes /. float_of_int (max 1 d_bytes)) ) ]

(* Ranged repair vs resnapshot: fork a synced relay mirror inside its
   newest digest interval and let anti-entropy heal it.  The repair
   should pay for one digest plus a one-interval suffix, not the whole
   canonical set — the gap that justifies the digest endpoint.  Exits
   non-zero if the repair is not strictly cheaper than the rebuild it
   replaces. *)
let bench_repair ~versions =
  let auth = Authority.create () in
  Authority.publish auth ~tenant:"bench" (set_at versions) |> ignore;
  let transport = Authority.wire_transport auth in
  let relay = Relay.create ~seed:7 ~id:"bench-relay" ~tenants:[ "bench" ] () in
  Relay.sync_tenant relay ~tenant:"bench" ~transport |> ignore;
  let snapshot_cost =
    (* What a resnapshot of this tenant records: the canonical body. *)
    String.length
      (String.concat "\n"
         (List.map Signature_io.to_line
            (Authority.signatures auth ~tenant:"bench")))
  in
  Relay.inject_fork relay ~tenant:"bench";
  let (), s =
    time (fun () -> Relay.sync_tenant relay ~tenant:"bench" ~transport |> ignore)
  in
  let c = Relay.counters relay in
  let healed = c.Relay.repairs = 1 && c.Relay.resnapshots = 0 in
  Printf.printf
    "fork at head of %4d versions: repair %6d B %6.2f ms vs resnapshot %8d B (%4.1fx cheaper)%s\n%!"
    versions c.Relay.repair_bytes (1000. *. s) snapshot_cost
    (float_of_int snapshot_cost /. float_of_int (max 1 c.Relay.repair_bytes))
    (if healed then "" else "  [FAILED: resnapshot fallback]");
  if (not healed) || c.Relay.repair_bytes >= snapshot_cost then begin
    Printf.eprintf
      "bench_repair: ranged repair did not beat resnapshot (%d repairs, %d resnapshots, %d B vs %d B)\n"
      c.Relay.repairs c.Relay.resnapshots c.Relay.repair_bytes snapshot_cost;
    exit 1
  end;
  Json.Obj
    [ ("versions", Json.Int versions);
      ("repairs", Json.Int c.Relay.repairs);
      ("repair_bytes", Json.Int c.Relay.repair_bytes);
      ("resnapshot_bytes", Json.Int snapshot_cost);
      ("repair_s", Json.Float s);
      ( "bytes_saved_ratio",
        Json.Float
          (float_of_int snapshot_cost
          /. float_of_int (max 1 c.Relay.repair_bytes)) ) ]

(* Relay offload: run the multi-node topology soak and report what share
   of client sync traffic the relay tier absorbed — the number the
   horizontal tier exists to move. *)
let bench_offload ~clients ~ticks =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let config =
        { Topology.default_config with Topology.clients; ticks }
      in
      let report, s = time (fun () -> Topology.run ~dir config) in
      Printf.printf
        "%4d clients x %4d ticks: offload %5.1f%% (%d relay / %d origin requests), %d escalations, %.1f ms\n%!"
        clients ticks
        (report.Topology.offload *. 100.)
        report.Topology.relay_requests report.Topology.origin_requests
        report.Topology.escalations (1000. *. s);
      Json.Obj
        [ ("clients", Json.Int clients);
          ("ticks", Json.Int ticks);
          ("relay_requests", Json.Int report.Topology.relay_requests);
          ("origin_requests", Json.Int report.Topology.origin_requests);
          ("offload", Json.Float report.Topology.offload);
          ("escalations", Json.Int report.Topology.escalations);
          ("ok", Json.Bool (Topology.ok report));
          ("run_s", Json.Float s) ])

let () =
  Printf.printf "distribution tier benchmark (%s)\n%!"
    (if quick then "quick" else "full");
  let publish_sizes = if quick then [ 200; 500 ] else [ 200; 1_000; 3_000 ] in
  let versions = if quick then 400 else 2_000 in
  let rounds = if quick then 20 else 50 in
  let lags = [ 1; 10; 100 ] in
  Printf.printf "-- changelog append as history grows --\n%!";
  let append = List.map bench_append [ 200; 1_000; 3_000 ] in
  let smallest = fst (List.hd append)
  and largest = fst (List.nth append (List.length append - 1)) in
  Printf.printf "-- journaled publish / replay / compact --\n%!";
  let publish_rows = List.map bench_publish publish_sizes in
  Printf.printf "-- sync cost vs lag (head at %d versions, %d clients each) --\n%!"
    versions rounds;
  let sync_rows = List.map (bench_sync ~versions ~rounds) lags in
  Printf.printf "-- ranged repair vs resnapshot (forked relay mirror) --\n%!";
  let repair_rows =
    List.map
      (fun v -> bench_repair ~versions:v)
      (if quick then [ 200 ] else [ 200; 1_000 ])
  in
  Printf.printf "-- relay offload (topology soak) --\n%!";
  let offload_row =
    if quick then bench_offload ~clients:60 ~ticks:800
    else bench_offload ~clients:250 ~ticks:2_000
  in
  let doc =
    Json.Obj
      [ ("bench", Json.String "distrib");
        ("quick", Json.Bool quick);
        ("changelog_append", Json.List (List.map snd append));
        ("publish", Json.List publish_rows);
        ("sync_vs_lag", Json.List sync_rows);
        ("repair_vs_resnapshot", Json.List repair_rows);
        ("relay_offload", offload_row) ]
  in
  let oc = open_out "BENCH_distrib.json" in
  output_string oc (Json.to_string_pretty doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote BENCH_distrib.json\n";
  if largest < 0.5 *. smallest then begin
    Printf.eprintf
      "bench_append: %.0f chg/s at the largest history is under half the \
       %.0f chg/s at the smallest\n"
      largest smallest;
    exit 1
  end
