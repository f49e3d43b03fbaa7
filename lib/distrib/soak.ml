module Http = Leakdetect_http
module Signature = Leakdetect_core.Signature
module Signature_io = Leakdetect_core.Signature_io
module Prng = Leakdetect_util.Prng
module Json = Leakdetect_util.Json
module Fault = Leakdetect_fault.Fault
module Obs = Leakdetect_obs.Obs

type config = {
  clients : int;
  tenants : int;
  ticks : int;
  sync_period : int;
  publishes : int;
  compact_every : int;
  k : int;
  reporter_cap : int;
  compact_keep : int;
  candidates : int;
  byzantine : int;
  fault : Fault.config;
  server_crash_rate : float;
  client_restart_rate : float;
  drain_rounds : int;
  seed : int;
}

let default_config =
  {
    clients = 500;
    tenants = 2;
    ticks = 2000;
    sync_period = 20;
    publishes = 40;
    compact_every = 5;
    k = 3;
    reporter_cap = 16;
    compact_keep = 64;
    candidates = 6;
    byzantine = 2;
    fault = { Fault.default with Fault.drop_rate = 0.1 };
    server_crash_rate = 0.25;
    client_restart_rate = 0.01;
    drain_rounds = 40;
    seed = 42;
  }

type phase_counters = {
  delta : int;
  snapshot : int;
  unchanged : int;
  failed : int;
}

type invariants = {
  divergences : int;
  regressions : int;
  sub_k_promotions : int;
  recovery_mismatches : int;
  unconverged : int;
}

type report = {
  config : config;
  ramp : phase_counters;
  steady : phase_counters;
  drain : phase_counters;
  forced_full : int;
  regressions_refused : int;
  server_crashes : int;
  torn_tails : int;
  recoveries : int;
  promoted_on_recovery : int;
  client_restarts : int;
  compactions : int;
  promotions : int;
  accepted_reports : int;
  duplicate_reports : int;
  capped_reports : int;
  lost_reports : int;
  fault_events : (Fault.kind * int) list;
  final_versions : (string * int) list;
  invariants : invariants;
  steady_delta_ratio : float;
}

let ok r =
  r.invariants.divergences = 0
  && r.invariants.regressions = 0
  && r.invariants.sub_k_promotions = 0
  && r.invariants.recovery_mismatches = 0
  && r.invariants.unconverged = 0

(* --- mutable accumulators --- *)

type phase_acc = {
  mutable a_delta : int;
  mutable a_snapshot : int;
  mutable a_unchanged : int;
  mutable a_failed : int;
}

let fresh_acc () = { a_delta = 0; a_snapshot = 0; a_unchanged = 0; a_failed = 0 }

let freeze a =
  {
    delta = a.a_delta;
    snapshot = a.a_snapshot;
    unchanged = a.a_unchanged;
    failed = a.a_failed;
  }

(* --- simulated client --- *)

type sim_client = {
  index : int;
  tenant : string;
  plan : Fault.plan;
  rng : Prng.t;  (* restart seeds and sync-period jitter *)
  mutable dc : Delta_client.t;
  mutable prev_version : int;
  mutable next_sync : int;
}

let validate config =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  if config.clients < 1 then bad "Soak: clients < 1";
  if config.tenants < 1 then bad "Soak: tenants < 1";
  if config.ticks < 10 then bad "Soak: ticks < 10";
  if config.sync_period < 1 then bad "Soak: sync_period < 1";
  if config.publishes < 1 then bad "Soak: publishes < 1";
  if config.k < 1 then bad "Soak: k < 1";
  if config.drain_rounds < 1 then bad "Soak: drain_rounds < 1"

let tenant_name i = Printf.sprintf "tenant%d" i

(* Candidate POST, device side: ship the lines, parse the tally. *)
let post_candidates ~transport ~tenant ~reporter sigs =
  let target =
    Printf.sprintf "%s?tenant=%s&reporter=%s" Authority.candidates_endpoint
      tenant reporter
  in
  let body = String.concat "\n" (List.map Signature_io.to_line sigs) in
  let request =
    Http.Request.make
      ~headers:(Http.Headers.of_list [ ("Host", "sigauthority.local") ])
      ~body Http.Request.POST target
  in
  match transport (Http.Wire.print request) with
  | Error _ as e -> e
  | Ok raw -> (
    match Http.Response.parse raw with
    | Error e -> Error ("response corrupt: " ^ Http.Wire.error_to_string e)
    | Ok response -> (
      if response.Http.Response.status <> 200 then
        Error (Printf.sprintf "status %d" response.Http.Response.status)
      else
        let tally = Hashtbl.create 4 in
        let ok =
          List.for_all
            (fun line ->
              match String.split_on_char '\t' line with
              | [ key; n ] -> (
                match int_of_string_opt n with
                | Some n ->
                  Hashtbl.replace tally key n;
                  true
                | None -> false)
              | _ -> false)
            (String.split_on_char '\n' response.Http.Response.body)
        in
        if not ok then Error "bad tally body"
        else
          let get k = Option.value ~default:0 (Hashtbl.find_opt tally k) in
          Ok (get "accepted", get "duplicate", get "promoted", get "capped")))

let run ?(obs = Obs.noop) ?(on_sync = fun _ -> ()) ~dir config =
  validate config;
  let master_rng = Prng.create config.seed in
  let seed_of () = Prng.bits30 master_rng in
  let server_rng = Prng.create (seed_of ()) in
  let mutate_rng = Prng.create (seed_of ()) in
  let reporter_plan = Fault.create ~seed:(seed_of ()) config.fault in
  let acfg =
    {
      Authority.k = config.k;
      reporter_cap = config.reporter_cap;
      compact_keep = config.compact_keep;
    }
  in
  let auth =
    match Authority.open_ ~obs ~config:acfg ~dir () with
    | Ok (t, _) -> ref t
    | Error e -> invalid_arg ("Soak: cannot open authority: " ^ e)
  in
  let tenants = List.init config.tenants tenant_name in

  (* Counters. *)
  let ramp = fresh_acc ()
  and steady = fresh_acc ()
  and drain = fresh_acc () in
  let server_crashes = ref 0
  and torn_tails = ref 0
  and recoveries = ref 0
  and promoted_on_recovery = ref 0
  and client_restarts = ref 0
  and compactions = ref 0
  and accepted_reports = ref 0
  and duplicate_reports = ref 0
  and capped_reports = ref 0
  and lost_reports = ref 0
  and divergences = ref 0
  and regressions = ref 0
  and recovery_mismatches = ref 0 in
  let all_promotions = ref [] in

  (* The audit table: every committed (tenant, version) -> canonical-set
     checksum, recorded the moment the mutation returns — the ground
     truth that client observations and crash recoveries are judged
     against. *)
  let audit = Hashtbl.create 8 in
  let last_recorded = Hashtbl.create 8 in
  let audit_of tenant =
    match Hashtbl.find_opt audit tenant with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 256 in
      Hashtbl.replace audit tenant tbl;
      tbl
  in
  let record_committed tenant =
    let tbl = audit_of tenant in
    let last = Option.value ~default:0 (Hashtbl.find_opt last_recorded tenant) in
    let head = Authority.version !auth ~tenant in
    for v = last + 1 to head do
      match Authority.checksum_at !auth ~tenant ~version:v with
      | Some sum -> Hashtbl.replace tbl v sum
      | None -> ()
    done;
    if head > last then Hashtbl.replace last_recorded tenant head
  in
  let record_all () = List.iter record_committed tenants in

  (* Crash/reopen cycle.  The crashed instance's promotion audit trail is
     harvested first (it is in-memory only), then with some luck a torn
     tail is left in the journal for recovery to repair. *)
  let reopen () =
    all_promotions := Authority.promotions !auth @ !all_promotions;
    Authority.close !auth;
    if Prng.chance server_rng 0.5 then begin
      incr torn_tails;
      let path = Authority.wal_path ~dir in
      let frame = Leakdetect_store.Wal.frame "torn garbage payload" in
      let partial = String.sub frame 0 (String.length frame - 3) in
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc partial;
      close_out oc
    end;
    (match Authority.open_ ~obs ~config:acfg ~dir () with
    | Ok (t, rep) ->
      auth := t;
      incr recoveries;
      promoted_on_recovery :=
        !promoted_on_recovery + rep.Authority.promoted_on_recovery
    | Error e -> invalid_arg ("Soak: recovery failed: " ^ e));
    (* The recovered authority must agree with everything the audit table
       ever recorded (entries it can still answer for), and must not have
       lost committed head versions. *)
    List.iter
      (fun tenant ->
        let last =
          Option.value ~default:0 (Hashtbl.find_opt last_recorded tenant)
        in
        if Authority.version !auth ~tenant < last then incr recovery_mismatches;
        let horizon = Authority.horizon !auth ~tenant in
        Hashtbl.iter
          (fun v sum ->
            if v >= horizon then
              match Authority.checksum_at !auth ~tenant ~version:v with
              | Some sum' when sum' = sum -> ()
              | Some _ -> incr recovery_mismatches
              | None ->
                if v <= Authority.version !auth ~tenant then
                  incr recovery_mismatches)
          (audit_of tenant))
      tenants;
    (* Entries committed mid-publish before the crash are real commits:
       fold them into the audit table too. *)
    record_all ()
  in

  (* Authority mutations with crash points. *)
  let publish_with_crash tenant desired =
    let crash_at =
      if Prng.chance server_rng config.server_crash_rate then
        Some (Prng.int server_rng 4)
      else None
    in
    (try
       ignore
         (Authority.publish
            ~inject:(fun i ->
              if crash_at = Some i then raise (Authority.Crashed "mid-publish"))
            !auth ~tenant desired)
     with Authority.Crashed _ ->
       incr server_crashes;
       reopen ();
       (* The produced set is still wanted: re-issue; the diff re-derives
          just the changes the crash cut off. *)
       ignore (Authority.publish !auth ~tenant desired));
    record_committed tenant
  in
  let compact_with_crash () =
    let crash_at =
      if Prng.chance server_rng config.server_crash_rate then
        Some (if Prng.bool server_rng then "pre_snapshot" else "post_snapshot")
      else None
    in
    (try
       Authority.compact
         ~inject:(fun point ->
           if crash_at = Some point then
             raise (Authority.Crashed ("mid-compaction " ^ point)))
         !auth;
       incr compactions
     with Authority.Crashed _ ->
       incr server_crashes;
       reopen ());
    record_all ()
  in

  (* Published-set evolution, per tenant. *)
  let fresh_token () = Printf.sprintf "x%06x" (Prng.int mutate_rng 0xFFFFFF) in
  let next_pub_id = Hashtbl.create 8 in
  let fresh_id tenant =
    let floor_id =
      List.fold_left
        (fun m s -> max m s.Signature.id)
        0
        (Authority.signatures !auth ~tenant)
    in
    let n =
      max (floor_id + 1)
        (Option.value ~default:1 (Hashtbl.find_opt next_pub_id tenant))
    in
    Hashtbl.replace next_pub_id tenant (n + 1);
    n
  in
  let mutate_set tenant =
    let current = Authority.signatures !auth ~tenant in
    let adds = 1 + Prng.int mutate_rng 2 in
    let added =
      List.init adds (fun _ ->
          Signature.make ~id:(fresh_id tenant) ~mode:Signature.Conjunction
            ~cluster_size:(1 + Prng.int mutate_rng 9)
            [ "leak"; tenant; fresh_token (); "imei=" ^ fresh_token () ])
    in
    let current =
      match current with
      | s :: _ when Prng.chance mutate_rng 0.3 ->
        (* Modify one in place: same id, new tokens. *)
        Changelog.apply_change current
          (Changelog.Add
             (Signature.make ~id:s.Signature.id ~mode:s.Signature.mode
                ~cluster_size:s.Signature.cluster_size
                [ "leak"; tenant; fresh_token () ]))
      | _ -> current
    in
    let current =
      if List.length current > 3 && Prng.chance mutate_rng 0.3 then
        match current with
        | s :: _ -> Changelog.apply_change current (Changelog.Retire s.Signature.id)
        | [] -> current
      else current
    in
    current @ added
  in

  (* Schedules.  Mutations flow through most of the run — the ramp/steady
     boundary is about the *fleet* (fresh clients bootstrapping vs a warm
     fleet tracking changes), not about the authority going quiet.  The
     last tenth of the ticks is mutation-free so the drain converges. *)
  let phase_split = max 1 (config.ticks / 3) in
  let mutation_end = max 1 (config.ticks * 9 / 10) in
  let buckets = Array.make config.ticks [] in
  let at tick ev =
    let tick = min (config.ticks - 1) (max 0 tick) in
    buckets.(tick) <- ev :: buckets.(tick)
  in
  List.iteri
    (fun j tenant_ix ->
      let tick = j * mutation_end / config.publishes in
      at tick (`Publish (tenant_name (tenant_ix mod config.tenants)));
      if config.compact_every > 0 && (j + 1) mod config.compact_every = 0 then
        at (tick + 1) `Compact)
    (List.init config.publishes (fun j -> j));
  (* Honest candidates: per tenant, [candidates] signatures each reported
     by k distinct reporters at staggered ticks. *)
  let candidate_sig tenant j =
    Signature.make ~id:0 ~mode:Signature.Conjunction ~cluster_size:1
      [ "cand"; tenant; Printf.sprintf "c%d" j; "imsi=240080000000000" ]
  in
  List.iteri
    (fun t_ix tenant ->
      for j = 0 to config.candidates - 1 do
        for r = 0 to config.k - 1 do
          let tick =
            ((j * config.k) + r + 1)
            * mutation_end
            / ((config.candidates * config.k) + 2)
          in
          at
            (tick + t_ix)
            (`Report
              ( tenant,
                Printf.sprintf "rep%d" r,
                [ candidate_sig tenant j ],
                3 (* delivery attempts across ticks *) ))
        done
      done)
    tenants;
  (* Byzantine reporters: flood unique candidates, expect the cap. *)
  let byz_counter = ref 0 in
  for b = 0 to config.byzantine - 1 do
    let tenant = tenant_name (b mod config.tenants) in
    let reporter = Printf.sprintf "byz%d" b in
    let tick = ref (5 + b) in
    while !tick < mutation_end do
      let batch =
        List.init 3 (fun _ ->
            incr byz_counter;
            Signature.make ~id:0 ~mode:Signature.Conjunction ~cluster_size:1
              [ "flood"; tenant; Printf.sprintf "z%d" !byz_counter ])
      in
      at !tick (`Report (tenant, reporter, batch, 1));
      tick := !tick + max 1 (mutation_end / 20)
    done
  done;

  (* Clients. *)
  let clients =
    Array.init config.clients (fun i ->
        let tenant = tenant_name (i mod config.tenants) in
        let seed = seed_of () in
        let rng = Prng.create (seed_of ()) in
        {
          index = i;
          tenant;
          plan = Fault.create ~seed config.fault;
          rng;
          dc = Delta_client.create ~seed ~tenant ();
          prev_version = 0;
          next_sync = i mod config.sync_period;
        })
  in
  let faulty_transport plan =
    Fault.transport plan (fun raw -> Authority.wire_transport !auth raw)
  in
  let transport_of c raw = faulty_transport c.plan raw in
  let reporter_transport raw = faulty_transport reporter_plan raw in

  let check_sync c (acc : phase_acc) =
    let before = Delta_client.counters c.dc in
    let sync_report = Delta_client.sync c.dc ~transport:(transport_of c) in
    on_sync c.dc;
    let after = Delta_client.counters c.dc in
    (match sync_report.Leakdetect_monitor.Signature_client.outcome with
    | Leakdetect_monitor.Signature_client.Updated v ->
      if after.Delta_client.delta_updates > before.Delta_client.delta_updates
      then acc.a_delta <- acc.a_delta + 1
      else acc.a_snapshot <- acc.a_snapshot + 1;
      (* Divergence: the set the client landed on must be exactly what
         the authority committed at that version. *)
      (match Hashtbl.find_opt (audit_of c.tenant) v with
      | Some sum when sum = Delta_client.checksum c.dc -> ()
      | _ -> incr divergences);
      if v < c.prev_version then incr regressions;
      c.prev_version <- v
    | Leakdetect_monitor.Signature_client.Unchanged ->
      acc.a_unchanged <- acc.a_unchanged + 1
    | Leakdetect_monitor.Signature_client.Failed _ ->
      acc.a_failed <- acc.a_failed + 1);
    if Prng.chance c.rng config.client_restart_rate then begin
      incr client_restarts;
      c.dc <- Delta_client.create ~seed:(Prng.bits30 c.rng) ~tenant:c.tenant ();
      c.prev_version <- 0
    end
  in

  (* --- the tick loop --- *)
  let retries = ref [] in
  for tick = 0 to config.ticks - 1 do
    let events = List.rev buckets.(tick) in
    let due, later = List.partition (fun (t, _) -> t <= tick) !retries in
    retries := later;
    let events = events @ List.map snd due in
    List.iter
      (fun ev ->
        match ev with
        | `Publish tenant -> publish_with_crash tenant (mutate_set tenant)
        | `Compact -> compact_with_crash ()
        | `Report (tenant, reporter, sigs, attempts) -> (
          match post_candidates ~transport:reporter_transport ~tenant ~reporter sigs with
          | Ok (a, d, p, cap) ->
            accepted_reports := !accepted_reports + a;
            duplicate_reports := !duplicate_reports + d;
            capped_reports := !capped_reports + cap;
            ignore p;
            record_committed tenant
          | Error _ ->
            if attempts > 1 then
              retries :=
                (tick + 3, `Report (tenant, reporter, sigs, attempts - 1))
                :: !retries
            else incr lost_reports))
      events;
    (* A POST whose *response* was lost still committed on the server (a
       promotion may have bumped the version); re-record after every event
       batch so the audit table never lags what clients can observe. *)
    if events <> [] then record_all ();
    let acc = if tick < phase_split then ramp else steady in
    Array.iter
      (fun c ->
        if tick >= c.next_sync then begin
          check_sync c acc;
          c.next_sync <- tick + config.sync_period + Prng.int c.rng 3
        end)
      clients
  done;
  !retries
  |> List.iter (fun (_, ev) ->
         match ev with `Report _ -> incr lost_reports | _ -> ());

  (* --- drain: give stragglers bounded extra rounds (faults stay on) --- *)
  let final_version tenant = Authority.version !auth ~tenant in
  let final_sum tenant = Authority.checksum !auth ~tenant in
  let converged c =
    Delta_client.version c.dc = final_version c.tenant
    && Delta_client.checksum c.dc = final_sum c.tenant
  in
  let round = ref 0 in
  while
    !round < config.drain_rounds
    && Array.exists (fun c -> not (converged c)) clients
  do
    incr round;
    Array.iter (fun c -> if not (converged c) then check_sync c drain) clients
  done;
  let unconverged =
    Array.fold_left (fun n c -> if converged c then n else n + 1) 0 clients
  in

  (* --- judgment --- *)
  all_promotions := Authority.promotions !auth @ !all_promotions;
  let promotions = List.length !all_promotions in
  let sub_k_promotions =
    List.length
      (List.filter
         (fun (p : Authority.promotion) -> p.Authority.reporters < config.k)
         !all_promotions)
  in
  let forced_full, regressions_refused =
    Array.fold_left
      (fun (ff, rr) c ->
        let k = Delta_client.counters c.dc in
        (ff + k.Delta_client.forced_full, rr + k.Delta_client.regressions_refused))
      (0, 0) clients
  in
  let fault_events =
    let totals = Hashtbl.create 8 in
    let add plan =
      List.iter
        (fun (kind, n) ->
          Hashtbl.replace totals kind
            (n + Option.value ~default:0 (Hashtbl.find_opt totals kind)))
        (Fault.summary plan)
    in
    add reporter_plan;
    Array.iter (fun c -> add c.plan) clients;
    List.map
      (fun kind ->
        (kind, Option.value ~default:0 (Hashtbl.find_opt totals kind)))
      Fault.all_kinds
  in
  let steady_f = freeze steady and drain_f = freeze drain in
  let tail_delta = steady_f.delta + drain_f.delta in
  let tail_snapshot = steady_f.snapshot + drain_f.snapshot in
  let steady_delta_ratio =
    float_of_int tail_delta /. float_of_int (max 1 tail_snapshot)
  in
  let final_versions = List.map (fun t -> (t, final_version t)) tenants in
  Authority.close !auth;
  let report =
    {
      config;
      ramp = freeze ramp;
      steady = steady_f;
      drain = drain_f;
      forced_full;
      regressions_refused;
      server_crashes = !server_crashes;
      torn_tails = !torn_tails;
      recoveries = !recoveries;
      promoted_on_recovery = !promoted_on_recovery;
      client_restarts = !client_restarts;
      compactions = !compactions;
      promotions;
      accepted_reports = !accepted_reports;
      duplicate_reports = !duplicate_reports;
      capped_reports = !capped_reports;
      lost_reports = !lost_reports;
      fault_events;
      final_versions;
      invariants =
        {
          divergences = !divergences;
          regressions = !regressions;
          sub_k_promotions;
          recovery_mismatches = !recovery_mismatches;
          unconverged;
        };
      steady_delta_ratio;
    }
  in
  if not (Obs.is_noop obs) then begin
    let gauge name help v = Obs.Gauge.set (Obs.gauge obs ~help name) v in
    gauge "leakdetect_soak_divergences" "Client/authority set divergences."
      report.invariants.divergences;
    gauge "leakdetect_soak_unconverged" "Clients that never converged."
      report.invariants.unconverged;
    gauge "leakdetect_soak_sub_k_promotions" "Promotions below the k threshold."
      report.invariants.sub_k_promotions;
    gauge "leakdetect_soak_server_crashes" "Authority crash points taken."
      report.server_crashes
  end;
  report

(* --- rendering --- *)

let phase_to_json p =
  Json.Obj
    [
      ("delta", Json.Int p.delta);
      ("snapshot", Json.Int p.snapshot);
      ("unchanged", Json.Int p.unchanged);
      ("failed", Json.Int p.failed);
    ]

let report_to_json r =
  Json.Obj
    [
      ( "config",
        Json.Obj
          [
            ("clients", Json.Int r.config.clients);
            ("tenants", Json.Int r.config.tenants);
            ("ticks", Json.Int r.config.ticks);
            ("sync_period", Json.Int r.config.sync_period);
            ("publishes", Json.Int r.config.publishes);
            ("compact_every", Json.Int r.config.compact_every);
            ("k", Json.Int r.config.k);
            ("reporter_cap", Json.Int r.config.reporter_cap);
            ("compact_keep", Json.Int r.config.compact_keep);
            ("candidates", Json.Int r.config.candidates);
            ("byzantine", Json.Int r.config.byzantine);
            ("server_crash_rate", Json.Float r.config.server_crash_rate);
            ("client_restart_rate", Json.Float r.config.client_restart_rate);
            ("drop_rate", Json.Float r.config.fault.Fault.drop_rate);
            ("corrupt_rate", Json.Float r.config.fault.Fault.corrupt_rate);
            ("server_error_rate", Json.Float r.config.fault.Fault.server_error_rate);
            ("truncate_rate", Json.Float r.config.fault.Fault.truncate_rate);
            ("duplicate_rate", Json.Float r.config.fault.Fault.duplicate_rate);
            ("delay_rate", Json.Float r.config.fault.Fault.delay_rate);
            ("max_delay", Json.Int r.config.fault.Fault.max_delay);
            ("crash_rate", Json.Float r.config.fault.Fault.crash_rate);
            ("torn_write_rate", Json.Float r.config.fault.Fault.torn_write_rate);
            ("reencode_rate", Json.Float r.config.fault.Fault.reencode_rate);
            ("drain_rounds", Json.Int r.config.drain_rounds);
            ("seed", Json.Int r.config.seed);
          ] );
      ("ramp", phase_to_json r.ramp);
      ("steady", phase_to_json r.steady);
      ("drain", phase_to_json r.drain);
      ("forced_full", Json.Int r.forced_full);
      ("regressions_refused", Json.Int r.regressions_refused);
      ("server_crashes", Json.Int r.server_crashes);
      ("torn_tails", Json.Int r.torn_tails);
      ("recoveries", Json.Int r.recoveries);
      ("promoted_on_recovery", Json.Int r.promoted_on_recovery);
      ("client_restarts", Json.Int r.client_restarts);
      ("compactions", Json.Int r.compactions);
      ("promotions", Json.Int r.promotions);
      ("accepted_reports", Json.Int r.accepted_reports);
      ("duplicate_reports", Json.Int r.duplicate_reports);
      ("capped_reports", Json.Int r.capped_reports);
      ("lost_reports", Json.Int r.lost_reports);
      ( "fault_events",
        Json.Obj
          (List.map
             (fun (kind, n) -> (Fault.kind_name kind, Json.Int n))
             r.fault_events) );
      ( "final_versions",
        Json.Obj (List.map (fun (t, v) -> (t, Json.Int v)) r.final_versions) );
      ( "invariants",
        Json.Obj
          [
            ("divergences", Json.Int r.invariants.divergences);
            ("regressions", Json.Int r.invariants.regressions);
            ("sub_k_promotions", Json.Int r.invariants.sub_k_promotions);
            ("recovery_mismatches", Json.Int r.invariants.recovery_mismatches);
            ("unconverged", Json.Int r.invariants.unconverged);
          ] );
      ("steady_delta_ratio", Json.Float r.steady_delta_ratio);
      ("ok", Json.Bool (ok r));
    ]

let summary r =
  let p name c =
    Printf.sprintf "%s: %d delta / %d snapshot / %d unchanged / %d failed" name
      c.delta c.snapshot c.unchanged c.failed
  in
  String.concat "\n"
    [
      Printf.sprintf "soak: %d clients, %d tenants, %d ticks (seed %d)"
        r.config.clients r.config.tenants r.config.ticks r.config.seed;
      p "  ramp  " r.ramp;
      p "  steady" r.steady;
      p "  drain " r.drain;
      Printf.sprintf
        "  server: %d crashes (%d torn tails), %d recoveries, %d compactions"
        r.server_crashes r.torn_tails r.recoveries r.compactions;
      Printf.sprintf
        "  crowd: %d promotions (%d on recovery), %d accepted / %d duplicate / %d capped / %d lost reports"
        r.promotions r.promoted_on_recovery r.accepted_reports
        r.duplicate_reports r.capped_reports r.lost_reports;
      Printf.sprintf "  clients: %d restarts, %d forced-full, %d refused regressions"
        r.client_restarts r.forced_full r.regressions_refused;
      Printf.sprintf
        "  invariants: %d divergences, %d regressions, %d sub-k promotions, %d recovery mismatches, %d unconverged"
        r.invariants.divergences r.invariants.regressions
        r.invariants.sub_k_promotions r.invariants.recovery_mismatches
        r.invariants.unconverged;
      Printf.sprintf "  steady delta:snapshot ratio %.1f" r.steady_delta_ratio;
      (if ok r then "  OK" else "  INVARIANT VIOLATION");
    ]
