module Signature = Leakdetect_core.Signature
module Prng = Leakdetect_util.Prng
module Json = Leakdetect_util.Json
module Fault = Leakdetect_fault.Fault
module Obs = Leakdetect_obs.Obs
module Signature_client = Leakdetect_monitor.Signature_client

type config = {
  origins : int;
  standby_origins : int;
  relays : int;
  byzantine_relays : int;
  byzantine_corrupt_rate : float;
  clients : int;
  tenants : int;
  ticks : int;
  sync_period : int;
  relay_sync_period : int;
  publishes : int;
  compact_every : int;
  k : int;
  reporter_cap : int;
  compact_keep : int;
  candidates : int;
  byzantine : int;
  fault : Fault.config;
  partitions : int;
  partition_ticks : int;
  relay_crashes : int;
  epoch_flips : int;
  origin_crash_rate : float;
  client_restart_rate : float;
  min_offload : float;
  drain_rounds : int;
  gossip_period : int;
  fork_injections : int;
  origin_weight : int;
  seed : int;
}

let default_config =
  {
    origins = 2;
    standby_origins = 1;
    relays = 3;
    byzantine_relays = 1;
    byzantine_corrupt_rate = 0.5;
    clients = 250;
    tenants = 4;
    ticks = 2000;
    sync_period = 20;
    relay_sync_period = 4;
    publishes = 40;
    compact_every = 5;
    k = 3;
    reporter_cap = 16;
    compact_keep = 64;
    candidates = 4;
    byzantine = 2;
    fault = { Fault.default with Fault.drop_rate = 0.1 };
    partitions = 3;
    partition_ticks = 150;
    relay_crashes = 2;
    epoch_flips = 1;
    origin_crash_rate = 0.2;
    client_restart_rate = 0.005;
    min_offload = 0.8;
    drain_rounds = 60;
    gossip_period = 8;
    fork_injections = 2;
    origin_weight = 1;
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
  relay_divergences : int;
      (* A relay whose serving guard passed while its mirror did not
         match the committed checksum at its version. *)
  staleness_lapses : int;
      (* A partitioned relay left strictly behind a reachable honest
         sibling right after its own gossip round. *)
}

type report = {
  config : config;
  ramp : phase_counters;
  steady : phase_counters;
  drain : phase_counters;
  relay_requests : int;
  origin_requests : int;
  offload : float;
  escalations : int;
  fork_smells : int;
  forced_full : int;
  regressions_refused : int;
  misdirected_follows : int;
  origin_crashes : int;
  torn_tails : int;
  recoveries : int;
  promoted_on_recovery : int;
  relay_crashes_done : int;
  partitions_done : int;
  epoch_flips_done : int;
  migrations : int;
  final_epoch : int;
  relay_sync_rounds : int;
  relay_sync_failures : int;
  relay_resnapshots : int;
  relay_served : int;
  relay_unready : int;
  relay_inconsistent : int;
  gossip_rounds : int;
  gossip_catchups : int;
  repairs : int;
  repair_bytes : int;
  resnapshot_bytes : int;
  forks_done : int;
  forwarded_reports : int;
  forward_failures : int;
  client_restarts : int;
  compactions : int;
  promotions : int;
  accepted_reports : int;
  duplicate_reports : int;
  capped_reports : int;
  lost_reports : int;
  fault_events : (Fault.kind * int) list;
  final_versions : (string * int) list;
  tenant_owners : (string * string) list;
  invariants : invariants;
}

let invariants_hold r =
  r.invariants.divergences = 0
  && r.invariants.regressions = 0
  && r.invariants.sub_k_promotions = 0
  && r.invariants.recovery_mismatches = 0
  && r.invariants.unconverged = 0
  && r.invariants.relay_divergences = 0
  && r.invariants.staleness_lapses = 0

let ok r =
  invariants_hold r && (r.config.relays = 0 || r.offload >= r.config.min_offload)

let steady_delta_ratio r =
  float_of_int (r.steady.delta + r.drain.delta)
  /. float_of_int (max 1 (r.steady.snapshot + r.drain.snapshot))

(* --- accumulators --- *)

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

type sim_client = {
  index : int;
  tenant : string;
  plan : Fault.plan;
  rng : Prng.t;
  known : string ref;  (* owner origin as this client last learned it *)
  mutable dc : Delta_client.t;
  mutable prev_version : int;
  mutable next_sync : int;
}

let validate config =
  let bad fmt = Printf.ksprintf invalid_arg fmt in
  if config.origins < 1 then bad "Topology: origins < 1";
  if config.standby_origins < 0 then bad "Topology: standby_origins < 0";
  if config.epoch_flips > 0 && config.standby_origins < 1 then
    bad "Topology: epoch flips need at least one standby origin";
  if config.relays < 0 then bad "Topology: relays < 0";
  if
    config.relays = 0
    && (config.byzantine_relays > 0 || config.partitions > 0
       || config.relay_crashes > 0 || config.fork_injections > 0)
  then
    bad
      "Topology: byzantine relays, partitions, relay crashes and fork \
       injections need at least one relay";
  if config.byzantine_relays < 0 || config.byzantine_relays > config.relays then
    bad "Topology: byzantine_relays out of range";
  if config.clients < 1 then bad "Topology: clients < 1";
  if config.tenants < 1 then bad "Topology: tenants < 1";
  if config.ticks < 10 then bad "Topology: ticks < 10";
  if config.sync_period < 1 then bad "Topology: sync_period < 1";
  if config.relay_sync_period < 1 then bad "Topology: relay_sync_period < 1";
  if config.publishes < 1 then bad "Topology: publishes < 1";
  if config.k < 1 then bad "Topology: k < 1";
  if config.partition_ticks < 1 then bad "Topology: partition_ticks < 1";
  if config.drain_rounds < 1 then bad "Topology: drain_rounds < 1";
  if config.gossip_period < 0 then bad "Topology: gossip_period < 0";
  if config.fork_injections < 0 then bad "Topology: fork_injections < 0";
  if config.origin_weight < 1 then bad "Topology: origin_weight < 1"

let tenant_name i = Printf.sprintf "tenant%d" i
let origin_name i = Printf.sprintf "origin%d" i

let run ?(obs = Obs.noop) ?(on_sync = fun _ -> ()) ~dir config =
  validate config;
  let master_rng = Prng.create config.seed in
  let seed_of () = Prng.bits30 master_rng in
  let server_rng = Prng.create (seed_of ()) in
  let mutate_rng = Prng.create (seed_of ()) in
  let reporter_plan = Fault.create ~seed:(seed_of ()) config.fault in
  let byz_plan =
    Fault.create ~seed:(seed_of ())
      { Fault.default with Fault.corrupt_rate = config.byzantine_corrupt_rate }
  in
  let acfg =
    {
      Authority.k = config.k;
      reporter_cap = config.reporter_cap;
      compact_keep = config.compact_keep;
    }
  in
  (match
     if Sys.file_exists dir then
       if Sys.is_directory dir then Ok () else Error (dir ^ ": not a directory")
     else match Sys.mkdir dir 0o755 with
       | () -> Ok ()
       | exception Sys_error e -> Error e
   with
  | Ok () -> ()
  | Error e -> invalid_arg ("Topology: " ^ e));

  (* --- origins --- *)
  let n_all_origins = config.origins + config.standby_origins in
  let base_names = List.init config.origins origin_name in
  let all_names = List.init n_all_origins origin_name in
  let wide_names = all_names in
  let origin_tbl = Hashtbl.create 8 in
  List.iter
    (fun name ->
      let odir = Filename.concat dir name in
      match Authority.open_ ~obs ~config:acfg ~dir:odir () with
      | Ok (t, _) -> Hashtbl.replace origin_tbl name (ref t, odir)
      | Error e ->
        invalid_arg (Printf.sprintf "Topology: cannot open %s: %s" name e))
    all_names;
  let origin name = fst (Hashtbl.find origin_tbl name) in
  let relay_name i = Printf.sprintf "relay%d" i in
  (* Capacity weights (origin0 optionally heavier) and a synthetic
     proximity table — relay-to-origin and relay-to-relay distances that
     bias gossip peer preference without ever affecting ownership. *)
  let weights =
    if config.origin_weight > 1 then [ (origin_name 0, config.origin_weight) ]
    else []
  in
  let proximity =
    List.concat_map
      (fun i ->
        let rid = relay_name i in
        List.mapi (fun j o -> (rid, o, (i + j) mod 3)) all_names
        @ List.filter_map
            (fun j ->
              if j = i then None else Some (rid, relay_name j, abs (i - j)))
            (List.init config.relays Fun.id))
      (List.init config.relays Fun.id)
  in
  let map =
    match Shard_map.create ~weights ~proximity ~epoch:0 ~origins:base_names () with
    | Ok m -> ref m
    | Error e -> invalid_arg ("Topology: " ^ e)
  in
  let install_map () =
    List.iter (fun name -> Authority.set_shard !(origin name) ~self:name !map)
      all_names
  in
  install_map ();
  let owner_of tenant = Shard_map.owner !map ~tenant in
  let tenants = List.init config.tenants tenant_name in

  (* --- counters --- *)
  let ramp = fresh_acc () and steady = fresh_acc () and drain = fresh_acc () in
  let relay_requests = ref 0
  and origin_requests = ref 0
  and misdirected_follows = ref 0
  and origin_crashes = ref 0
  and torn_tails = ref 0
  and recoveries = ref 0
  and promoted_on_recovery = ref 0
  and relay_crashes_done = ref 0
  and partitions_done = ref 0
  and epoch_flips_done = ref 0
  and migrations = ref 0
  and client_restarts = ref 0
  and compactions = ref 0
  and accepted_reports = ref 0
  and duplicate_reports = ref 0
  and capped_reports = ref 0
  and lost_reports = ref 0
  and divergences = ref 0
  and regressions = ref 0
  and recovery_mismatches = ref 0
  and relay_divergences = ref 0
  and staleness_lapses = ref 0
  and forks_done = ref 0 in
  let all_promotions = ref [] in
  (* Client fetch counters survive restarts via these accumulators. *)
  let acc_escalations = ref 0
  and acc_fork_smells = ref 0
  and acc_forced_full = ref 0
  and acc_regr_refused = ref 0 in
  let harvest_client dc =
    let k = Delta_client.counters dc in
    acc_escalations := !acc_escalations + k.Delta_client.escalations;
    acc_fork_smells := !acc_fork_smells + k.Delta_client.fork_smells;
    acc_forced_full := !acc_forced_full + k.Delta_client.forced_full;
    acc_regr_refused := !acc_regr_refused + k.Delta_client.regressions_refused
  in
  (* Relay counters survive crashes the same way. *)
  let acc_relay = ref Relay.{
    sync_rounds = 0; sync_failures = 0; resnapshots = 0; resnapshot_bytes = 0;
    repairs = 0; repair_bytes = 0; gossip_rounds = 0; gossip_catchups = 0;
    served_delta = 0; served_snapshot = 0; served_not_modified = 0;
    served_unready = 0; served_inconsistent = 0; served_digest = 0;
    forwarded = 0; forward_failures = 0;
  } in
  let harvest_relay r =
    let c = Relay.counters r and a = !acc_relay in
    acc_relay := Relay.{
      sync_rounds = a.sync_rounds + c.Relay.sync_rounds;
      sync_failures = a.sync_failures + c.Relay.sync_failures;
      resnapshots = a.resnapshots + c.Relay.resnapshots;
      resnapshot_bytes = a.resnapshot_bytes + c.Relay.resnapshot_bytes;
      repairs = a.repairs + c.Relay.repairs;
      repair_bytes = a.repair_bytes + c.Relay.repair_bytes;
      gossip_rounds = a.gossip_rounds + c.Relay.gossip_rounds;
      gossip_catchups = a.gossip_catchups + c.Relay.gossip_catchups;
      served_delta = a.served_delta + c.Relay.served_delta;
      served_snapshot = a.served_snapshot + c.Relay.served_snapshot;
      served_not_modified = a.served_not_modified + c.Relay.served_not_modified;
      served_unready = a.served_unready + c.Relay.served_unready;
      served_inconsistent = a.served_inconsistent + c.Relay.served_inconsistent;
      served_digest = a.served_digest + c.Relay.served_digest;
      forwarded = a.forwarded + c.Relay.forwarded;
      forward_failures = a.forward_failures + c.Relay.forward_failures;
    }
  in

  (* --- audit table: committed (tenant, version) -> checksum --- *)
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
    let auth = !(origin (owner_of tenant)) in
    let last = Option.value ~default:0 (Hashtbl.find_opt last_recorded tenant) in
    let head = Authority.version auth ~tenant in
    for v = last + 1 to head do
      match Authority.checksum_at auth ~tenant ~version:v with
      | Some sum -> Hashtbl.replace tbl v sum
      | None -> ()
    done;
    if head > last then Hashtbl.replace last_recorded tenant head
  in
  let record_all () = List.iter record_committed tenants in

  (* --- origin crash / recovery --- *)
  let reopen name =
    let auth_ref, odir = Hashtbl.find origin_tbl name in
    all_promotions := Authority.promotions !auth_ref @ !all_promotions;
    Authority.close !auth_ref;
    if Prng.chance server_rng 0.5 then begin
      incr torn_tails;
      let path = Authority.wal_path ~dir:odir in
      let frame = Leakdetect_store.Wal.frame "torn garbage payload" in
      let partial = String.sub frame 0 (String.length frame - 3) in
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc partial;
      close_out oc
    end;
    (match Authority.open_ ~obs ~config:acfg ~dir:odir () with
    | Ok (t, rep) ->
      auth_ref := t;
      incr recoveries;
      promoted_on_recovery :=
        !promoted_on_recovery + rep.Authority.promoted_on_recovery;
      (* The shard map rides the journal; a recovered origin that lost it
         would serve tenants it no longer owns.  Re-assert the current
         map (idempotent when replay already restored it). *)
      Authority.set_shard t ~self:name !map
    | Error e -> invalid_arg ("Topology: recovery failed: " ^ e));
    (* The recovered origin must still answer for everything the audit
       table recorded about the tenants it holds. *)
    let auth = !auth_ref in
    List.iter
      (fun tenant ->
        if Authority.owns auth ~tenant && List.mem tenant (Authority.tenants auth)
        then begin
          let last =
            Option.value ~default:0 (Hashtbl.find_opt last_recorded tenant)
          in
          if Authority.version auth ~tenant < last then incr recovery_mismatches;
          let horizon = Authority.horizon auth ~tenant in
          Hashtbl.iter
            (fun v sum ->
              if v >= horizon then
                match Authority.checksum_at auth ~tenant ~version:v with
                | Some sum' when sum' = sum -> ()
                | Some _ -> incr recovery_mismatches
                | None ->
                  if v <= Authority.version auth ~tenant then
                    incr recovery_mismatches)
            (audit_of tenant)
        end)
      tenants;
    record_all ()
  in

  let publish_with_crash tenant desired =
    let name = owner_of tenant in
    let crash_at =
      if Prng.chance server_rng config.origin_crash_rate then
        Some (Prng.int server_rng 4)
      else None
    in
    (try
       ignore
         (Authority.publish
            ~inject:(fun i ->
              if crash_at = Some i then raise (Authority.Crashed "mid-publish"))
            !(origin name) ~tenant desired)
     with Authority.Crashed _ ->
       incr origin_crashes;
       reopen name;
       ignore (Authority.publish !(origin name) ~tenant desired));
    record_committed tenant
  in
  let compact_with_crash () =
    List.iter
      (fun name ->
        let crash_at =
          if Prng.chance server_rng config.origin_crash_rate then
            Some (if Prng.bool server_rng then "pre_snapshot" else "post_snapshot")
          else None
        in
        (try
           Authority.compact
             ~inject:(fun point ->
               if crash_at = Some point then
                 raise (Authority.Crashed ("mid-compaction " ^ point)))
             !(origin name);
           incr compactions
         with Authority.Crashed _ ->
           incr origin_crashes;
           reopen name))
      all_names;
    record_all ()
  in

  (* --- published-set evolution --- *)
  let fresh_token () = Printf.sprintf "x%06x" (Prng.int mutate_rng 0xFFFFFF) in
  let next_pub_id = Hashtbl.create 8 in
  let fresh_id tenant =
    let auth = !(origin (owner_of tenant)) in
    let floor_id =
      List.fold_left
        (fun m s -> max m s.Signature.id)
        0
        (Authority.signatures auth ~tenant)
    in
    let n =
      max (floor_id + 1)
        (Option.value ~default:1 (Hashtbl.find_opt next_pub_id tenant))
    in
    Hashtbl.replace next_pub_id tenant (n + 1);
    n
  in
  let mutate_set tenant =
    let current = Authority.signatures !(origin (owner_of tenant)) ~tenant in
    let adds = 1 + Prng.int mutate_rng 2 in
    let added =
      List.init adds (fun _ ->
          Signature.make ~id:(fresh_id tenant) ~mode:Signature.Conjunction
            ~cluster_size:(1 + Prng.int mutate_rng 9)
            [ "leak"; tenant; fresh_token (); "imei=" ^ fresh_token () ])
    in
    let current =
      if List.length current > 3 && Prng.chance mutate_rng 0.3 then
        match current with
        | s :: _ ->
          Changelog.apply_change current (Changelog.Retire s.Signature.id)
        | [] -> current
      else current
    in
    current @ added
  in

  (* --- transports --- *)
  (* Send to the owner as [known] remembers it, following one 421
     redirect: stale routing self-heals through the misdirection answer
     itself, never through out-of-band knowledge. *)
  let route_421 plan known raw =
    let send name = Fault.transport plan (Authority.wire_transport !(origin name)) raw in
    match send !known with
    | Error _ as e -> e
    | Ok resp_raw -> (
      match Protocol.misdirected_to resp_raw with
      | Some next when next <> !known && Hashtbl.mem origin_tbl next ->
        incr misdirected_follows;
        known := next;
        send next
      | _ -> Ok resp_raw)
  in

  (* --- relays --- *)
  let current_tick = ref 0 in
  let partitioned_until = Array.make config.relays (-1) in
  let partitioned i = !current_tick <= partitioned_until.(i) in
  let relay_plans =
    Array.init config.relays (fun _ -> Fault.create ~seed:(seed_of ()) config.fault)
  in
  (* Per relay slot, per tenant: the owner as the relay last learned it. *)
  let relay_known =
    Array.init config.relays (fun _ ->
        let tbl = Hashtbl.create 8 in
        List.iter (fun t -> Hashtbl.replace tbl t (ref (owner_of t))) tenants;
        tbl)
  in
  let relay_upstream i tenant raw =
    if partitioned i then Error "partitioned from origins"
    else route_421 relay_plans.(i) (Hashtbl.find relay_known.(i) tenant) raw
  in
  let relay_post_upstream i raw =
    if partitioned i then Error "partitioned from origins"
    else
      match Protocol.parse_request raw with
      | Error _ as e -> e
      | Ok request -> (
        match Protocol.tenant_of request with
        | Some tenant when Hashtbl.mem relay_known.(i) tenant ->
          route_421 relay_plans.(i) (Hashtbl.find relay_known.(i) tenant) raw
        | _ -> Error "forward: unroutable tenant")
  in
  let fresh_relay i =
    Relay.create ~obs
      ~config:
        {
          Relay.compact_keep = config.compact_keep;
          digest_interval = Relay.default_config.Relay.digest_interval;
        }
      ~seed:(seed_of ())
      ~id:(relay_name i)
      ~tenants ()
  in
  let relays = Array.init config.relays fresh_relay in
  let is_byzantine i = i < config.byzantine_relays in
  (* What clients see of relay [i]: its wire transport, with responses
     corrupted at the byzantine rate for compromised slots. *)
  let relay_server i raw =
    match Relay.wire_transport relays.(i) raw with
    | Error _ as e -> e
    | Ok response ->
      if is_byzantine i then Ok (Fault.corrupt_string byz_plan response)
      else Ok response
  in
  (* Relay-to-relay gossip links are loss-free (the partition model cuts
     relays off from origins, not from each other), but a byzantine
     sibling corrupts what it serves — gossip has to survive that. *)
  let peer_list i =
    List.filter_map
      (fun j ->
        if j = i then None
        else Some (relay_name j, fun raw -> relay_server j raw))
      (List.init config.relays Fun.id)
  in
  let wire_relay i =
    let r = relays.(i) in
    Relay.set_upstream r (relay_post_upstream i);
    Relay.set_peers r (peer_list i);
    Relay.set_shard r !map;
    Relay.set_clock r !current_tick
  in
  Array.iteri (fun i _ -> wire_relay i) relays;
  let relay_sync_all i =
    List.iter
      (fun tenant ->
        ignore (Relay.sync_tenant relays.(i) ~tenant ~transport:(relay_upstream i tenant)))
      tenants
  in

  (* --- epoch flip / rebalance --- *)
  let flip () =
    incr epoch_flips_done;
    let target =
      (* Odd flips widen to the standby set, even flips shrink back. *)
      if !epoch_flips_done mod 2 = 1 then wide_names else base_names
    in
    let before = !map in
    (match Shard_map.advance before ~origins:target with
    | Ok after ->
      map := after;
      install_map ();
      Array.iteri (fun _ r -> Relay.set_shard r !map) relays;
      List.iter
        (fun (tenant, from_, to_) ->
          incr migrations;
          match Authority.export_tenant !(origin from_) ~tenant with
          | Error e -> invalid_arg ("Topology: export failed: " ^ e)
          | Ok payload -> (
            match Authority.adopt_tenant !(origin to_) payload with
            | Error e -> invalid_arg ("Topology: adopt failed: " ^ e)
            | Ok _ -> (
              match Authority.release_tenant !(origin from_) ~tenant with
              | Ok _ -> ()
              | Error e -> invalid_arg ("Topology: release failed: " ^ e))))
        (Shard_map.moved ~before ~after ~tenants)
    | Error e -> invalid_arg ("Topology: flip failed: " ^ e))
  in

  (* --- schedules --- *)
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
          at (tick + t_ix)
            (`Report
              (tenant, Printf.sprintf "rep%d" r, [ candidate_sig tenant j ], 3))
        done
      done)
    tenants;
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
  for f = 0 to config.epoch_flips - 1 do
    at ((f + 1) * config.ticks / (config.epoch_flips + 1)) `Flip
  done;
  for p = 0 to config.partitions - 1 do
    at ((p + 1) * config.ticks / (config.partitions + 2))
      (`Partition (p mod config.relays))
  done;
  for c = 0 to config.relay_crashes - 1 do
    at (((c + 1) * config.ticks / (config.relay_crashes + 1)) + 3)
      (`RelayCrash (c mod config.relays))
  done;
  (* Forks are injected into honest relays (the byzantine slots already
     corrupt their responses at the transport), offset so they land away
     from the partition/crash edges. *)
  for f = 0 to config.fork_injections - 1 do
    at (((f + 1) * config.ticks / (config.fork_injections + 2)) + 11)
      (`Fork ((config.byzantine_relays + f) mod config.relays))
  done;

  (* --- initial sets: every tenant exists on its owner before tick 0 --- *)
  List.iter
    (fun tenant ->
      ignore
        (Authority.publish !(origin (owner_of tenant)) ~tenant
           [
             Signature.make ~id:(fresh_id tenant) ~mode:Signature.Conjunction
               ~cluster_size:1
               [ "leak"; tenant; "seed"; "imei=000000000000000" ];
           ]);
      record_committed tenant)
    tenants;

  (* --- clients --- *)
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
          known = ref (owner_of tenant);
          dc = Delta_client.create ~seed ~tenant ();
          prev_version = 0;
          next_sync = i mod config.sync_period;
        })
  in
  let client_relay_transports c =
    (* Rotate the relay list per client so preferred relays spread. *)
    List.init config.relays (fun j ->
        let ix = (c.index + j) mod config.relays in
        fun raw ->
          incr relay_requests;
          Fault.transport c.plan (relay_server ix) raw)
  in
  let client_origin_transport c raw =
    incr origin_requests;
    route_421 c.plan c.known raw
  in
  let check_sync c (acc : phase_acc) =
    let before = Delta_client.counters c.dc in
    let sync_report =
      if config.relays = 0 then
        Delta_client.sync c.dc ~transport:(client_origin_transport c)
      else
        Delta_client.sync_via c.dc
          ~relays:(client_relay_transports c)
          ~origin:(client_origin_transport c)
    in
    let after = Delta_client.counters c.dc in
    (match sync_report.Signature_client.outcome with
    | Signature_client.Updated v ->
      if after.Delta_client.delta_updates > before.Delta_client.delta_updates
      then acc.a_delta <- acc.a_delta + 1
      else acc.a_snapshot <- acc.a_snapshot + 1;
      (match Hashtbl.find_opt (audit_of c.tenant) v with
      | Some sum when sum = Delta_client.checksum c.dc -> ()
      | _ -> incr divergences);
      if v < c.prev_version then incr regressions;
      c.prev_version <- v
    | Signature_client.Unchanged -> acc.a_unchanged <- acc.a_unchanged + 1
    | Signature_client.Failed _ -> acc.a_failed <- acc.a_failed + 1);
    on_sync c.dc;
    if Prng.chance c.rng config.client_restart_rate then begin
      incr client_restarts;
      harvest_client c.dc;
      c.dc <- Delta_client.create ~seed:(Prng.bits30 c.rng) ~tenant:c.tenant ();
      c.prev_version <- 0
    end
  in

  (* --- the tick loop --- *)
  let retries = ref [] in
  for tick = 0 to config.ticks - 1 do
    current_tick := tick;
    let events = List.rev buckets.(tick) in
    let due, later = List.partition (fun (t, _) -> t <= tick) !retries in
    retries := later;
    let events = events @ List.map snd due in
    List.iter
      (fun ev ->
        match ev with
        | `Publish tenant -> publish_with_crash tenant (mutate_set tenant)
        | `Compact -> compact_with_crash ()
        | `Flip -> flip ()
        | `Partition i ->
          incr partitions_done;
          partitioned_until.(i) <-
            min (tick + config.partition_ticks) (config.ticks - 1)
        | `RelayCrash i ->
          incr relay_crashes_done;
          harvest_relay relays.(i);
          relays.(i) <- fresh_relay i;
          wire_relay i
        | `Fork i ->
          incr forks_done;
          List.iter
            (fun tenant ->
              if Relay.synced relays.(i) ~tenant then
                Relay.inject_fork relays.(i) ~tenant)
            tenants
        | `Report (tenant, reporter, sigs, attempts) -> (
          (* Reports enter through the relay tier and are forwarded;
             without relays they go straight to the owner origin. *)
          let server =
            if config.relays = 0 then
              Authority.wire_transport !(origin (owner_of tenant))
            else relay_server (Prng.int server_rng config.relays)
          in
          let transport raw = Fault.transport reporter_plan server raw in
          match Protocol.post_candidates transport ~tenant ~reporter sigs with
          | Ok tally ->
            accepted_reports := !accepted_reports + tally.Protocol.accepted;
            duplicate_reports := !duplicate_reports + tally.Protocol.duplicate;
            capped_reports := !capped_reports + tally.Protocol.capped;
            record_committed tenant
          | Error _ ->
            if attempts > 1 then
              retries :=
                (tick + 3, `Report (tenant, reporter, sigs, attempts - 1))
                :: !retries
            else incr lost_reports))
      events;
    if events <> [] then record_all ();
    Array.iter (fun r -> Relay.set_clock r tick) relays;
    for i = 0 to config.relays - 1 do
      if (tick + i) mod config.relay_sync_period = 0 then relay_sync_all i
    done;
    (* Gossip: each relay exchanges head digests with its siblings once
       per period.  A partitioned relay must come out of its round no
       staler than the freshest reachable honest sibling — that bound is
       the second new gated invariant. *)
    if config.gossip_period > 0 then
      for i = 0 to config.relays - 1 do
        if (tick + i) mod config.gossip_period = 0 then begin
          Relay.gossip relays.(i)
            ~upstream:(fun ~tenant -> relay_upstream i tenant);
          if partitioned i then
            List.iter
              (fun tenant ->
                if Relay.synced relays.(i) ~tenant then begin
                  let best = ref (Relay.version relays.(i) ~tenant) in
                  for j = 0 to config.relays - 1 do
                    if
                      j <> i && (not (is_byzantine j))
                      && Relay.consistent relays.(j) ~tenant
                    then best := max !best (Relay.version relays.(j) ~tenant)
                  done;
                  if Relay.version relays.(i) ~tenant < !best then
                    incr staleness_lapses
                end)
              tenants
        end
      done;
    (* Serving audit: any relay whose guard vouches for its mirror must
       match the committed checksum at the version it serves. *)
    for i = 0 to config.relays - 1 do
      List.iter
        (fun tenant ->
          if Relay.consistent relays.(i) ~tenant then begin
            let v = Relay.version relays.(i) ~tenant in
            match Hashtbl.find_opt (audit_of tenant) v with
            | Some sum ->
              if Relay.checksum relays.(i) ~tenant <> sum then
                incr relay_divergences
            | None -> ()
          end)
        tenants
    done;
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

  (* --- drain --- *)
  current_tick := config.ticks;  (* all partitions healed *)
  Array.iter (fun r -> Relay.set_clock r config.ticks) relays;
  let final_version tenant =
    Authority.version !(origin (owner_of tenant)) ~tenant
  in
  let final_sum tenant =
    Authority.checksum !(origin (owner_of tenant)) ~tenant
  in
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
    for i = 0 to config.relays - 1 do relay_sync_all i done;
    Array.iter (fun c -> if not (converged c) then check_sync c drain) clients
  done;
  let unconverged =
    Array.fold_left (fun n c -> if converged c then n else n + 1) 0 clients
  in

  (* --- judgment --- *)
  List.iter
    (fun name -> all_promotions := Authority.promotions !(origin name) @ !all_promotions)
    all_names;
  let promotions = List.length !all_promotions in
  let sub_k_promotions =
    List.length
      (List.filter (fun reporters -> reporters < config.k) !all_promotions)
  in
  Array.iter (fun c -> harvest_client c.dc) clients;
  Array.iter harvest_relay relays;
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
    add byz_plan;
    Array.iter add relay_plans;
    Array.iter (fun c -> add c.plan) clients;
    List.map
      (fun kind ->
        (kind, Option.value ~default:0 (Hashtbl.find_opt totals kind)))
      Fault.all_kinds
  in
  let final_versions = List.map (fun t -> (t, final_version t)) tenants in
  let tenant_owners = List.map (fun t -> (t, owner_of t)) tenants in
  List.iter (fun name -> Authority.close !(origin name)) all_names;
  let rc = !acc_relay in
  let total_requests = !relay_requests + !origin_requests in
  let offload =
    float_of_int !relay_requests /. float_of_int (max 1 total_requests)
  in
  let report =
    {
      config;
      ramp = freeze ramp;
      steady = freeze steady;
      drain = freeze drain;
      relay_requests = !relay_requests;
      origin_requests = !origin_requests;
      offload;
      escalations = !acc_escalations;
      fork_smells = !acc_fork_smells;
      forced_full = !acc_forced_full;
      regressions_refused = !acc_regr_refused;
      misdirected_follows = !misdirected_follows;
      origin_crashes = !origin_crashes;
      torn_tails = !torn_tails;
      recoveries = !recoveries;
      promoted_on_recovery = !promoted_on_recovery;
      relay_crashes_done = !relay_crashes_done;
      partitions_done = !partitions_done;
      epoch_flips_done = !epoch_flips_done;
      migrations = !migrations;
      final_epoch = Shard_map.epoch !map;
      relay_sync_rounds = rc.Relay.sync_rounds;
      relay_sync_failures = rc.Relay.sync_failures;
      relay_resnapshots = rc.Relay.resnapshots;
      relay_served =
        rc.Relay.served_delta + rc.Relay.served_snapshot
        + rc.Relay.served_not_modified;
      relay_unready = rc.Relay.served_unready;
      relay_inconsistent = rc.Relay.served_inconsistent;
      gossip_rounds = rc.Relay.gossip_rounds;
      gossip_catchups = rc.Relay.gossip_catchups;
      repairs = rc.Relay.repairs;
      repair_bytes = rc.Relay.repair_bytes;
      resnapshot_bytes = rc.Relay.resnapshot_bytes;
      forks_done = !forks_done;
      forwarded_reports = rc.Relay.forwarded;
      forward_failures = rc.Relay.forward_failures;
      client_restarts = !client_restarts;
      compactions = !compactions;
      promotions;
      accepted_reports = !accepted_reports;
      duplicate_reports = !duplicate_reports;
      capped_reports = !capped_reports;
      lost_reports = !lost_reports;
      fault_events;
      final_versions;
      tenant_owners;
      invariants =
        {
          divergences = !divergences;
          regressions = !regressions;
          sub_k_promotions;
          recovery_mismatches = !recovery_mismatches;
          unconverged;
          relay_divergences = !relay_divergences;
          staleness_lapses = !staleness_lapses;
        };
    }
  in
  if not (Obs.is_noop obs) then begin
    let gauge name help v = Obs.Gauge.set (Obs.gauge obs ~help name) v in
    gauge "leakdetect_topology_divergences"
      "Client/committed set divergences in the topology soak."
      report.invariants.divergences;
    gauge "leakdetect_topology_unconverged"
      "Clients that never converged to the post-rebalance owner."
      report.invariants.unconverged;
    gauge "leakdetect_topology_offload_permille"
      "Relay share of client sync requests, in permille."
      (int_of_float (offload *. 1000.))
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
            ("origins", Json.Int r.config.origins);
            ("standby_origins", Json.Int r.config.standby_origins);
            ("relays", Json.Int r.config.relays);
            ("byzantine_relays", Json.Int r.config.byzantine_relays);
            ( "byzantine_corrupt_rate",
              Json.Float r.config.byzantine_corrupt_rate );
            ("clients", Json.Int r.config.clients);
            ("tenants", Json.Int r.config.tenants);
            ("ticks", Json.Int r.config.ticks);
            ("sync_period", Json.Int r.config.sync_period);
            ("relay_sync_period", Json.Int r.config.relay_sync_period);
            ("publishes", Json.Int r.config.publishes);
            ("compact_every", Json.Int r.config.compact_every);
            ("k", Json.Int r.config.k);
            ("reporter_cap", Json.Int r.config.reporter_cap);
            ("compact_keep", Json.Int r.config.compact_keep);
            ("candidates", Json.Int r.config.candidates);
            ("byzantine", Json.Int r.config.byzantine);
            ("drop_rate", Json.Float r.config.fault.Fault.drop_rate);
            ("corrupt_rate", Json.Float r.config.fault.Fault.corrupt_rate);
            ( "server_error_rate",
              Json.Float r.config.fault.Fault.server_error_rate );
            ("truncate_rate", Json.Float r.config.fault.Fault.truncate_rate);
            ("duplicate_rate", Json.Float r.config.fault.Fault.duplicate_rate);
            ("delay_rate", Json.Float r.config.fault.Fault.delay_rate);
            ("max_delay", Json.Int r.config.fault.Fault.max_delay);
            ("crash_rate", Json.Float r.config.fault.Fault.crash_rate);
            ("torn_write_rate", Json.Float r.config.fault.Fault.torn_write_rate);
            ("partitions", Json.Int r.config.partitions);
            ("partition_ticks", Json.Int r.config.partition_ticks);
            ("relay_crashes", Json.Int r.config.relay_crashes);
            ("epoch_flips", Json.Int r.config.epoch_flips);
            ("origin_crash_rate", Json.Float r.config.origin_crash_rate);
            ("client_restart_rate", Json.Float r.config.client_restart_rate);
            ("min_offload", Json.Float r.config.min_offload);
            ("drain_rounds", Json.Int r.config.drain_rounds);
            ("gossip_period", Json.Int r.config.gossip_period);
            ("fork_injections", Json.Int r.config.fork_injections);
            ("origin_weight", Json.Int r.config.origin_weight);
            ("seed", Json.Int r.config.seed);
          ] );
      ("ramp", phase_to_json r.ramp);
      ("steady", phase_to_json r.steady);
      ("drain", phase_to_json r.drain);
      ("relay_requests", Json.Int r.relay_requests);
      ("origin_requests", Json.Int r.origin_requests);
      ("offload", Json.Float r.offload);
      ("escalations", Json.Int r.escalations);
      ("fork_smells", Json.Int r.fork_smells);
      ("forced_full", Json.Int r.forced_full);
      ("regressions_refused", Json.Int r.regressions_refused);
      ("misdirected_follows", Json.Int r.misdirected_follows);
      ("origin_crashes", Json.Int r.origin_crashes);
      ("torn_tails", Json.Int r.torn_tails);
      ("recoveries", Json.Int r.recoveries);
      ("promoted_on_recovery", Json.Int r.promoted_on_recovery);
      ("relay_crashes_done", Json.Int r.relay_crashes_done);
      ("partitions_done", Json.Int r.partitions_done);
      ("epoch_flips_done", Json.Int r.epoch_flips_done);
      ("migrations", Json.Int r.migrations);
      ("final_epoch", Json.Int r.final_epoch);
      ("relay_sync_rounds", Json.Int r.relay_sync_rounds);
      ("relay_sync_failures", Json.Int r.relay_sync_failures);
      ("relay_resnapshots", Json.Int r.relay_resnapshots);
      ("relay_served", Json.Int r.relay_served);
      ("relay_unready", Json.Int r.relay_unready);
      ("relay_inconsistent", Json.Int r.relay_inconsistent);
      ("gossip_rounds", Json.Int r.gossip_rounds);
      ("gossip_catchups", Json.Int r.gossip_catchups);
      ("repairs", Json.Int r.repairs);
      ("repair_bytes", Json.Int r.repair_bytes);
      ("resnapshot_bytes", Json.Int r.resnapshot_bytes);
      ("forks_done", Json.Int r.forks_done);
      ("forwarded_reports", Json.Int r.forwarded_reports);
      ("forward_failures", Json.Int r.forward_failures);
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
      ( "tenant_owners",
        Json.Obj (List.map (fun (t, o) -> (t, Json.String o)) r.tenant_owners) );
      ( "invariants",
        Json.Obj
          [
            ("divergences", Json.Int r.invariants.divergences);
            ("regressions", Json.Int r.invariants.regressions);
            ("sub_k_promotions", Json.Int r.invariants.sub_k_promotions);
            ("recovery_mismatches", Json.Int r.invariants.recovery_mismatches);
            ("unconverged", Json.Int r.invariants.unconverged);
            ("relay_divergences", Json.Int r.invariants.relay_divergences);
            ("staleness_lapses", Json.Int r.invariants.staleness_lapses);
          ] );
      ("ok", Json.Bool (ok r));
    ]

let summary r =
  let p name c =
    Printf.sprintf "%s: %d delta / %d snapshot / %d unchanged / %d failed" name
      c.delta c.snapshot c.unchanged c.failed
  in
  let relay_lines =
    if r.config.relays = 0 then
      [ Printf.sprintf "  origins served all %d client sync requests" r.origin_requests ]
    else
      [
        Printf.sprintf
          "  relays: %d sync rounds (%d failed), %d resnapshots (%d B), %d served, %d unready / %d inconsistent 503s"
          r.relay_sync_rounds r.relay_sync_failures r.relay_resnapshots
          r.resnapshot_bytes r.relay_served r.relay_unready r.relay_inconsistent;
        Printf.sprintf
          "  gossip: %d rounds, %d sibling catch-ups; %d forks injected, %d ranged repairs (%d B vs %d B resnapshot)"
          r.gossip_rounds r.gossip_catchups r.forks_done r.repairs r.repair_bytes
          r.resnapshot_bytes;
        Printf.sprintf "  offload: %.1f%% of %d client sync requests via relays"
          (r.offload *. 100.)
          (r.relay_requests + r.origin_requests);
      ]
  in
  String.concat "\n"
    ([
       Printf.sprintf
         "topology: %d+%d origins, %d relays (%d byzantine), %d clients, %d tenants, %d ticks (seed %d)"
         r.config.origins r.config.standby_origins r.config.relays
         r.config.byzantine_relays r.config.clients r.config.tenants
         r.config.ticks r.config.seed;
       p "  ramp  " r.ramp;
       p "  steady" r.steady;
       p "  drain " r.drain;
       Printf.sprintf
         "  topology: %d partitions, %d relay crashes, %d epoch flips (%d tenants migrated, final epoch %d)"
         r.partitions_done r.relay_crashes_done r.epoch_flips_done r.migrations
         r.final_epoch;
       Printf.sprintf
         "  origins: %d crashes (%d torn tails), %d recoveries, %d compactions"
         r.origin_crashes r.torn_tails r.recoveries r.compactions;
     ]
    @ relay_lines
    @ [
        Printf.sprintf
          "  crowd: %d promotions (%d on recovery), %d accepted / %d duplicate / %d capped / %d lost (%d forwarded, %d forward failures)"
          r.promotions r.promoted_on_recovery r.accepted_reports
          r.duplicate_reports r.capped_reports r.lost_reports r.forwarded_reports
          r.forward_failures;
        Printf.sprintf
          "  clients: %d restarts, %d forced-full, %d refused regressions, %d fork smells, %d escalations, %d 421-follows"
          r.client_restarts r.forced_full r.regressions_refused r.fork_smells
          r.escalations r.misdirected_follows;
        Printf.sprintf "  steady delta:snapshot ratio %.1f" (steady_delta_ratio r);
        Printf.sprintf
          "  invariants: %d divergences, %d regressions, %d sub-k promotions, %d recovery mismatches, %d unconverged, %d relay divergences, %d staleness lapses"
          r.invariants.divergences r.invariants.regressions
          r.invariants.sub_k_promotions r.invariants.recovery_mismatches
          r.invariants.unconverged r.invariants.relay_divergences
          r.invariants.staleness_lapses;
        (if ok r then "  OK"
         else if invariants_hold r then "  OFFLOAD BELOW FLOOR"
         else "  INVARIANT VIOLATION");
      ])
