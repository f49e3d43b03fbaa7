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
  mutable delta : int;
  mutable snapshot : int;
  mutable unchanged : int;
  mutable failed : int;
}

type invariants = {
  mutable divergences : int;
  mutable regressions : int;
  mutable sub_k_promotions : int;
  mutable recovery_mismatches : int;
  mutable unconverged : int;
  mutable relay_divergences : int;
      (* A relay whose serving guard passed while its mirror did not
         match the committed checksum at its version. *)
  mutable staleness_lapses : int;
      (* A partitioned relay left strictly behind a reachable honest
         sibling right after its own gossip round. *)
}

type report = {
  config : config;
  ramp : phase_counters;
  steady : phase_counters;
  drain : phase_counters;
  mutable relay_requests : int;
  mutable origin_requests : int;
  mutable offload : float;
  mutable escalations : int;
  mutable fork_smells : int;
  mutable forced_full : int;
  mutable regressions_refused : int;
  mutable misdirected_follows : int;
  mutable origin_crashes : int;
  mutable torn_tails : int;
  mutable recoveries : int;
  mutable promoted_on_recovery : int;
  mutable relay_crashes_done : int;
  mutable partitions_done : int;
  mutable epoch_flips_done : int;
  mutable migrations : int;
  mutable final_epoch : int;
  mutable relay_sync_rounds : int;
  mutable relay_sync_failures : int;
  mutable relay_resnapshots : int;
  mutable relay_served : int;
  mutable relay_unready : int;
  mutable relay_inconsistent : int;
  mutable gossip_rounds : int;
  mutable gossip_catchups : int;
  mutable repairs : int;
  mutable repair_bytes : int;
  mutable resnapshot_bytes : int;
  mutable forks_done : int;
  mutable forwarded_reports : int;
  mutable forward_failures : int;
  mutable client_restarts : int;
  mutable compactions : int;
  mutable promotions : int;
  mutable accepted_reports : int;
  mutable duplicate_reports : int;
  mutable capped_reports : int;
  mutable lost_reports : int;
  mutable fault_events : (Fault.kind * int) list;
  mutable final_versions : (string * int) list;
  mutable tenant_owners : (string * string) list;
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
let relay_name i = Printf.sprintf "relay%d" i

(* --- engine state --- *)

type event =
  | Publish of string
  | Compact
  | Flip
  | Partition of int  (* relay slot *)
  | Relay_crash of int
  | Fork of int
  | Report of string * string * Signature.t list * int
      (* tenant, reporter, candidates, attempts left *)

type origin = {
  odir : string;
  mutable auth : Authority.t;
  mutable crashed : Authority.t list;
      (* Closed incarnations, still counted for their promotions. *)
}

type sim_client = {
  index : int;
  tenant : string;
  plan : Fault.plan;
  rng : Prng.t;
  known : string ref;  (* owner origin as this client last learned it *)
  mutable dc : Delta_client.t;
  mutable restarted : Delta_client.t list;
      (* Earlier incarnations, still counted for their fetch counters. *)
  mutable prev_version : int;
  mutable next_sync : int;
}

type state = {
  config : config;
  obs : Obs.t;
  on_sync : Delta_client.t -> unit;
  seeds : Prng.t;  (* seeds every plan, relay and client, in creation order *)
  server_rng : Prng.t;  (* crash points, torn tails, report routing *)
  mutate_rng : Prng.t;  (* published-set evolution *)
  reporter_plan : Fault.plan;
  byz_plan : Fault.plan;
  origins : (string, origin) Hashtbl.t;
  origin_names : string list;  (* the initial map's origins, then standbys *)
  mutable map : Shard_map.t;
  tenants : string list;
  audit : (string, (int, int) Hashtbl.t) Hashtbl.t;
      (* committed (tenant, version) -> checksum *)
  last_recorded : (string, int) Hashtbl.t;
  next_pub_id : (string, int) Hashtbl.t;
  mutable now : int;
  partitioned_until : int array;
  relay_plans : Fault.plan array;
  relay_known : (string, string ref) Hashtbl.t array;
      (* Per relay slot, per tenant: the owner as the relay last learned it. *)
  relays : Relay.t array;
  mutable crashed_relays : Relay.t list;
      (* Replaced incarnations, still counted for their counters. *)
  clients : sim_client array;
  schedule : event list array;  (* per tick, newest first *)
  mutable retries : (int * event) list;  (* (due tick, report) *)
  r : report;  (* every count, kept where it is observed *)
}

let origin s name = (Hashtbl.find s.origins name).auth
let owner_of s tenant = Shard_map.owner s.map ~tenant
let owner s tenant = origin s (owner_of s tenant)

let authority_config (config : config) =
  {
    Authority.k = config.k;
    reporter_cap = config.reporter_cap;
    compact_keep = config.compact_keep;
  }

let install_map s =
  List.iter
    (fun name -> Authority.set_shard (origin s name) ~self:name s.map)
    s.origin_names

(* --- the audit table: committed (tenant, version) -> checksum --- *)

let audit_of s tenant =
  match Hashtbl.find_opt s.audit tenant with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 256 in
    Hashtbl.replace s.audit tenant tbl;
    tbl

let last_recorded s tenant =
  Option.value ~default:0 (Hashtbl.find_opt s.last_recorded tenant)

let record_committed s tenant =
  let tbl = audit_of s tenant in
  let auth = owner s tenant in
  let last = last_recorded s tenant in
  let head = Authority.version auth ~tenant in
  for v = last + 1 to head do
    match Authority.checksum_at auth ~tenant ~version:v with
    | Some sum -> Hashtbl.replace tbl v sum
    | None -> ()
  done;
  if head > last then Hashtbl.replace s.last_recorded tenant head

let record_all s = List.iter (record_committed s) s.tenants

(* --- origin crash and recovery --- *)

(* The recovered origin must still answer for everything the audit table
   recorded about the tenants it holds. *)
let check_recovery s auth =
  let inv = s.r.invariants in
  let mismatch () = inv.recovery_mismatches <- inv.recovery_mismatches + 1 in
  List.iter
    (fun tenant ->
      if Authority.owns auth ~tenant && List.mem tenant (Authority.tenants auth)
      then begin
        if Authority.version auth ~tenant < last_recorded s tenant then
          mismatch ();
        let horizon = Authority.horizon auth ~tenant in
        Hashtbl.iter
          (fun v sum ->
            if v >= horizon then
              match Authority.checksum_at auth ~tenant ~version:v with
              | Some sum' when sum' = sum -> ()
              | Some _ -> mismatch ()
              | None ->
                if v <= Authority.version auth ~tenant then mismatch ())
          (audit_of s tenant)
      end)
    s.tenants

let reopen s name =
  let r = s.r and o = Hashtbl.find s.origins name in
  Authority.close o.auth;
  o.crashed <- o.auth :: o.crashed;
  if Prng.chance s.server_rng 0.5 then begin
    r.torn_tails <- r.torn_tails + 1;
    let path = Authority.wal_path ~dir:o.odir in
    let frame = Leakdetect_store.Wal.frame "torn garbage payload" in
    let partial = String.sub frame 0 (String.length frame - 3) in
    let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
    output_string oc partial;
    close_out oc
  end;
  (match
     Authority.open_ ~obs:s.obs ~config:(authority_config s.config)
       ~dir:o.odir ()
   with
  | Ok (t, rep) ->
    o.auth <- t;
    r.recoveries <- r.recoveries + 1;
    r.promoted_on_recovery <-
      r.promoted_on_recovery + rep.Authority.promoted_on_recovery;
    (* The shard map rides the journal; a recovered origin that lost it
       would serve tenants it no longer owns.  Re-assert the current map
       (idempotent when replay already restored it). *)
    Authority.set_shard t ~self:name s.map
  | Error e -> invalid_arg ("Topology: recovery failed: " ^ e));
  check_recovery s o.auth;
  record_all s

let publish_with_crash s tenant desired =
  let name = owner_of s tenant in
  let crash_at =
    if Prng.chance s.server_rng s.config.origin_crash_rate then
      Some (Prng.int s.server_rng 4)
    else None
  in
  (try
     ignore
       (Authority.publish
          ~inject:(fun i ->
            if crash_at = Some i then raise (Authority.Crashed "mid-publish"))
          (origin s name) ~tenant desired)
   with Authority.Crashed _ ->
     s.r.origin_crashes <- s.r.origin_crashes + 1;
     reopen s name;
     ignore (Authority.publish (origin s name) ~tenant desired));
  record_committed s tenant

let compact_with_crash s =
  List.iter
    (fun name ->
      let crash_at =
        if Prng.chance s.server_rng s.config.origin_crash_rate then
          Some (if Prng.bool s.server_rng then "pre_snapshot" else "post_snapshot")
        else None
      in
      try
        Authority.compact
          ~inject:(fun point ->
            if crash_at = Some point then
              raise (Authority.Crashed ("mid-compaction " ^ point)))
          (origin s name);
        s.r.compactions <- s.r.compactions + 1
      with Authority.Crashed _ ->
        s.r.origin_crashes <- s.r.origin_crashes + 1;
        reopen s name)
    s.origin_names;
  record_all s

(* --- published-set evolution --- *)

let fresh_id s tenant =
  let floor_id =
    List.fold_left
      (fun m sg -> max m sg.Signature.id)
      0
      (Authority.signatures (owner s tenant) ~tenant)
  in
  let n =
    max (floor_id + 1)
      (Option.value ~default:1 (Hashtbl.find_opt s.next_pub_id tenant))
  in
  Hashtbl.replace s.next_pub_id tenant (n + 1);
  n

let mutate_set s tenant =
  let fresh_token () = Printf.sprintf "x%06x" (Prng.int s.mutate_rng 0xFFFFFF) in
  let current = Authority.signatures (owner s tenant) ~tenant in
  let adds = 1 + Prng.int s.mutate_rng 2 in
  let added =
    List.init adds (fun _ ->
        Signature.make ~id:(fresh_id s tenant) ~mode:Signature.Conjunction
          ~cluster_size:(1 + Prng.int s.mutate_rng 9)
          [ "leak"; tenant; fresh_token (); "imei=" ^ fresh_token () ])
  in
  let current =
    if List.length current > 3 && Prng.chance s.mutate_rng 0.3 then
      match current with
      | sg :: _ -> Changelog.apply_change current (Changelog.Retire sg.Signature.id)
      | [] -> current
    else current
  in
  current @ added

(* --- transports --- *)

(* Send to the owner as [known] remembers it, following one 421 redirect:
   stale routing self-heals through the misdirection answer itself, never
   through out-of-band knowledge. *)
let route_421 s plan known raw =
  let send name = Fault.transport plan (Authority.wire_transport (origin s name)) raw in
  match send !known with
  | Error _ as e -> e
  | Ok resp_raw -> (
    match Protocol.misdirected_to resp_raw with
    | Some next when next <> !known && Hashtbl.mem s.origins next ->
      s.r.misdirected_follows <- s.r.misdirected_follows + 1;
      known := next;
      send next
    | _ -> Ok resp_raw)

let partitioned s i = s.now <= s.partitioned_until.(i)
let is_byzantine s i = i < s.config.byzantine_relays

let relay_upstream s i tenant raw =
  if partitioned s i then Error "partitioned from origins"
  else route_421 s s.relay_plans.(i) (Hashtbl.find s.relay_known.(i) tenant) raw

let relay_post_upstream s i raw =
  if partitioned s i then Error "partitioned from origins"
  else
    match Protocol.parse_request raw with
    | Error _ as e -> e
    | Ok request -> (
      match Protocol.tenant_of request with
      | Some tenant when Hashtbl.mem s.relay_known.(i) tenant ->
        route_421 s s.relay_plans.(i) (Hashtbl.find s.relay_known.(i) tenant) raw
      | _ -> Error "forward: unroutable tenant")

(* What clients see of relay [i]: its wire transport, with responses
   corrupted at the byzantine rate for compromised slots. *)
let relay_server s i raw =
  match Relay.wire_transport s.relays.(i) raw with
  | Error _ as e -> e
  | Ok response ->
    if is_byzantine s i then Ok (Fault.corrupt_string s.byz_plan response)
    else Ok response

let client_relay_transports s c =
  (* Rotate the relay list per client so preferred relays spread. *)
  List.init s.config.relays (fun j ->
      let ix = (c.index + j) mod s.config.relays in
      fun raw ->
        s.r.relay_requests <- s.r.relay_requests + 1;
        Fault.transport c.plan (relay_server s ix) raw)

let client_origin_transport s c raw =
  s.r.origin_requests <- s.r.origin_requests + 1;
  route_421 s c.plan c.known raw

(* --- set-up: origins, map, relays, clients, schedule --- *)

let open_origin ~obs ~dir (config : config) name =
  let odir = Filename.concat dir name in
  match Authority.open_ ~obs ~config:(authority_config config) ~dir:odir () with
  | Ok (auth, _) -> { odir; auth; crashed = [] }
  | Error e -> invalid_arg (Printf.sprintf "Topology: cannot open %s: %s" name e)

(* Capacity weights (origin0 optionally heavier) and a synthetic proximity
   table — relay-to-origin and relay-to-relay distances that bias gossip
   peer preference without ever affecting ownership. *)
let initial_map (config : config) origin_names =
  let weights =
    if config.origin_weight > 1 then [ (origin_name 0, config.origin_weight) ]
    else []
  in
  let relay_ixs = List.init config.relays Fun.id in
  let proximity =
    List.concat_map
      (fun i ->
        let rid = relay_name i in
        List.mapi (fun j o -> (rid, o, (i + j) mod 3)) origin_names
        @ List.filter_map
            (fun j -> if j = i then None else Some (rid, relay_name j, abs (i - j)))
            relay_ixs)
      relay_ixs
  in
  match
    Shard_map.create ~weights ~proximity ~epoch:0
      ~origins:(List.init config.origins origin_name) ()
  with
  | Ok m -> m
  | Error e -> invalid_arg ("Topology: " ^ e)

let new_relay ~obs (config : config) seeds tenants i =
  Relay.create ~obs
    ~config:
      {
        Relay.compact_keep = config.compact_keep;
        digest_interval = Relay.default_config.Relay.digest_interval;
      }
    ~seed:(Prng.bits30 seeds) ~id:(relay_name i) ~tenants ()

(* Relay-to-relay gossip links are loss-free (the partition model cuts
   relays off from origins, not from each other), but a byzantine sibling
   corrupts what it serves — gossip has to survive that. *)
let wire_relay s i =
  let r = s.relays.(i) in
  Relay.set_upstream r (relay_post_upstream s i);
  Relay.set_peers r
    (List.filter_map
       (fun j -> if j = i then None else Some (relay_name j, relay_server s j))
       (List.init s.config.relays Fun.id));
  Relay.set_shard r s.map;
  Relay.set_clock r s.now

let new_client (config : config) seeds map i =
  let tenant = tenant_name (i mod config.tenants) in
  let seed = Prng.bits30 seeds in
  let rng = Prng.create (Prng.bits30 seeds) in
  {
    index = i;
    tenant;
    plan = Fault.create ~seed config.fault;
    rng;
    known = ref (Shard_map.owner map ~tenant);
    dc = Delta_client.create ~seed ~tenant ();
    restarted = [];
    prev_version = 0;
    next_sync = i mod config.sync_period;
  }

(* Every hostility at its tick.  Publishes and reports stop at 90% of the
   run, leaving the rest to settle. *)
let schedule (config : config) =
  let mutation_end = max 1 (config.ticks * 9 / 10) in
  let buckets = Array.make config.ticks [] in
  let at tick ev =
    let tick = min (config.ticks - 1) (max 0 tick) in
    buckets.(tick) <- ev :: buckets.(tick)
  in
  for j = 0 to config.publishes - 1 do
    let tick = j * mutation_end / config.publishes in
    at tick (Publish (tenant_name (j mod config.tenants)));
    if config.compact_every > 0 && (j + 1) mod config.compact_every = 0 then
      at (tick + 1) Compact
  done;
  for t_ix = 0 to config.tenants - 1 do
    let tenant = tenant_name t_ix in
    for j = 0 to config.candidates - 1 do
      for r = 0 to config.k - 1 do
        let tick =
          ((j * config.k) + r + 1) * mutation_end
          / ((config.candidates * config.k) + 2)
        in
        let candidate =
          Signature.make ~id:0 ~mode:Signature.Conjunction ~cluster_size:1
            [ "cand"; tenant; Printf.sprintf "c%d" j; "imsi=240080000000000" ]
        in
        at (tick + t_ix) (Report (tenant, Printf.sprintf "rep%d" r, [ candidate ], 3))
      done
    done
  done;
  let flooded = ref 0 in
  for b = 0 to config.byzantine - 1 do
    let tenant = tenant_name (b mod config.tenants) in
    let tick = ref (5 + b) in
    while !tick < mutation_end do
      let batch =
        List.init 3 (fun _ ->
            incr flooded;
            Signature.make ~id:0 ~mode:Signature.Conjunction ~cluster_size:1
              [ "flood"; tenant; Printf.sprintf "z%d" !flooded ])
      in
      at !tick (Report (tenant, Printf.sprintf "byz%d" b, batch, 1));
      tick := !tick + max 1 (mutation_end / 20)
    done
  done;
  for f = 0 to config.epoch_flips - 1 do
    at ((f + 1) * config.ticks / (config.epoch_flips + 1)) Flip
  done;
  for p = 0 to config.partitions - 1 do
    at ((p + 1) * config.ticks / (config.partitions + 2))
      (Partition (p mod config.relays))
  done;
  for c = 0 to config.relay_crashes - 1 do
    at (((c + 1) * config.ticks / (config.relay_crashes + 1)) + 3)
      (Relay_crash (c mod config.relays))
  done;
  (* Forks are injected into honest relays (the byzantine slots already
     corrupt their responses at the transport), offset so they land away
     from the partition/crash edges. *)
  for f = 0 to config.fork_injections - 1 do
    at (((f + 1) * config.ticks / (config.fork_injections + 2)) + 11)
      (Fork ((config.byzantine_relays + f) mod config.relays))
  done;
  buckets

let new_report config =
  let phase () = { delta = 0; snapshot = 0; unchanged = 0; failed = 0 } in
  {
    config; ramp = phase (); steady = phase (); drain = phase ();
    relay_requests = 0; origin_requests = 0; offload = 0.; escalations = 0;
    fork_smells = 0; forced_full = 0; regressions_refused = 0;
    misdirected_follows = 0; origin_crashes = 0; torn_tails = 0;
    recoveries = 0; promoted_on_recovery = 0; relay_crashes_done = 0;
    partitions_done = 0; epoch_flips_done = 0; migrations = 0;
    final_epoch = 0; relay_sync_rounds = 0; relay_sync_failures = 0;
    relay_resnapshots = 0; relay_served = 0; relay_unready = 0;
    relay_inconsistent = 0; gossip_rounds = 0; gossip_catchups = 0;
    repairs = 0; repair_bytes = 0; resnapshot_bytes = 0; forks_done = 0;
    forwarded_reports = 0; forward_failures = 0; client_restarts = 0;
    compactions = 0; promotions = 0; accepted_reports = 0;
    duplicate_reports = 0; capped_reports = 0; lost_reports = 0;
    fault_events = []; final_versions = []; tenant_owners = [];
    invariants =
      { divergences = 0; regressions = 0; sub_k_promotions = 0;
        recovery_mismatches = 0; unconverged = 0; relay_divergences = 0;
        staleness_lapses = 0 };
  }

(* The seed draws happen in a fixed order — server, mutation, reporter and
   byzantine streams, then each relay's fault plan, each relay, each
   client — so a run is a function of [config.seed] alone.  Every tenant
   exists on its owner before tick 0. *)
let setup ~obs ~on_sync ~dir (config : config) =
  validate config;
  let seeds = Prng.create config.seed in
  let server_rng = Prng.create (Prng.bits30 seeds) in
  let mutate_rng = Prng.create (Prng.bits30 seeds) in
  let reporter_plan = Fault.create ~seed:(Prng.bits30 seeds) config.fault in
  let byz_plan =
    Fault.create ~seed:(Prng.bits30 seeds)
      { Fault.default with Fault.corrupt_rate = config.byzantine_corrupt_rate }
  in
  Result.iter_error (fun e -> invalid_arg ("Topology: " ^ e))
    (Leakdetect_store.State_dir.ensure dir);
  let origin_names = List.init (config.origins + config.standby_origins) origin_name in
  let origins = Hashtbl.create 8 in
  List.iter
    (fun name -> Hashtbl.replace origins name (open_origin ~obs ~dir config name))
    origin_names;
  let map = initial_map config origin_names in
  let tenants = List.init config.tenants tenant_name in
  let relay_plans =
    Array.init config.relays (fun _ ->
        Fault.create ~seed:(Prng.bits30 seeds) config.fault)
  in
  let relays = Array.init config.relays (new_relay ~obs config seeds tenants) in
  let clients = Array.init config.clients (new_client config seeds map) in
  let s =
    {
      config; obs; on_sync; seeds; server_rng; mutate_rng; reporter_plan;
      byz_plan; origins; origin_names; map; tenants;
      audit = Hashtbl.create 8;
      last_recorded = Hashtbl.create 8;
      next_pub_id = Hashtbl.create 8;
      now = 0;
      partitioned_until = Array.make config.relays (-1);
      relay_plans;
      relay_known =
        Array.init config.relays (fun _ ->
            let tbl = Hashtbl.create 8 in
            List.iter
              (fun t -> Hashtbl.replace tbl t (ref (Shard_map.owner map ~tenant:t)))
              tenants;
            tbl);
      relays;
      crashed_relays = [];
      clients;
      schedule = schedule config;
      retries = [];
      r = new_report config;
    }
  in
  install_map s;
  Array.iteri (fun i _ -> wire_relay s i) relays;
  List.iter
    (fun tenant ->
      ignore
        (Authority.publish (owner s tenant) ~tenant
           [
             Signature.make ~id:(fresh_id s tenant) ~mode:Signature.Conjunction
               ~cluster_size:1
               [ "leak"; tenant; "seed"; "imei=000000000000000" ];
           ]);
      record_committed s tenant)
    tenants;
  s

(* --- one tick: events, relay sync and gossip, serving audit, client syncs --- *)

(* Odd flips widen the map to the standby origins, even flips shrink it
   back; every tenant that changes owner migrates by export, adopt and
   release. *)
let flip s =
  let r = s.r in
  r.epoch_flips_done <- r.epoch_flips_done + 1;
  let target =
    if r.epoch_flips_done mod 2 = 1 then s.origin_names
    else List.init s.config.origins origin_name
  in
  let before = s.map in
  match Shard_map.advance before ~origins:target with
  | Error e -> invalid_arg ("Topology: flip failed: " ^ e)
  | Ok after ->
    s.map <- after;
    install_map s;
    Array.iter (fun relay -> Relay.set_shard relay after) s.relays;
    List.iter
      (fun (tenant, from_, to_) ->
        r.migrations <- r.migrations + 1;
        match Authority.export_tenant (origin s from_) ~tenant with
        | Error e -> invalid_arg ("Topology: export failed: " ^ e)
        | Ok payload -> (
          match Authority.adopt_tenant (origin s to_) payload with
          | Error e -> invalid_arg ("Topology: adopt failed: " ^ e)
          | Ok _ -> (
            match Authority.release_tenant (origin s from_) ~tenant with
            | Ok _ -> ()
            | Error e -> invalid_arg ("Topology: release failed: " ^ e))))
      (Shard_map.moved ~before ~after ~tenants:s.tenants)

(* Reports enter through the relay tier and are forwarded; without relays
   they go straight to the owner origin.  A lost answer is retried three
   ticks later while attempts are left. *)
let post_report s tenant reporter sigs attempts =
  let r = s.r in
  let server =
    if s.config.relays = 0 then Authority.wire_transport (owner s tenant)
    else relay_server s (Prng.int s.server_rng s.config.relays)
  in
  let transport raw = Fault.transport s.reporter_plan server raw in
  match Protocol.post_candidates transport ~tenant ~reporter sigs with
  | Ok tally ->
    r.accepted_reports <- r.accepted_reports + tally.Protocol.accepted;
    r.duplicate_reports <- r.duplicate_reports + tally.Protocol.duplicate;
    r.capped_reports <- r.capped_reports + tally.Protocol.capped;
    record_committed s tenant
  | Error _ ->
    if attempts > 1 then
      s.retries <-
        (s.now + 3, Report (tenant, reporter, sigs, attempts - 1)) :: s.retries
    else r.lost_reports <- r.lost_reports + 1

let run_event s = function
  | Publish tenant -> publish_with_crash s tenant (mutate_set s tenant)
  | Compact -> compact_with_crash s
  | Flip -> flip s
  | Partition i ->
    s.r.partitions_done <- s.r.partitions_done + 1;
    s.partitioned_until.(i) <-
      min (s.now + s.config.partition_ticks) (s.config.ticks - 1)
  | Relay_crash i ->
    s.r.relay_crashes_done <- s.r.relay_crashes_done + 1;
    s.crashed_relays <- s.relays.(i) :: s.crashed_relays;
    s.relays.(i) <- new_relay ~obs:s.obs s.config s.seeds s.tenants i;
    wire_relay s i
  | Fork i ->
    s.r.forks_done <- s.r.forks_done + 1;
    List.iter
      (fun tenant ->
        if Relay.synced s.relays.(i) ~tenant then
          Relay.inject_fork s.relays.(i) ~tenant)
      s.tenants
  | Report (tenant, reporter, sigs, attempts) ->
    post_report s tenant reporter sigs attempts

let relay_sync_all s i =
  List.iter
    (fun tenant ->
      ignore
        (Relay.sync_tenant s.relays.(i) ~tenant
           ~transport:(relay_upstream s i tenant)))
    s.tenants

(* Bounded staleness: a partitioned relay must come out of its gossip
   round no staler than the freshest reachable honest sibling. *)
let check_staleness s i =
  List.iter
    (fun tenant ->
      if Relay.synced s.relays.(i) ~tenant then begin
        let best = ref (Relay.version s.relays.(i) ~tenant) in
        Array.iteri
          (fun j sibling ->
            if j <> i && (not (is_byzantine s j)) && Relay.consistent sibling ~tenant
            then best := max !best (Relay.version sibling ~tenant))
          s.relays;
        if Relay.version s.relays.(i) ~tenant < !best then
          s.r.invariants.staleness_lapses <- s.r.invariants.staleness_lapses + 1
      end)
    s.tenants

(* Each relay syncs from the origins once per [relay_sync_period] and
   gossips with its siblings once per [gossip_period], staggered by slot. *)
let relay_rounds s =
  for i = 0 to s.config.relays - 1 do
    if (s.now + i) mod s.config.relay_sync_period = 0 then relay_sync_all s i
  done;
  if s.config.gossip_period > 0 then
    for i = 0 to s.config.relays - 1 do
      if (s.now + i) mod s.config.gossip_period = 0 then begin
        Relay.gossip s.relays.(i) ~upstream:(fun ~tenant -> relay_upstream s i tenant);
        if partitioned s i then check_staleness s i
      end
    done

(* Serving guard: any relay that vouches for its mirror must match the
   committed checksum at the version it serves. *)
let serving_audit s =
  Array.iter
    (fun relay ->
      List.iter
        (fun tenant ->
          if Relay.consistent relay ~tenant then
            match Hashtbl.find_opt (audit_of s tenant) (Relay.version relay ~tenant) with
            | Some sum when Relay.checksum relay ~tenant <> sum ->
              let inv = s.r.invariants in
              inv.relay_divergences <- inv.relay_divergences + 1
            | Some _ | None -> ())
        s.tenants)
    s.relays

(* One client sync, judged against the audit table: an installed set must
   be the one committed at its version, and versions never go back. *)
let client_sync s c (phase : phase_counters) =
  let inv = s.r.invariants in
  let report =
    if s.config.relays = 0 then
      Delta_client.sync c.dc ~transport:(client_origin_transport s c)
    else
      Delta_client.sync_via c.dc
        ~relays:(client_relay_transports s c)
        ~origin:(client_origin_transport s c)
  in
  (match report.Signature_client.outcome with
  | Signature_client.Updated v ->
    (match Delta_client.last_update c.dc with
    | Some (`Delta _) -> phase.delta <- phase.delta + 1
    | Some `Snapshot | None -> phase.snapshot <- phase.snapshot + 1);
    (match Hashtbl.find_opt (audit_of s c.tenant) v with
    | Some sum when sum = Delta_client.checksum c.dc -> ()
    | _ -> inv.divergences <- inv.divergences + 1);
    if v < c.prev_version then inv.regressions <- inv.regressions + 1;
    c.prev_version <- v
  | Signature_client.Unchanged -> phase.unchanged <- phase.unchanged + 1
  | Signature_client.Failed _ -> phase.failed <- phase.failed + 1);
  s.on_sync c.dc;
  if Prng.chance c.rng s.config.client_restart_rate then begin
    s.r.client_restarts <- s.r.client_restarts + 1;
    c.restarted <- c.dc :: c.restarted;
    c.dc <- Delta_client.create ~seed:(Prng.bits30 c.rng) ~tenant:c.tenant ();
    c.prev_version <- 0
  end

let tick s now =
  s.now <- now;
  let due, later = List.partition (fun (t, _) -> t <= now) s.retries in
  s.retries <- later;
  let events = List.rev s.schedule.(now) @ List.map snd due in
  List.iter (run_event s) events;
  if events <> [] then record_all s;
  Array.iter (fun relay -> Relay.set_clock relay now) s.relays;
  relay_rounds s;
  serving_audit s;
  let phase = if now < max 1 (s.config.ticks / 3) then s.r.ramp else s.r.steady in
  Array.iter
    (fun c ->
      if now >= c.next_sync then begin
        client_sync s c phase;
        c.next_sync <- now + s.config.sync_period + Prng.int c.rng 3
      end)
    s.clients

(* --- drain: no more events, every partition healed --- *)

let converged s c =
  let auth = owner s c.tenant in
  Delta_client.version c.dc = Authority.version auth ~tenant:c.tenant
  && Delta_client.checksum c.dc = Authority.checksum auth ~tenant:c.tenant

let drain s =
  (* A report still waiting for its retry is lost. *)
  s.r.lost_reports <- s.r.lost_reports + List.length s.retries;
  s.now <- s.config.ticks;
  Array.iter (fun relay -> Relay.set_clock relay s.config.ticks) s.relays;
  let unconverged () = Array.exists (fun c -> not (converged s c)) s.clients in
  let round = ref 0 in
  while !round < s.config.drain_rounds && unconverged () do
    incr round;
    for i = 0 to s.config.relays - 1 do relay_sync_all s i done;
    Array.iter
      (fun c -> if not (converged s c) then client_sync s c s.r.drain)
      s.clients
  done;
  s.r.invariants.unconverged <-
    Array.fold_left (fun n c -> if converged s c then n else n + 1) 0 s.clients

(* --- final checks: sums over every incarnation, promotions, fault tally --- *)

let finish s =
  let r = s.r and config = s.config in
  let promotions =
    List.concat_map
      (fun name ->
        let o = Hashtbl.find s.origins name in
        List.concat_map Authority.promotions (o.auth :: o.crashed))
      s.origin_names
  in
  r.promotions <- List.length promotions;
  r.invariants.sub_k_promotions <-
    List.length (List.filter (fun reporters -> reporters < config.k) promotions);
  let clients =
    Array.fold_right (fun c acc -> (c.dc :: c.restarted) @ acc) s.clients []
  in
  let client_sum f =
    List.fold_left (fun n dc -> n + f (Delta_client.counters dc)) 0 clients
  in
  r.escalations <- client_sum (fun k -> k.Delta_client.escalations);
  r.fork_smells <- client_sum (fun k -> k.Delta_client.fork_smells);
  r.forced_full <- client_sum (fun k -> k.Delta_client.forced_full);
  r.regressions_refused <-
    client_sum (fun k -> k.Delta_client.regressions_refused);
  let relays = Array.to_list s.relays @ s.crashed_relays in
  let relay_sum f =
    List.fold_left (fun n relay -> n + f (Relay.counters relay)) 0 relays
  in
  r.relay_sync_rounds <- relay_sum (fun k -> k.Relay.sync_rounds);
  r.relay_sync_failures <- relay_sum (fun k -> k.Relay.sync_failures);
  r.relay_resnapshots <- relay_sum (fun k -> k.Relay.resnapshots);
  r.relay_served <-
    relay_sum (fun k ->
        k.Relay.served_delta + k.Relay.served_snapshot + k.Relay.served_not_modified);
  r.relay_unready <- relay_sum (fun k -> k.Relay.served_unready);
  r.relay_inconsistent <- relay_sum (fun k -> k.Relay.served_inconsistent);
  r.gossip_rounds <- relay_sum (fun k -> k.Relay.gossip_rounds);
  r.gossip_catchups <- relay_sum (fun k -> k.Relay.gossip_catchups);
  r.repairs <- relay_sum (fun k -> k.Relay.repairs);
  r.repair_bytes <- relay_sum (fun k -> k.Relay.repair_bytes);
  r.resnapshot_bytes <- relay_sum (fun k -> k.Relay.resnapshot_bytes);
  r.forwarded_reports <- relay_sum (fun k -> k.Relay.forwarded);
  r.forward_failures <- relay_sum (fun k -> k.Relay.forward_failures);
  let plans =
    s.reporter_plan :: s.byz_plan :: Array.to_list s.relay_plans
    @ Array.to_list (Array.map (fun c -> c.plan) s.clients)
  in
  r.fault_events <-
    List.map
      (fun kind ->
        (kind, List.fold_left (fun n plan -> n + Fault.count plan kind) 0 plans))
      Fault.all_kinds;
  r.final_versions <-
    List.map (fun t -> (t, Authority.version (owner s t) ~tenant:t)) s.tenants;
  r.tenant_owners <- List.map (fun t -> (t, owner_of s t)) s.tenants;
  r.final_epoch <- Shard_map.epoch s.map;
  List.iter (fun name -> Authority.close (origin s name)) s.origin_names;
  r.offload <-
    float_of_int r.relay_requests
    /. float_of_int (max 1 (r.relay_requests + r.origin_requests));
  if not (Obs.is_noop s.obs) then begin
    let gauge name help v = Obs.Gauge.set (Obs.gauge s.obs ~help name) v in
    gauge "leakdetect_topology_divergences"
      "Client/committed set divergences in the topology soak."
      r.invariants.divergences;
    gauge "leakdetect_topology_unconverged"
      "Clients that never converged to the post-rebalance owner."
      r.invariants.unconverged;
    gauge "leakdetect_topology_offload_permille"
      "Relay share of client sync requests, in permille."
      (int_of_float (r.offload *. 1000.))
  end;
  r

let run ?(obs = Obs.noop) ?(on_sync = fun _ -> ()) ~dir (config : config) =
  let s = setup ~obs ~on_sync ~dir config in
  for now = 0 to config.ticks - 1 do tick s now done;
  drain s;
  finish s

(* --- rendering --- *)

let phase_to_json p =
  Json.Obj
    [
      ("delta", Json.Int p.delta);
      ("snapshot", Json.Int p.snapshot);
      ("unchanged", Json.Int p.unchanged);
      ("failed", Json.Int p.failed);
    ]

let report_to_json (r : report) =
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

let summary (r : report) =
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
