module Trace = Leakdetect_http.Trace
module Pipeline = Leakdetect_core.Pipeline
module Detector = Leakdetect_core.Detector
module Metrics = Leakdetect_core.Metrics
module Signature = Leakdetect_core.Signature
module Prng = Leakdetect_util.Prng
module Fault = Leakdetect_fault.Fault
module Flow_control = Leakdetect_monitor.Flow_control
module Signature_client = Leakdetect_monitor.Signature_client
module Wal = Leakdetect_store.Wal
module State_dir = Leakdetect_store.State_dir

let tenant = "handset"

type config = {
  seed : int;
  sample_n : int;
  fault : Fault.config;
  syncs : int;
  fail_mode : Flow_control.fail_mode;
  limit : int;
  crash_points : int;
}

type baseline = { packets : int; signatures : int; detected : int; metrics : Metrics.t }
type ingest = { delivered : int; recovered : int; skipped : Trace.skipped; intact : int }

type sync = {
  client_version : int; head : int; extra_syncs : int;
  attempts : int; failed_syncs : int; waited : int; delayed : int;
  health : Signature_client.health; staleness : Signature_client.staleness;
}

type enforce = {
  replayed : int; allowed : int; blocked : int; prompted : int; chaos_detected : int;
}

type durability = {
  checkpoints : int; wal_bytes : int; recovered_detected : int;
  mutable trials : (int * int) option;
  mutable compaction : Authority.report option;
}

type report = {
  config : config;
  mutable baseline : baseline option;
  mutable ingest : ingest option;
  mutable sync : sync option;
  mutable enforce : enforce option;
  mutable durability : durability option;
  faults : (string * Fault.plan) list;
  mutable failure : string option;
}

(* A check that fails ends the run; [run] records its message. *)
exception Stop of string

let stop m = raise (Stop m)
let stopf fmt = Printf.ksprintf stop fmt

type state = {
  records : Trace.record array;
  report : report;
  client : Delta_client.t;
  mutable published : Signature.t list;  (* the baseline's signatures *)
  mutable base_detected : int;
  mutable recovered : Trace.record list;
}

let plan s name = List.assoc name s.report.faults
let packets records = Array.map (fun r -> r.Trace.packet) records

(* --- baseline: the fault-free workload, signatures and detection --- *)

let baseline s =
  let config = s.report.config in
  let suspicious, normal = Trace.split s.records in
  if Array.length suspicious = 0 then stop "trace has no sensitive packets";
  let o =
    Pipeline.run ~rng:(Prng.create config.seed) ~n:config.sample_n ~suspicious ~normal ()
  in
  s.published <- o.Pipeline.signatures;
  s.base_detected <- Detector.count_detected (Detector.create s.published) (packets s.records);
  s.report.baseline <-
    Some
      { packets = Array.length s.records; signatures = List.length s.published;
        detected = s.base_detected; metrics = o.Pipeline.metrics }

(* --- ingest: every record rides the wire through the fault plan, then
   the lenient reader recovers what it can --- *)

let ingest s =
  let plan = plan s "ingest" in
  let delivered = Fault.apply_stream plan (Array.to_list s.records) in
  let path = Filename.temp_file "leakdetect_chaos" ".trace" in
  let recovered, skipped =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_text path (fun oc ->
            List.iter
              (fun r -> Printf.fprintf oc "%s\n" (Fault.corrupt_string plan (Trace.record_to_line r)))
              delivered);
        match Trace.load ~on_error:`Skip path with
        | Ok x -> x
        | Error e -> stopf "lenient load still failed: %s" e)
  in
  let intact =
    List.length delivered - Fault.count plan Fault.Corrupt - Fault.count plan Fault.Truncate
  in
  s.recovered <- recovered;
  let recovered = List.length recovered in
  s.report.ingest <- Some { delivered = List.length delivered; recovered; skipped; intact };
  if recovered < intact then stopf "recovered %d < intact lower bound %d" recovered intact

(* --- sync: a one-tenant authority publishes growing signature sets while
   the handset syncs over a faulty transport, then catches up --- *)

let sync s =
  let authority = Authority.create () in
  let sync_plan = plan s "sync" in
  let transport = Fault.transport sync_plan (Authority.wire_transport authority) in
  let attempts = ref 0 and waited = ref 0 and failed_syncs = ref 0 in
  let follow () =
    let r = Delta_client.sync s.client ~transport in
    attempts := !attempts + r.Signature_client.attempts;
    waited := !waited + r.Signature_client.waited;
    match r.Signature_client.outcome with
    | Signature_client.Failed _ -> incr failed_syncs
    | _ -> ()
  in
  Authority.publish_rounds authority ~tenant ~rounds:s.report.config.syncs ~follow s.published;
  let head = Authority.version authority ~tenant in
  let extra_syncs = ref 0 in
  while Delta_client.version s.client < head && !extra_syncs < 50 do
    incr extra_syncs;
    follow ()
  done;
  let client_version = Delta_client.version s.client in
  s.report.sync <-
    Some
      { client_version; head; extra_syncs = !extra_syncs; attempts = !attempts;
        failed_syncs = !failed_syncs; waited = !waited;
        delayed = Fault.count sync_plan Fault.Delay;
        health = Delta_client.health s.client; staleness = Delta_client.staleness s.client };
  if
    client_version <> head
    || Delta_client.checksum s.client <> Authority.checksum authority ~tenant
  then stop "client failed to converge to the latest signature version"

(* --- enforce: replay the recovered packets through the monitor under the
   synced set, the client's health driving the fail mode, and detect with
   that set over every recovered record --- *)

let enforce s =
  let synced = Delta_client.signatures s.client in
  let monitor = Flow_control.create ~fail_mode:s.report.config.fail_mode synced in
  Flow_control.set_health monitor (Delta_client.health s.client);
  let recovered = Array.of_list s.recovered in
  let replayed = Flow_control.replay monitor ~limit:s.report.config.limit recovered in
  let allowed, blocked, prompted = Flow_control.stats monitor in
  s.report.enforce <-
    Some
      { replayed; allowed; blocked; prompted;
        chaos_detected = Detector.count_detected (Detector.create synced) (packets recovered) }

(* --- durability: journal the publish history, crash the journal at
   plan-chosen byte offsets (with torn-write damage on the committed
   image), recover each time against the committed history, compact --- *)

(* The state a journal recovers to: head version and set checksum. *)
let state_of auth = (Authority.version auth ~tenant, Authority.checksum auth ~tenant)

(* Every trial must recover to a committed state: the exact pre-crash one
   unless torn-write damage forced an earlier truncation.  Returns the
   (exact, earlier) counts. *)
let crash_trials s root history wal_image =
  let plan = plan s "journal" in
  let last_record_start =
    List.fold_left
      (fun acc (b, _) -> if b < String.length wal_image then max acc b else acc)
      0 history
  in
  let exact = ref 0 and earlier = ref 0 in
  for trial = 1 to s.report.config.crash_points do
    let torn_before = Fault.count plan Fault.Torn_write in
    let damaged =
      Fault.torn_write plan ~protect:(String.length Wal.magic) ~tail_start:last_record_start
        wal_image
    in
    let torn_fired = Fault.count plan Fault.Torn_write > torn_before in
    let cut =
      Option.value ~default:(String.length damaged)
        (Fault.crash_point plan ~len:(String.length damaged))
    in
    let crash_dir = Filename.concat root (Printf.sprintf "crash%d" trial) in
    if Sys.file_exists crash_dir then State_dir.remove crash_dir;
    Sys.mkdir crash_dir 0o755;
    Out_channel.with_open_bin (Authority.wal_path ~dir:crash_dir) (fun oc ->
        output_string oc (String.sub damaged 0 cut));
    let what = Printf.sprintf "trial %d: recovery failed in" trial in
    let auth, _ = Authority.open_or ~fail:stop what ~dir:crash_dir in
    let recovered = state_of auth in
    Authority.close auth;
    (* The newest checkpoint whose record lies wholly before the cut. *)
    let expected = snd (List.find (fun (off, _) -> off <= cut) history) in
    if (not torn_fired) && recovered <> expected then
      stopf "trial %d: crash at byte %d did not restore the committed state" trial cut;
    if recovered = expected then incr exact
    else if List.exists (fun (_, st) -> st = recovered) history then incr earlier
    else stopf "trial %d: recovery produced a state that was never committed" trial;
    State_dir.remove crash_dir
  done;
  (!exact, !earlier)

let durability s root =
  let dir = Filename.concat root "history" in
  if Sys.file_exists dir then State_dir.remove dir;
  let journal, _ = Authority.open_or ~fail:stop "cannot open journal" ~dir in
  (* Committed history: one checkpoint per journal record, i.e. per
     changelog version, keyed by the journal size at which it became
     durable.  [publish] calls [inject] before each append, when the
     previous change is committed; offset 0 covers crash points inside the
     log header itself. *)
  let history = ref [ (0, state_of journal) ] in
  let checkpoint () =
    let v = Authority.version journal ~tenant in
    match !history with
    | (_, (v', _)) :: _ when v' = v -> ()
    | _ ->
      let sum = Option.get (Authority.checksum_at journal ~tenant ~version:v) in
      history := (Authority.wal_size journal, (v, sum)) :: !history
  in
  Authority.publish_rounds journal
    ~inject:(fun _ -> checkpoint ())
    ~tenant ~rounds:s.report.config.syncs ~follow:checkpoint s.published;
  let final_state = state_of journal in
  Authority.close journal;
  let wal_image = In_channel.with_open_bin (Authority.wal_path ~dir) In_channel.input_all in
  (* Uninterrupted recovery must restore the exact final state and the set
     the handset converged to, byte for byte. *)
  let recovered_sigs =
    let auth, report = Authority.open_or ~fail:stop "clean recovery failed" ~dir in
    if report.Authority.tail <> Wal.Clean then
      stopf "clean log reported a torn tail: %s" (Authority.report_to_string report);
    if state_of auth <> final_state then
      stop "clean recovery diverged from the pre-restart state";
    let sigs = Authority.signatures auth ~tenant in
    Authority.close auth;
    sigs
  in
  if Protocol.sig_body recovered_sigs <> Protocol.sig_body (Delta_client.signatures s.client)
  then stop "recovered signature set is not byte-identical";
  let d =
    { checkpoints = List.length !history - 1; wal_bytes = String.length wal_image;
      recovered_detected =
        Detector.count_detected (Detector.create recovered_sigs) (packets s.records);
      trials = None; compaction = None }
  in
  s.report.durability <- Some d;
  if d.recovered_detected <> s.base_detected then
    stop "post-recovery detection diverged from the fault-free baseline";
  d.trials <- Some (crash_trials s root !history wal_image);
  (* Compaction: snapshot + log reset must preserve the state. *)
  let auth, _ = Authority.open_or ~fail:stop "reopen for compaction failed" ~dir in
  Authority.compact auth;
  Authority.close auth;
  let auth, report = Authority.open_or ~fail:stop "post-compaction recovery failed" ~dir in
  if state_of auth <> final_state then stop "compaction changed the recovered state";
  d.compaction <- Some report;
  Authority.close auth

let run ?state_dir (config : config) records =
  let plan k = Fault.create ~seed:(config.seed + k) config.fault in
  let faults = [ ("ingest", plan 1); ("sync", plan 3); ("journal", plan 4) ] in
  let report =
    { config; baseline = None; ingest = None; sync = None; enforce = None;
      durability = None; faults; failure = None }
  in
  let s =
    { records; report; published = [];
      client = Delta_client.create ~seed:(config.seed + 2) ~tenant ();
      base_detected = 0; recovered = [] }
  in
  (try
     baseline s;
     ingest s;
     sync s;
     enforce s;
     State_dir.with_root ~prefix:"leakdetect_state" state_dir (durability s)
   with
  | Stop m -> report.failure <- Some m
  | e -> report.failure <- Some ("uncaught exception: " ^ Printexc.to_string e));
  report

(* --- rendering: every line a phase reached, in the order it ran --- *)

let rate detected count =
  if count = 0 then 0. else 100. *. float_of_int detected /. float_of_int count

let render r =
  let b = Buffer.create 4096 in
  let pr fmt = Printf.bprintf b fmt in
  let ( let* ) = Option.bind in
  ignore
    (let* base = r.baseline in
     let base_rate = rate base.detected base.packets in
     pr "baseline: %d packets, %d signatures, %d detected (%.2f%%)\n" base.packets
       base.signatures base.detected base_rate;
     Buffer.add_string b (Format.asprintf "baseline metrics: %a@." Metrics.pp base.metrics);
     let* i = r.ingest in
     pr "\ningest: %d sent, %d delivered, %d recovered, %d skipped (intact lower bound %d)\n"
       base.packets i.delivered i.recovered i.skipped.Trace.skipped i.intact;
     List.iter (fun (lineno, e) -> pr "  skipped line %d: %s\n" lineno e) i.skipped.Trace.sample;
     let* y = r.sync in
     pr "\nsync: %d rounds against %d signatures\n" r.config.syncs base.signatures;
     pr
       "sync done: client v%d / authority v%d after %d extra syncs; %d attempts, %d failed syncs, %d backoff ticks, %d delayed responses, health %s\n"
       y.client_version y.head y.extra_syncs y.attempts y.failed_syncs y.waited y.delayed
       (Signature_client.health_to_string y.health);
     pr "staleness: %d failed syncs, %d failed attempts, version gap %d\n"
       y.staleness.Signature_client.failed_syncs y.staleness.Signature_client.failed_attempts
       y.staleness.Signature_client.version_gap;
     let* e = r.enforce in
     pr "\nenforcement (%s, health %s): %d replayed, %d allowed, %d blocked, %d prompted\n"
       (Flow_control.fail_mode_to_string r.config.fail_mode)
       (Signature_client.health_to_string y.health)
       e.replayed e.allowed e.blocked e.prompted;
     let chaos_rate = rate e.chaos_detected i.recovered in
     pr "\ndetection: baseline %d/%d (%.2f%%) vs chaos %d/%d (%.2f%%), delta %+.2f points\n"
       base.detected base.packets base_rate e.chaos_detected i.recovered chaos_rate
       (chaos_rate -. base_rate);
     let* d = r.durability in
     pr
       "\ndurability: %d committed checkpoints (%d WAL bytes); clean recovery detects %d/%d (baseline %d)\n"
       d.checkpoints d.wal_bytes d.recovered_detected base.packets base.detected;
     let* exact, earlier = d.trials in
     pr
       "durability: %d crash trials — %d exact pre-crash restores, %d truncated to an earlier committed state\n"
       r.config.crash_points exact earlier;
     let* compaction = d.compaction in
     pr "durability: compaction ok (%s)\n" (Authority.report_to_string compaction);
     Some ());
  if r.failure = None then begin
    pr "\nfaults injected:\n";
    List.iter
      (fun (name, plan) ->
        pr "  %-8s" (name ^ ":");
        List.iter (fun (k, c) -> pr " %s=%d" (Fault.kind_name k) c) (Fault.summary plan);
        pr "\n")
      r.faults;
    pr "uncaught exceptions: 0\n"
  end;
  Buffer.contents b
