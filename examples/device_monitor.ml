(* Device monitor: the Figure 3(b) information-flow-control application.

     dune exec examples/device_monitor.exe

   Plays the complete loop of the paper's architecture:
     1. the server side collects traffic, clusters it and generates
        signatures (Figure 3a);
     2. the on-device application fetches those signatures and starts
        inspecting outgoing packets;
     3. the user answers prompts and tightens per-app policy over time. *)

module Workload = Leakdetect_android.Workload
module Pipeline = Leakdetect_core.Pipeline
module Flow_control = Leakdetect_monitor.Flow_control
module Policy = Leakdetect_monitor.Policy
module Signature = Leakdetect_core.Signature
module Trace = Leakdetect_http.Trace
module Packet = Leakdetect_http.Packet
module Prng = Leakdetect_util.Prng

let () =
  (* --- server side (Figure 3a) --- *)
  let ds = Workload.generate ~seed:99 ~scale:0.08 () in
  let suspicious, normal = Workload.split ds in
  let outcome = Pipeline.run ~rng:(Prng.create 99) ~n:250 ~suspicious ~normal () in
  Printf.printf "server: generated %d signatures from %d sampled packets\n\n"
    (List.length outcome.Pipeline.signatures)
    outcome.Pipeline.sample_size;

  (* --- device side (Figure 3b) --- *)
  (* The user's prompt behaviour: deny the first transmission from each app
     and remember the decision; this models a cautious user. *)
  let decisions : (int, bool) Hashtbl.t = Hashtbl.create 16 in
  let prompts = ref 0 in
  let on_prompt ~app_id _packet (s : Signature.t) =
    incr prompts;
    match Hashtbl.find_opt decisions app_id with
    | Some answer -> answer
    | None ->
      (* First time this app tries to leak: show the user what matched. *)
      if !prompts <= 5 then
        Printf.printf "  [prompt] app %d wants to transmit data matching signature #%d -> user says NO\n"
          app_id s.Signature.id;
      Hashtbl.add decisions app_id false;
      false
  in
  let policy = Policy.create () in
  (* At most 3 interruptions per app; afterwards the last answer sticks. *)
  let monitor =
    Flow_control.create ~policy ~prompt_budget:3 ~on_prompt outcome.Pipeline.signatures
  in

  Printf.printf "device: replaying the first 4000 packets through the monitor\n";
  ignore (Flow_control.replay monitor ~limit:4000 ds.Workload.records);

  let allowed, blocked, prompted = Flow_control.stats monitor in
  Printf.printf "\nsession summary: %d allowed, %d blocked, %d prompted\n\n" allowed blocked
    prompted;
  print_string (Leakdetect_monitor.Report.render ~limit:8 monitor);

  (* The user got tired of one noisy app and blocks it outright. *)
  let noisiest =
    let counts = Hashtbl.create 16 in
    List.iter
      (fun (e : Flow_control.event) ->
        match e.Flow_control.decision with
        | Flow_control.Prompted _ ->
          Hashtbl.replace counts e.Flow_control.app_id
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts e.Flow_control.app_id))
        | _ -> ())
      (Flow_control.log monitor);
    Hashtbl.fold
      (fun app n acc -> match acc with Some (_, m) when m >= n -> acc | _ -> Some (app, n))
      counts None
  in
  match noisiest with
  | None -> print_endline "no app ever prompted — nothing to block"
  | Some (app_id, n) ->
    Printf.printf "\napp %d prompted %d times; user sets its policy to BLOCK\n" app_id n;
    Policy.set_rule policy ~app_id
      { Policy.on_sensitive = Policy.Block; on_benign = Policy.Allow };
    (* Replay a few of that app's sensitive packets: now silently dropped. *)
    let replayed = ref 0 in
    Array.iter
      (fun (r : Trace.record) ->
        if r.Trace.app_id = app_id && r.Trace.labels <> [] && !replayed < 3 then begin
          incr replayed;
          let d = Flow_control.process monitor ~app_id r.Trace.packet in
          Printf.printf "  packet to %s: %s\n" r.Trace.packet.Packet.dst.Packet.host
            (Flow_control.decision_to_string d)
        end)
      ds.Workload.records
