(* Tests for Leakdetect_monitor: policy store and the Figure 3(b)
   information-flow-control application. *)

open Leakdetect_monitor
module Signature = Leakdetect_core.Signature
module Packet = Leakdetect_http.Packet

let mk ?(rline = "GET /benign HTTP/1.1") () =
  Packet.v
    ~ip:(Leakdetect_net.Ipv4.of_int 1000)
    ~port:80 ~host:"h.jp" ~request_line:rline ~cookie:"" ~body:""

let leak_packet () = mk ~rline:"GET /ad?imei=355021930123456 HTTP/1.1" ()

let signatures =
  [ Signature.make ~id:0 ~mode:Signature.Conjunction ~cluster_size:2 [ "imei=355021930123456" ] ]

(* --- Policy --- *)

let test_policy_defaults () =
  let p = Policy.create () in
  let r = Policy.rule_for p ~app_id:7 in
  Alcotest.(check string) "sensitive prompts" "prompt" (Policy.action_to_string r.Policy.on_sensitive);
  Alcotest.(check string) "benign allowed" "allow" (Policy.action_to_string r.Policy.on_benign)

let test_policy_set_remove () =
  let p = Policy.create () in
  Policy.set_rule p ~app_id:3 { Policy.on_sensitive = Policy.Block; on_benign = Policy.Allow };
  Alcotest.(check (list int)) "listed" [ 3 ] (Policy.app_ids p);
  Alcotest.(check bool) "applied" true
    ((Policy.rule_for p ~app_id:3).Policy.on_sensitive = Policy.Block);
  Policy.remove_rule p ~app_id:3;
  Alcotest.(check (list int)) "removed" [] (Policy.app_ids p);
  Alcotest.(check bool) "back to default" true
    ((Policy.rule_for p ~app_id:3).Policy.on_sensitive = Policy.Prompt)

(* --- Flow control --- *)

let test_flow_benign_allowed () =
  let m = Flow_control.create signatures in
  Alcotest.(check string) "benign passes" "allowed"
    (Flow_control.decision_to_string (Flow_control.process m ~app_id:1 (mk ())))

let test_flow_sensitive_prompts_denied_by_default () =
  let m = Flow_control.create signatures in
  Alcotest.(check string) "default prompt denies" "prompted:stopped"
    (Flow_control.decision_to_string (Flow_control.process m ~app_id:1 (leak_packet ())))

let test_flow_prompt_callback () =
  let asked = ref 0 in
  let m =
    Flow_control.create
      ~on_prompt:(fun ~app_id:_ _p _m ->
        incr asked;
        true)
      signatures
  in
  Alcotest.(check string) "user approves" "prompted:sent"
    (Flow_control.decision_to_string (Flow_control.process m ~app_id:1 (leak_packet ())));
  Alcotest.(check int) "callback invoked once" 1 !asked

let test_flow_block_rule () =
  let policy = Policy.create () in
  Policy.set_rule policy ~app_id:5
    { Policy.on_sensitive = Policy.Block; on_benign = Policy.Allow };
  let m = Flow_control.create ~policy signatures in
  Alcotest.(check string) "blocked" "blocked"
    (Flow_control.decision_to_string (Flow_control.process m ~app_id:5 (leak_packet ())));
  Alcotest.(check string) "other app still prompts" "prompted:stopped"
    (Flow_control.decision_to_string (Flow_control.process m ~app_id:6 (leak_packet ())))

let test_flow_log_and_stats () =
  let m = Flow_control.create signatures in
  ignore (Flow_control.process m ~app_id:1 (mk ()));
  ignore (Flow_control.process m ~app_id:2 (leak_packet ()));
  ignore (Flow_control.process m ~app_id:1 (mk ()));
  let log = Flow_control.log m in
  Alcotest.(check int) "three events" 3 (List.length log);
  Alcotest.(check (list int)) "sequence numbers" [ 0; 1; 2 ]
    (List.map (fun e -> e.Flow_control.seq) log);
  let matched =
    List.filter (fun e -> Option.is_some e.Flow_control.matched) log
  in
  Alcotest.(check int) "one match" 1 (List.length matched);
  let allowed, blocked, prompted = Flow_control.stats m in
  Alcotest.(check (list int)) "stats" [ 2; 0; 1 ] [ allowed; blocked; prompted ]

let test_flow_reconcile () =
  (* Without a registry the log recount is the only cross-check. *)
  let m = Flow_control.create signatures in
  ignore (Flow_control.process m ~app_id:1 (mk ()));
  Alcotest.(check bool) "reconciles without obs" true
    (Flow_control.reconcile m = Ok ());
  (* With an active registry the obs counters join the comparison and the
     three tallies of the same decision stream must agree. *)
  let obs = Leakdetect_obs.Obs.create () in
  let m = Flow_control.create ~obs signatures in
  ignore (Flow_control.process m ~app_id:1 (mk ()));
  ignore (Flow_control.process m ~app_id:2 (leak_packet ()));
  ignore (Flow_control.process m ~app_id:1 (mk ()));
  (match Flow_control.reconcile m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reconcile: %s" e);
  let count decision =
    Leakdetect_obs.Obs.Counter.value
      (Leakdetect_obs.Obs.counter obs
         ~labels:[ ("decision", decision) ]
         "leakdetect_monitor_decisions_total")
  in
  Alcotest.(check (list int)) "obs counters mirror stats" [ 2; 0; 1 ]
    [ count "allowed"; count "blocked"; count "prompted" ];
  (* An out-of-band bump to the obs family is exactly the disagreement
     reconcile exists to catch. *)
  Leakdetect_obs.Obs.Counter.inc
    (Leakdetect_obs.Obs.counter obs
       ~labels:[ ("decision", "blocked") ]
       "leakdetect_monitor_decisions_total");
  Alcotest.(check bool) "drift detected" true
    (Result.is_error (Flow_control.reconcile m))

let test_flow_signature_update () =
  let m = Flow_control.create [] in
  Alcotest.(check string) "no signatures, everything passes" "allowed"
    (Flow_control.decision_to_string (Flow_control.process m ~app_id:1 (leak_packet ())));
  Flow_control.update_signatures m signatures;
  Alcotest.(check string) "after fetch, leak caught" "prompted:stopped"
    (Flow_control.decision_to_string (Flow_control.process m ~app_id:1 (leak_packet ())))

let test_signature_match_view () =
  let s = List.hd signatures in
  let v = Signature_match.of_signature s in
  Alcotest.(check int) "id" 0 v.Signature_match.signature_id;
  Alcotest.(check int) "tokens" 1 (List.length v.Signature_match.tokens);
  Alcotest.(check int) "cluster" 2 v.Signature_match.cluster_size

(* --- Policy persistence --- *)

let test_policy_save_load () =
  let p = Policy.create () in
  Policy.set_rule p ~app_id:3 { Policy.on_sensitive = Policy.Block; on_benign = Policy.Allow };
  Policy.set_rule p ~app_id:9 { Policy.on_sensitive = Policy.Allow; on_benign = Policy.Allow };
  let path = Filename.temp_file "leakdetect_policy" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Policy.save p path;
      match Policy.load path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok loaded ->
        Alcotest.(check (list int)) "app ids" [ 3; 9 ] (Policy.app_ids loaded);
        Alcotest.(check bool) "rule preserved" true
          ((Policy.rule_for loaded ~app_id:3).Policy.on_sensitive = Policy.Block);
        Alcotest.(check bool) "default preserved" true
          ((Policy.rule_for loaded ~app_id:999).Policy.on_sensitive = Policy.Prompt))

let test_policy_load_errors () =
  let check_error content expected_substring =
    let path = Filename.temp_file "leakdetect_policy_bad" ".tsv" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out path in
        output_string oc content;
        close_out oc;
        match Policy.load path with
        | Ok _ -> Alcotest.failf "expected error for %S" content
        | Error e ->
          Alcotest.(check bool)
            (Printf.sprintf "error mentions %s" expected_substring)
            true
            (Leakdetect_text.Search.contains ~needle:expected_substring e))
  in
  check_error "" "missing default";
  check_error "3\tblock\tallow\n" "default rule first";
  check_error "default\tblock\tallow\ndefault\tallow\tallow\n" "duplicate";
  check_error "default\tblock\tallow\nx\tblock\tallow\n" "bad app id"

(* --- Prompt budget --- *)

let test_prompt_budget () =
  (* App 1 consumes two answers, app 2 one; any further prompt fails. *)
  let answers = ref [ true; false; true ] in
  let on_prompt ~app_id:_ _p _m =
    match !answers with
    | a :: rest ->
      answers := rest;
      a
    | [] -> Alcotest.fail "prompted beyond budget"
  in
  let m = Flow_control.create ~prompt_budget:2 ~on_prompt signatures in
  (* First two leaks prompt; third applies the sticky last answer (false). *)
  Alcotest.(check string) "first" "prompted:sent"
    (Flow_control.decision_to_string (Flow_control.process m ~app_id:1 (leak_packet ())));
  Alcotest.(check string) "second" "prompted:stopped"
    (Flow_control.decision_to_string (Flow_control.process m ~app_id:1 (leak_packet ())));
  Alcotest.(check string) "third silently blocked" "blocked"
    (Flow_control.decision_to_string (Flow_control.process m ~app_id:1 (leak_packet ())));
  Alcotest.(check int) "two prompts recorded" 2 (Flow_control.prompts_for m ~app_id:1);
  (* Another app has its own budget. *)
  let d = Flow_control.process m ~app_id:2 (leak_packet ()) in
  Alcotest.(check bool) "other app still prompts" true
    (match d with Flow_control.Prompted _ -> true | _ -> false)

let test_prompt_budget_sticky_allow () =
  let m =
    Flow_control.create ~prompt_budget:1
      ~on_prompt:(fun ~app_id:_ _ _ -> true)
      signatures
  in
  ignore (Flow_control.process m ~app_id:7 (leak_packet ()));
  Alcotest.(check string) "sticky allow" "allowed"
    (Flow_control.decision_to_string (Flow_control.process m ~app_id:7 (leak_packet ())))

(* --- Report --- *)

let test_report_per_app () =
  let m = Flow_control.create signatures in
  ignore (Flow_control.process m ~app_id:1 (mk ()));
  ignore (Flow_control.process m ~app_id:1 (leak_packet ()));
  ignore (Flow_control.process m ~app_id:2 (leak_packet ()));
  ignore (Flow_control.process m ~app_id:2 (leak_packet ()));
  ignore (Flow_control.process m ~app_id:3 (mk ()));
  let summaries = Report.per_app m in
  Alcotest.(check int) "three apps" 3 (List.length summaries);
  let top = List.hd summaries in
  Alcotest.(check int) "most suspicious first" 2 top.Report.app_id;
  Alcotest.(check int) "flagged count" 2 top.Report.flagged;
  Alcotest.(check int) "prompted count" 2 top.Report.prompted;
  Alcotest.(check (list string)) "destinations" [ "h.jp" ] top.Report.destinations;
  Alcotest.(check (list int)) "signature ids" [ 0 ] top.Report.signature_ids;
  let clean = List.find (fun s -> s.Report.app_id = 3) summaries in
  Alcotest.(check int) "clean app unflagged" 0 clean.Report.flagged

let test_report_render () =
  let m = Flow_control.create signatures in
  ignore (Flow_control.process m ~app_id:9 (leak_packet ()));
  let out = Report.render m in
  Alcotest.(check bool) "mentions app" true
    (Leakdetect_text.Search.contains ~needle:"9" out);
  Alcotest.(check bool) "has header" true
    (Leakdetect_text.Search.contains ~needle:"Most suspicious" out)

let test_report_limit () =
  let m = Flow_control.create signatures in
  for app_id = 0 to 9 do
    ignore (Flow_control.process m ~app_id (leak_packet ()))
  done;
  Alcotest.(check int) "limit respected" 4 (List.length (Report.most_suspicious ~limit:4 m))

(* --- Signature_client --- *)

let test_client_records_gap_from_304 () =
  let client = Signature_client.create () in
  ignore
    (Signature_client.sync client ~fetch:(fun ~since:_ ->
         Ok (Signature_client.Installed 1)));
  Alcotest.(check int) "client at v1" 1 (Signature_client.version client);
  (* A 304 whose header shows a version ahead of ours records the gap
     without a body fetch.  (A real server would 200 here; the point is
     the client believes the header, not the body.) *)
  let fetch ~since:_ =
    Ok (Signature_client.Up_to_date { observed = Some 4 })
  in
  (match (Signature_client.sync client ~fetch).Signature_client.outcome with
  | Signature_client.Unchanged -> ()
  | _ -> Alcotest.fail "expected Unchanged");
  Alcotest.(check int) "gap recorded from 304 header" 3
    (Signature_client.staleness client).Signature_client.version_gap;
  Alcotest.(check int) "version untouched" 1 (Signature_client.version client)

(* An install reports the versions it jumped over: none when updates
   arrive one by one, the skipped ones after an outage. *)
let test_client_install_records_gap () =
  let client = Signature_client.create () in
  let install v =
    (Signature_client.sync client ~fetch:(fun ~since:_ ->
         Ok (Signature_client.Installed v)))
      .Signature_client.outcome
  in
  (match install 1 with
  | Signature_client.Updated 1 -> ()
  | _ -> Alcotest.fail "expected Updated 1");
  Alcotest.(check int) "no gap one by one" 0
    (Signature_client.staleness client).Signature_client.version_gap;
  (match install 5 with
  | Signature_client.Updated 5 -> ()
  | _ -> Alcotest.fail "expected Updated 5");
  Alcotest.(check int) "three versions skipped" 3
    (Signature_client.staleness client).Signature_client.version_gap;
  Alcotest.(check int) "client at v5" 5 (Signature_client.version client);
  Alcotest.(check string) "healthy" "healthy"
    (Signature_client.health_to_string (Signature_client.health client))

(* A 304 without a version header leaves the gap of the last install
   alone; one advertising a version behind ours clears it, never below 0.
   Neither moves the version. *)
let test_client_304_without_news () =
  let client = Signature_client.create () in
  ignore
    (Signature_client.sync client ~fetch:(fun ~since:_ ->
         Ok (Signature_client.Installed 3)));
  let up_to_date observed ~since:_ =
    Ok (Signature_client.Up_to_date { observed })
  in
  List.iter
    (fun (observed, gap) ->
      (match
         (Signature_client.sync client ~fetch:(up_to_date observed))
           .Signature_client.outcome
       with
      | Signature_client.Unchanged -> ()
      | _ -> Alcotest.fail "expected Unchanged");
      Alcotest.(check int) "version untouched" 3 (Signature_client.version client);
      Alcotest.(check int) "gap" gap
        (Signature_client.staleness client).Signature_client.version_gap)
    [ (None, 2); (Some 1, 0); (None, 0) ];
  Alcotest.(check (option string)) "no error recorded" None
    (Signature_client.last_error client)

let suite =
  [
    ( "monitor.policy",
      [
        Alcotest.test_case "defaults" `Quick test_policy_defaults;
        Alcotest.test_case "set/remove" `Quick test_policy_set_remove;
        Alcotest.test_case "save/load" `Quick test_policy_save_load;
        Alcotest.test_case "load errors" `Quick test_policy_load_errors;
      ] );
    ( "monitor.prompt_budget",
      [
        Alcotest.test_case "budget enforced" `Quick test_prompt_budget;
        Alcotest.test_case "sticky allow" `Quick test_prompt_budget_sticky_allow;
      ] );
    ( "monitor.report",
      [
        Alcotest.test_case "per app" `Quick test_report_per_app;
        Alcotest.test_case "render" `Quick test_report_render;
        Alcotest.test_case "limit" `Quick test_report_limit;
      ] );
    ( "monitor.signature_client",
      [ Alcotest.test_case "304 version gap" `Quick test_client_records_gap_from_304;
        Alcotest.test_case "install records the gap" `Quick
          test_client_install_records_gap;
        Alcotest.test_case "304 without news" `Quick test_client_304_without_news ] );
    ( "monitor.flow_control",
      [
        Alcotest.test_case "benign allowed" `Quick test_flow_benign_allowed;
        Alcotest.test_case "sensitive prompts (deny default)" `Quick
          test_flow_sensitive_prompts_denied_by_default;
        Alcotest.test_case "prompt callback" `Quick test_flow_prompt_callback;
        Alcotest.test_case "block rule" `Quick test_flow_block_rule;
        Alcotest.test_case "log and stats" `Quick test_flow_log_and_stats;
        Alcotest.test_case "stats reconcile" `Quick test_flow_reconcile;
        Alcotest.test_case "signature update" `Quick test_flow_signature_update;
        Alcotest.test_case "match view" `Quick test_signature_match_view;
      ] );
  ]
