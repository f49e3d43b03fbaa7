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

(* --- Replay --- *)

(* [replay] processes the first [limit] records in order, none for a
   negative limit, and says how many it processed. *)
let test_flow_replay () =
  let records =
    Array.init 5 (fun i ->
        { Leakdetect_http.Trace.packet = (if i mod 2 = 0 then leak_packet () else mk ());
          app_id = i; labels = [] })
  in
  let replayed limit =
    let m = Flow_control.create signatures in
    let n = Flow_control.replay m ~limit records in
    let a, b, p = Flow_control.stats m in
    Alcotest.(check int) "every processed packet decided" n (a + b + p);
    (n, List.map (fun e -> e.Flow_control.app_id) (Flow_control.log m))
  in
  Alcotest.(check (pair int (list int))) "a prefix" (3, [ 0; 1; 2 ]) (replayed 3);
  Alcotest.(check (pair int (list int))) "capped at the trace" (5, [ 0; 1; 2; 3; 4 ])
    (replayed 10);
  Alcotest.(check (pair int (list int))) "negative limit" (0, []) (replayed (-1))

(* --- Policy --- *)

let test_policy_defaults () =
  let p = Policy.create () in
  let r = Policy.rule_for p ~app_id:7 in
  Alcotest.(check bool) "sensitive prompts" true (r.Policy.on_sensitive = Policy.Prompt);
  Alcotest.(check bool) "benign allowed" true (r.Policy.on_benign = Policy.Allow)

let test_policy_set () =
  let p = Policy.create () in
  Policy.set_rule p ~app_id:3 { Policy.on_sensitive = Policy.Block; on_benign = Policy.Allow };
  Alcotest.(check bool) "applied" true
    ((Policy.rule_for p ~app_id:3).Policy.on_sensitive = Policy.Block);
  Alcotest.(check bool) "other apps keep the default" true
    ((Policy.rule_for p ~app_id:4).Policy.on_sensitive = Policy.Prompt)

let test_policy_custom_default () =
  let strict = { Policy.on_sensitive = Policy.Block; on_benign = Policy.Prompt } in
  let p = Policy.create ~default:strict () in
  Alcotest.(check bool) "unset apps get the given default" true
    (Policy.rule_for p ~app_id:11 = strict);
  Policy.set_rule p ~app_id:11 Policy.default_rule;
  Alcotest.(check bool) "a set rule overrides it" true
    (Policy.rule_for p ~app_id:11 = Policy.default_rule);
  Alcotest.(check bool) "other apps keep the given default" true
    (Policy.rule_for p ~app_id:12 = strict)

let test_policy_last_rule_wins () =
  let p = Policy.create () in
  let allow_all = { Policy.on_sensitive = Policy.Allow; on_benign = Policy.Allow } in
  let block_all = { Policy.on_sensitive = Policy.Block; on_benign = Policy.Block } in
  Policy.set_rule p ~app_id:5 allow_all;
  Policy.set_rule p ~app_id:5 block_all;
  Alcotest.(check bool) "replaced" true (Policy.rule_for p ~app_id:5 = block_all);
  Policy.set_rule p ~app_id:5 Policy.default_rule;
  Alcotest.(check bool) "back to the default" true
    (Policy.rule_for p ~app_id:5 = Policy.rule_for p ~app_id:6)

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
  Alcotest.(check (list int)) "events in processing order" [ 1; 2; 1 ]
    (List.map (fun e -> e.Flow_control.app_id) log);
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

(* The prompt and the event log carry the signature the detector
   returned, not a copy of some of its fields. *)
let test_signature_match_view () =
  let miss = Signature.make ~id:4 ~mode:Signature.Conjunction ~cluster_size:1 [ "udid=" ] in
  let hit = List.hd signatures in
  let prompted = ref None in
  let m =
    Flow_control.create
      ~on_prompt:(fun ~app_id:_ _p s ->
        prompted := Some s;
        false)
      [ miss; hit ]
  in
  ignore (Flow_control.process m ~app_id:1 (leak_packet ()));
  Alcotest.(check bool) "prompt gets the matched signature" true
    (match !prompted with Some s -> s == hit | None -> false);
  match Flow_control.log m with
  | [ e ] ->
    Alcotest.(check bool) "event records it" true
      (match e.Flow_control.matched with Some s -> s == hit | None -> false)
  | _ -> Alcotest.fail "expected one event"

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
  Alcotest.(check (list int)) "signature ids" [ 0 ]
    (List.sort_uniq compare
       (List.filter_map
          (fun e ->
            if e.Flow_control.app_id = 2 then
              Option.map (fun s -> s.Signature.id) e.Flow_control.matched
            else None)
          (Flow_control.log m)));
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
    [ (None, 2); (Some 1, 0); (None, 0) ]

(* A handset's registry has nothing that drains spans, so a sync must not
   leave one behind: with no parent span open, each would be kept as a root
   for the life of the registry.  The sync counters still move. *)
let test_client_sync_keeps_no_span () =
  let obs = Leakdetect_obs.Obs.create () in
  let client = Signature_client.create ~obs () in
  for v = 1 to 100 do
    ignore (Signature_client.sync client ~fetch:(fun ~since:_ -> Ok (Signature_client.Installed v)))
  done;
  Alcotest.(check int) "no root spans" 0 (List.length (Leakdetect_obs.Obs.root_spans obs));
  Alcotest.(check int) "syncs counted" 100
    (Leakdetect_obs.Obs.Counter.value
       (Leakdetect_obs.Obs.counter obs ~labels:[ ("outcome", "updated") ]
          "leakdetect_client_syncs_total"))

let suite =
  [
    ( "monitor.policy",
      [
        Alcotest.test_case "defaults" `Quick test_policy_defaults;
        Alcotest.test_case "set" `Quick test_policy_set;
        Alcotest.test_case "custom default" `Quick test_policy_custom_default;
        Alcotest.test_case "last rule wins" `Quick test_policy_last_rule_wins;
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
        Alcotest.test_case "304 without news" `Quick test_client_304_without_news;
        Alcotest.test_case "sync keeps no span" `Quick test_client_sync_keeps_no_span ] );
    ( "monitor.flow_control",
      [
        Alcotest.test_case "benign allowed" `Quick test_flow_benign_allowed;
        Alcotest.test_case "sensitive prompts (deny default)" `Quick
          test_flow_sensitive_prompts_denied_by_default;
        Alcotest.test_case "prompt callback" `Quick test_flow_prompt_callback;
        Alcotest.test_case "block rule" `Quick test_flow_block_rule;
        Alcotest.test_case "log and stats" `Quick test_flow_log_and_stats;
        Alcotest.test_case "stats reconcile" `Quick test_flow_reconcile;
        Alcotest.test_case "match view" `Quick test_signature_match_view;
        Alcotest.test_case "replay" `Quick test_flow_replay;
      ] );
  ]
