(* Tests for the fault-injection subsystem (Leakdetect_fault), the
   signature client's retry machine, the flow-control fail modes and the
   hardened parsers they exercise. *)

open Leakdetect_monitor
module Fault = Leakdetect_fault.Fault
module Headers = Leakdetect_http.Headers
module Packet = Leakdetect_http.Packet
module Request = Leakdetect_http.Request
module Response = Leakdetect_http.Response
module Trace = Leakdetect_http.Trace
module Trace_binary = Leakdetect_http.Trace_binary
module Wire = Leakdetect_http.Wire
module Signature = Leakdetect_core.Signature

let qtest = QCheck_alcotest.to_alcotest

let signatures =
  [ Signature.make ~id:0 ~mode:Signature.Conjunction ~cluster_size:2
      [ "imei=355021930123456" ] ]

let mk ?(rline = "GET /benign HTTP/1.1") () =
  Packet.v
    ~ip:(Leakdetect_net.Ipv4.of_int 1000)
    ~port:80 ~host:"h.jp" ~request_line:rline ~cookie:"" ~body:""

let leak_packet () = mk ~rline:"GET /ad?imei=355021930123456 HTTP/1.1" ()

(* --- Fault plans --- *)

let test_fault_rate0_identity () =
  let plan = Fault.create ~seed:7 Fault.none in
  let payload = "GET /ad?imei=1234 HTTP/1.1\r\n\r\n" in
  Alcotest.(check string) "corrupt_string identity" payload
    (Fault.corrupt_string plan payload);
  Alcotest.(check (list int)) "stream identity" [ 1; 2; 3 ]
    (Fault.apply_stream plan [ 1; 2; 3 ]);
  (match Fault.server_fate plan with
  | Fault.Respond -> ()
  | _ -> Alcotest.fail "rate 0 must respond normally");
  Alcotest.(check int) "no events" 0 (Fault.total plan)

let test_fault_determinism () =
  let run () =
    let plan = Fault.create ~seed:99 Fault.default in
    let outputs = List.init 50 (fun i -> Fault.corrupt_string plan (String.make 40 (Char.chr (65 + (i mod 26))))) in
    let stream = Fault.apply_stream plan (List.init 50 Fun.id) in
    (outputs, stream, List.map (fun (e : Fault.event) -> (e.Fault.kind, e.Fault.detail)) (Fault.events plan))
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same fault schedule" true (a = b)

let test_fault_corrupt_always_changes () =
  let plan =
    Fault.create ~seed:3 { Fault.none with Fault.corrupt_rate = 1.0; corrupt_bytes = 2 }
  in
  let payload = String.make 64 'a' in
  for _ = 1 to 20 do
    Alcotest.(check bool) "corrupted payload differs" true
      (Fault.corrupt_string plan payload <> payload)
  done;
  Alcotest.(check int) "every hit recorded" 20 (Fault.count plan Fault.Corrupt)

let test_fault_truncate () =
  let plan = Fault.create ~seed:5 { Fault.none with Fault.truncate_rate = 1.0 } in
  let payload = String.make 32 'x' in
  let out = Fault.corrupt_string plan payload in
  Alcotest.(check bool) "shorter" true (String.length out < 32);
  Alcotest.(check int) "recorded" 1 (Fault.count plan Fault.Truncate)

let test_fault_stream_drop_duplicate () =
  let drop_all = Fault.create ~seed:1 { Fault.none with Fault.drop_rate = 1.0 } in
  Alcotest.(check (list int)) "all dropped" [] (Fault.apply_stream drop_all [ 1; 2; 3 ]);
  Alcotest.(check int) "drops recorded" 3 (Fault.count drop_all Fault.Drop);
  let dup_all = Fault.create ~seed:1 { Fault.none with Fault.duplicate_rate = 1.0 } in
  Alcotest.(check (list int)) "all doubled" [ 1; 1; 2; 2 ]
    (Fault.apply_stream dup_all [ 1; 2 ])

let test_fault_server_fate () =
  let fail_all = Fault.create ~seed:2 { Fault.none with Fault.server_error_rate = 1.0 } in
  (match Fault.server_fate fail_all with
  | Fault.Fail 503 -> ()
  | _ -> Alcotest.fail "expected transient 503");
  let delay_all =
    Fault.create ~seed:2 { Fault.none with Fault.delay_rate = 1.0; max_delay = 4 }
  in
  (match Fault.server_fate delay_all with
  | Fault.Respond_delayed t -> Alcotest.(check bool) "1..4 ticks" true (t >= 1 && t <= 4)
  | _ -> Alcotest.fail "expected delay");
  let summary = Fault.summary fail_all in
  Alcotest.(check int) "summary covers all kinds" (List.length Fault.all_kinds)
    (List.length summary)

(* The faulty transport: identity at rate 0, a transient error before the
   server is reached, a drop on either hop, and corruption in transit. *)
let test_fault_transport () =
  let calls = ref 0 in
  let echo raw =
    incr calls;
    Ok ("re:" ^ raw)
  in
  let via config raw = Fault.transport (Fault.create ~seed:3 config) echo raw in
  Alcotest.(check (result string string)) "rate 0 passes through" (Ok "re:ping")
    (via Fault.none "ping");
  Alcotest.(check (result string string)) "server error never reaches the server"
    (Error "transient server error 503")
    (via { Fault.none with Fault.server_error_rate = 1.0 } "ping");
  Alcotest.(check int) "one server call so far" 1 !calls;
  Alcotest.(check (result string string)) "dropped request"
    (Error "payload dropped in transit")
    (via { Fault.none with Fault.drop_rate = 1.0 } "ping");
  Alcotest.(check int) "dropped request never reaches the server" 1 !calls;
  let delayed =
    Fault.create ~seed:3 { Fault.none with Fault.delay_rate = 1.0; max_delay = 4 }
  in
  Alcotest.(check (result string string)) "a delay still answers" (Ok "re:ping")
    (Fault.transport delayed echo "ping");
  Alcotest.(check int) "the delay is counted" 1 (Fault.count delayed Fault.Delay);
  match via { Fault.none with Fault.corrupt_rate = 1.0 } "ping" with
  | Ok r -> Alcotest.(check bool) "corrupted in transit" true (r <> "re:ping")
  | Error e -> Alcotest.failf "corruption must not fail the call: %s" e

(* --- Storage faults: crash points and torn writes --- *)

let test_fault_crash_point () =
  let plan = Fault.create ~seed:4 { Fault.none with Fault.crash_rate = 1.0 } in
  for _ = 1 to 50 do
    match Fault.crash_point plan ~len:64 with
    | Some n -> Alcotest.(check bool) "0 <= n < len" true (n >= 0 && n < 64)
    | None -> Alcotest.fail "rate 1 must always crash"
  done;
  Alcotest.(check int) "every crash recorded" 50 (Fault.count plan Fault.Crash);
  Alcotest.(check bool) "len 0 never crashes" true
    (Fault.crash_point plan ~len:0 = None);
  let quiet = Fault.create ~seed:4 Fault.none in
  for _ = 1 to 50 do
    Alcotest.(check bool) "rate 0 completes every write" true
      (Fault.crash_point quiet ~len:64 = None)
  done;
  Alcotest.(check int) "rate 0 records nothing" 0 (Fault.total quiet);
  (* Same seed, same crash schedule. *)
  let a = Fault.create ~seed:77 { Fault.none with Fault.crash_rate = 0.5 } in
  let b = Fault.create ~seed:77 { Fault.none with Fault.crash_rate = 0.5 } in
  let run p = List.init 40 (fun _ -> Fault.crash_point p ~len:100) in
  Alcotest.(check bool) "deterministic" true (run a = run b)

let test_fault_torn_write () =
  let plan = Fault.create ~seed:9 { Fault.none with Fault.torn_write_rate = 1.0 } in
  let header = "LDWAL001" in
  let image = header ^ String.make 40 'r' ^ String.make 12 't' in
  let protect = String.length header in
  let tail_start = String.length image - 12 in
  let flips = ref 0 and dups = ref 0 in
  for _ = 1 to 40 do
    let out = Fault.torn_write plan ~protect ~tail_start image in
    if String.length out = String.length image then begin
      (* Bit-flip branch: exactly one byte differs, never in the header. *)
      let diffs = ref [] in
      String.iteri (fun i c -> if c <> image.[i] then diffs := i :: !diffs) out;
      (match !diffs with
      | [ i ] ->
        incr flips;
        Alcotest.(check bool) "flip spares the header" true (i >= protect)
      | _ -> Alcotest.fail "flip must change exactly one byte")
    end
    else begin
      (* Duplication branch: the tail record is appended verbatim. *)
      incr dups;
      Alcotest.(check string) "image prefix intact" image
        (String.sub out 0 (String.length image));
      Alcotest.(check string) "tail duplicated"
        (String.sub image tail_start 12)
        (String.sub out (String.length image) 12)
    end
  done;
  Alcotest.(check bool) "both damage modes exercised" true (!flips > 0 && !dups > 0);
  Alcotest.(check int) "every tear recorded" 40 (Fault.count plan Fault.Torn_write);
  (* Identity cases: nothing past the protected header, and rate 0. *)
  Alcotest.(check string) "header-only image untouched" header
    (Fault.torn_write plan ~protect ~tail_start:protect header);
  let quiet = Fault.create ~seed:9 Fault.none in
  Alcotest.(check string) "rate 0 is identity" image
    (Fault.torn_write quiet ~protect ~tail_start image);
  Alcotest.(check int) "rate 0 records nothing" 0 (Fault.total quiet)

(* --- Hardened wire parsers --- *)

let test_wire_limits () =
  let mk_raw headers = "GET / HTTP/1.1\r\n" ^ headers ^ "\r\n" in
  let many =
    String.concat "" (List.init 100 (fun i -> Printf.sprintf "H%d: v\r\n" i))
  in
  (match Wire.parse (mk_raw many) with
  | Error (Wire.Too_many_headers n) -> Alcotest.(check int) "count reported" 100 n
  | _ -> Alcotest.fail "expected Too_many_headers");
  let long_line = "X: " ^ String.make 5000 'a' ^ "\r\n" in
  (match Wire.parse (mk_raw long_line) with
  | Error (Wire.Header_line_too_long _) -> ()
  | _ -> Alcotest.fail "expected Header_line_too_long");
  let tight = { Wire.default_limits with Wire.max_body = 4 } in
  (match Wire.parse ~limits:tight "POST /p HTTP/1.1\r\n\r\n12345" with
  | Error (Wire.Body_too_large 5) -> ()
  | _ -> Alcotest.fail "expected Body_too_large");
  match Wire.parse (mk_raw "Host: h.jp\r\n") with
  | Ok r -> Alcotest.(check (option string)) "normal request passes" (Some "h.jp") (Request.host r)
  | Error e -> Alcotest.failf "default limits rejected normal request: %s" (Wire.error_to_string e)

let test_response_limits () =
  let many =
    "HTTP/1.1 200 OK\r\n"
    ^ String.concat "" (List.init 100 (fun i -> Printf.sprintf "H%d: v\r\n" i))
    ^ "\r\n"
  in
  (match Response.parse many with
  | Error (Wire.Too_many_headers _) -> ()
  | _ -> Alcotest.fail "expected Too_many_headers");
  let tight = { Wire.default_limits with Wire.max_body = 2 } in
  match Response.parse ~limits:tight "HTTP/1.1 200 OK\r\n\r\nabc" with
  | Error (Wire.Body_too_large 3) -> ()
  | _ -> Alcotest.fail "expected Body_too_large"

let prop_wire_roundtrip_survives_rate0 =
  let path_gen = QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 97 122)) (1 -- 20)) in
  let body_gen = QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (0 -- 60)) in
  QCheck.Test.make ~name:"Wire.parse ∘ Wire.print survives rate-0 fault corruption"
    ~count:200
    (QCheck.make (QCheck.Gen.pair path_gen body_gen))
    (fun (path, body) ->
      let plan = Fault.create ~seed:11 Fault.none in
      let r =
        Request.make
          ~headers:(Headers.of_list [ ("Host", "h.jp") ])
          ~body Request.POST ("/" ^ path)
      in
      match Wire.parse (Fault.corrupt_string plan (Wire.print r)) with
      | Ok parsed ->
        Request.request_line parsed = Request.request_line r
        && parsed.Request.body = body
      | Error _ -> false)

(* --- Lenient trace readers --- *)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let sample_records () =
  List.init 7 (fun i ->
      {
        Trace.packet =
          Packet.v ~ip:(Leakdetect_net.Ipv4.of_int (i * 99991)) ~port:(80 + i)
            ~host:(Printf.sprintf "h%d.example.jp" i)
            ~request_line:(Printf.sprintf "GET /p/%d HTTP/1.1" i)
            ~cookie:"" ~body:"";
        app_id = i;
        labels = [];
      })

let test_trace_skip_mode () =
  let records = sample_records () in
  let good = List.map Trace.record_to_line records in
  let lines =
    [ List.nth good 0; "garbage line"; List.nth good 1; "another\tbad";
      List.nth good 2 ]
  in
  let path = Filename.temp_file "leakdetect_skip" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path (String.concat "\n" lines ^ "\n");
      (match Trace.load path with
      | Error e ->
        Alcotest.(check bool) "fail mode reports line 2" true
          (Leakdetect_text.Search.contains ~needle:"line 2" e)
      | Ok _ -> Alcotest.fail "fail mode must error");
      match Trace.load ~on_error:`Skip path with
      | Error e -> Alcotest.failf "skip mode failed: %s" e
      | Ok (loaded, skips) ->
        Alcotest.(check int) "recovered good records" 3 (List.length loaded);
        Alcotest.(check int) "skipped count" 2 skips.Trace.skipped;
        Alcotest.(check (list int)) "skipped line numbers" [ 2; 4 ]
          (List.map fst skips.Trace.sample))

let test_binary_skip_salvages_prefix () =
  let records = sample_records () in
  let encoded = Trace_binary.encode records in
  (* Dropping the tail desyncs the last record; Skip salvages the prefix. *)
  let truncated = String.sub encoded 0 (String.length encoded - 3) in
  (match Trace_binary.decode ~on_error:`Skip truncated with
  | Error e -> Alcotest.failf "skip mode failed: %s" e
  | Ok (loaded, skips) ->
    Alcotest.(check int) "salvaged all but last" 6 (List.length loaded);
    Alcotest.(check bool) "skip recorded" true (skips.Trace.skipped >= 1));
  (* A flipped length byte early on loses everything, but without raising. *)
  let flipped = Bytes.of_string encoded in
  Bytes.set flipped 19 '\xff';
  (match Trace_binary.decode ~on_error:`Skip (Bytes.to_string flipped) with
  | Ok (loaded, skips) ->
    Alcotest.(check bool) "salvage is a prefix" true (List.length loaded < 7);
    Alcotest.(check bool) "losses counted" true
      (skips.Trace.skipped + List.length loaded >= 7)
  | Error _ -> ());
  (* Header damage is fatal in both modes. *)
  (match Trace_binary.decode ~on_error:`Skip ("XXXX" ^ String.sub encoded 4 (String.length encoded - 4)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage magic must error");
  match Trace_binary.decode ~on_error:`Fail truncated with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "fail mode must error on truncation"

(* --- Signature client --- *)

(* A scripted fetch: answers each call with the next element of
   [script], as a real fetch would after installing (or failing to
   install) a set at that version. *)
let scripted script =
  let rest = ref script in
  fun ~since:_ ->
    match !rest with
    | r :: more ->
      rest := more;
      r
    | [] -> Alcotest.fail "fetch called beyond its script"

let installed v = Ok (Signature_client.Installed v)
let up_to_date = Ok (Signature_client.Up_to_date { observed = None })

let test_client_happy_path () =
  let client = Signature_client.create () in
  let fetch = scripted [ installed 1; up_to_date ] in
  let report = Signature_client.sync client ~fetch in
  (match report.Signature_client.outcome with
  | Signature_client.Updated 1 -> ()
  | _ -> Alcotest.fail "expected Updated 1");
  Alcotest.(check int) "one attempt" 1 report.Signature_client.attempts;
  Alcotest.(check int) "no backoff" 0 report.Signature_client.waited;
  Alcotest.(check int) "version" 1 (Signature_client.version client);
  let again = Signature_client.sync client ~fetch in
  match again.Signature_client.outcome with
  | Signature_client.Unchanged -> ()
  | _ -> Alcotest.fail "expected Unchanged"

let test_client_retries_with_backoff () =
  let fetch =
    scripted
      [ Error "transient server error 503"; Error "transient server error 503";
        installed 1 ]
  in
  let config =
    { Signature_client.default_config with
      Signature_client.base_backoff = 1;
      max_backoff = 8;
      jitter = 0;
    }
  in
  let client = Signature_client.create ~config () in
  let report = Signature_client.sync client ~fetch in
  (match report.Signature_client.outcome with
  | Signature_client.Updated 1 -> ()
  | _ -> Alcotest.fail "expected recovery");
  Alcotest.(check int) "three attempts" 3 report.Signature_client.attempts;
  (* Failed attempts 1 and 2 wait 1 and 2 ticks (no jitter). *)
  Alcotest.(check int) "exponential backoff" 3 report.Signature_client.waited;
  Alcotest.(check string) "healthy after recovery" "healthy"
    (Signature_client.health_to_string (Signature_client.health client));
  Alcotest.(check int) "failed attempts tracked" 2
    (Signature_client.staleness client).Signature_client.failed_attempts

let test_client_health_state_machine () =
  let config =
    { Signature_client.default_config with
      Signature_client.max_attempts = 2;
      jitter = 0;
      stale_after = 2;
    }
  in
  let client = Signature_client.create ~config () in
  let broken ~since:_ = Error "no route to server" in
  (* Reach a last-known-good version first. *)
  ignore (Signature_client.sync client ~fetch:(scripted [ installed 1 ]));
  Alcotest.(check string) "healthy" "healthy"
    (Signature_client.health_to_string (Signature_client.health client));
  let r1 = Signature_client.sync client ~fetch:broken in
  (match r1.Signature_client.outcome with
  | Signature_client.Failed _ -> ()
  | _ -> Alcotest.fail "expected Failed");
  Alcotest.(check int) "budget respected" 2 r1.Signature_client.attempts;
  Alcotest.(check string) "degraded after one failed sync" "degraded"
    (Signature_client.health_to_string (Signature_client.health client));
  ignore (Signature_client.sync client ~fetch:broken);
  Alcotest.(check string) "stale after two" "stale"
    (Signature_client.health_to_string (Signature_client.health client));
  Alcotest.(check int) "still at v1" 1 (Signature_client.version client);
  Alcotest.(check bool) "last error kept" true
    (Signature_client.last_error client = Some "no route to server");
  (* Recovery: the next good sync returns to Healthy and records the gap
     (the server moved on to v3 while we were failing). *)
  ignore (Signature_client.sync client ~fetch:(scripted [ installed 3 ]));
  Alcotest.(check string) "healthy again" "healthy"
    (Signature_client.health_to_string (Signature_client.health client));
  let st = Signature_client.staleness client in
  Alcotest.(check int) "failed syncs reset" 0 st.Signature_client.failed_syncs;
  Alcotest.(check int) "version gap recorded" 1 st.Signature_client.version_gap;
  Alcotest.(check int) "caught up" 3 (Signature_client.version client)

(* --- backoff jitter bounds, both modes --- *)

(* Run one sync against a dead server and return the total waited ticks:
   with [max_attempts = n] the client sleeps after failed attempts
   1..n-1, so [waited] is the sum of n-1 backoff draws. *)
let waited_of ~mode ~seed ~attempts ~base ~max_b ~jitter =
  let config =
    { Signature_client.default_config with
      Signature_client.max_attempts = attempts;
      base_backoff = base;
      max_backoff = max_b;
      jitter;
      jitter_mode = mode;
    }
  in
  let client = Signature_client.create ~config ~seed () in
  let report = Signature_client.sync client ~fetch:(fun ~since:_ -> Error "down") in
  (match report.Signature_client.outcome with
  | Signature_client.Failed _ -> ()
  | _ -> Alcotest.fail "dead server must fail the sync");
  report.Signature_client.waited

let jitter_gen =
  QCheck.make
    ~print:(fun (seed, (attempts, (base, (max_b, jitter)))) ->
      Printf.sprintf "seed %d, %d attempts, base %d, max %d, jitter %d" seed
        attempts base max_b jitter)
    QCheck.Gen.(
      pair (int_range 0 9999)
        (pair (int_range 2 6)
           (pair (int_range 1 5) (pair (int_range 1 40) (int_range 0 5)))))

let prop_equal_jitter_bounds =
  QCheck.Test.make ~name:"equal jitter stays within its envelope" ~count:300
    jitter_gen
    (fun (seed, (attempts, (base, (max_b, jitter)))) ->
      let waited =
        waited_of ~mode:Signature_client.Equal ~seed ~attempts ~base ~max_b
          ~jitter
      in
      (* Wait k is min(max_b, base * 2^(k-1)) plus uniform(0, jitter). *)
      let floor_sum = ref 0 in
      for k = 1 to attempts - 1 do
        floor_sum := !floor_sum + min max_b (base lsl (k - 1))
      done;
      waited >= !floor_sum && waited <= !floor_sum + ((attempts - 1) * jitter))

let prop_decorrelated_jitter_bounds =
  QCheck.Test.make
    ~name:"decorrelated jitter stays within its widening envelope" ~count:300
    jitter_gen
    (fun (seed, (attempts, (base, (max_b, jitter)))) ->
      let waited =
        waited_of ~mode:Signature_client.Decorrelated ~seed ~attempts ~base
          ~max_b ~jitter
      in
      (* Wait k is uniform(base, min(max_b, 3 * wait_{k-1})), so the walk's
         upper envelope triples from base and the floor is flat. *)
      let lo = max 1 base in
      let ub_sum = ref 0 and ub = ref base in
      for _ = 1 to attempts - 1 do
        ub := max lo (min max_b (!ub * 3));
        ub_sum := !ub_sum + !ub
      done;
      waited >= (attempts - 1) * lo && waited <= !ub_sum)

(* --- Flow control fail modes --- *)

let test_flow_fail_closed_when_stale () =
  let m = Flow_control.create ~fail_mode:Flow_control.Fail_closed signatures in
  Alcotest.(check string) "healthy: benign passes" "allowed"
    (Flow_control.decision_to_string (Flow_control.process m ~app_id:1 (mk ())));
  Flow_control.set_health m Signature_client.Stale;
  Alcotest.(check string) "stale: benign blocked" "blocked"
    (Flow_control.decision_to_string (Flow_control.process m ~app_id:1 (mk ())));
  Alcotest.(check string) "stale: leak blocked" "blocked"
    (Flow_control.decision_to_string (Flow_control.process m ~app_id:1 (leak_packet ())));
  Flow_control.set_health m Signature_client.Healthy;
  Alcotest.(check string) "recovered: benign passes again" "allowed"
    (Flow_control.decision_to_string (Flow_control.process m ~app_id:1 (mk ())));
  let allowed, blocked, _ = Flow_control.stats m in
  Alcotest.(check (list int)) "stats track fail-closed blocks" [ 2; 2 ]
    [ allowed; blocked ]

let test_flow_fail_open_when_stale () =
  let m = Flow_control.create ~fail_mode:Flow_control.Fail_open signatures in
  Flow_control.set_health m Signature_client.Stale;
  Alcotest.(check string) "stale: benign still passes" "allowed"
    (Flow_control.decision_to_string (Flow_control.process m ~app_id:1 (mk ())));
  Alcotest.(check string) "stale: last-known-good still enforced" "prompted:stopped"
    (Flow_control.decision_to_string (Flow_control.process m ~app_id:1 (leak_packet ())));
  Alcotest.(check string) "degraded never trips fail-closed" "allowed"
    (Flow_control.decision_to_string
       (let m' = Flow_control.create ~fail_mode:Flow_control.Fail_closed signatures in
        Flow_control.set_health m' Signature_client.Degraded;
        Flow_control.process m' ~app_id:1 (mk ())))

(* --- End-to-end chaos: ingest --- *)

let test_chaos_ingest_recovers () =
  let records =
    List.concat (List.init 30 (fun _ -> sample_records ()))
  in
  let plan = Fault.create ~seed:17 { Fault.default with Fault.drop_rate = 0.05 } in
  let delivered = Fault.apply_stream plan records in
  let lines = List.map (fun r -> Fault.corrupt_string plan (Trace.record_to_line r)) delivered in
  let path = Filename.temp_file "leakdetect_chaos_test" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      write_file path (String.concat "\n" lines ^ "\n");
      match Trace.load ~on_error:`Skip path with
      | Error e -> Alcotest.failf "lenient load failed: %s" e
      | Ok (recovered, skips) ->
        let damaged = Fault.count plan Fault.Corrupt + Fault.count plan Fault.Truncate in
        Alcotest.(check bool) "recovers at least the intact fraction" true
          (List.length recovered >= List.length delivered - damaged);
        Alcotest.(check int) "recovered + skipped = delivered"
          (List.length delivered)
          (List.length recovered + skips.Trace.skipped))

let suite =
  [
    ( "fault.plan",
      [
        Alcotest.test_case "rate 0 is identity" `Quick test_fault_rate0_identity;
        Alcotest.test_case "deterministic schedule" `Quick test_fault_determinism;
        Alcotest.test_case "corruption changes bytes" `Quick test_fault_corrupt_always_changes;
        Alcotest.test_case "truncation" `Quick test_fault_truncate;
        Alcotest.test_case "drop/duplicate" `Quick test_fault_stream_drop_duplicate;
        Alcotest.test_case "server fate" `Quick test_fault_server_fate;
        Alcotest.test_case "faulty transport" `Quick test_fault_transport;
        Alcotest.test_case "crash points" `Quick test_fault_crash_point;
        Alcotest.test_case "torn writes" `Quick test_fault_torn_write;
      ] );
    ( "fault.parsers",
      [
        Alcotest.test_case "wire limits" `Quick test_wire_limits;
        Alcotest.test_case "response limits" `Quick test_response_limits;
        qtest prop_wire_roundtrip_survives_rate0;
        Alcotest.test_case "trace skip mode" `Quick test_trace_skip_mode;
        Alcotest.test_case "binary skip salvages prefix" `Quick test_binary_skip_salvages_prefix;
      ] );
    ( "fault.signature_client",
      [
        Alcotest.test_case "happy path" `Quick test_client_happy_path;
        Alcotest.test_case "retry with backoff" `Quick test_client_retries_with_backoff;
        Alcotest.test_case "health state machine" `Quick test_client_health_state_machine;
        qtest prop_equal_jitter_bounds;
        qtest prop_decorrelated_jitter_bounds;
      ] );
    ( "fault.flow_control",
      [
        Alcotest.test_case "fail-closed when stale" `Quick test_flow_fail_closed_when_stale;
        Alcotest.test_case "fail-open when stale" `Quick test_flow_fail_open_when_stale;
      ] );
    ( "fault.chaos",
      [
        Alcotest.test_case "ingest recovers intact fraction" `Quick test_chaos_ingest_recovers;
      ] );
  ]
