(* Tests for the Sec. VI extensions: Base64, the WHOIS-like registry and
   registry-verified distance, signature persistence, obfuscated-traffic
   support and probabilistic (Bayes) signatures. *)

module Base64 = Leakdetect_util.Base64
module Registry = Leakdetect_net.Registry
module Ipv4 = Leakdetect_net.Ipv4
module Distance = Leakdetect_core.Distance
module Signature = Leakdetect_core.Signature
module Signature_io = Leakdetect_core.Signature_io
module Bayes = Leakdetect_core.Bayes
module Obfuscation = Leakdetect_android.Obfuscation
module Device = Leakdetect_android.Device
module Packet = Leakdetect_http.Packet
module Prng = Leakdetect_util.Prng

let qtest = QCheck_alcotest.to_alcotest

(* --- Base64 --- *)

let test_base64_vectors () =
  (* RFC 4648 test vectors. *)
  let cases =
    [ ("", ""); ("f", "Zg=="); ("fo", "Zm8="); ("foo", "Zm9v"); ("foob", "Zm9vYg==");
      ("fooba", "Zm9vYmE="); ("foobar", "Zm9vYmFy") ]
  in
  List.iter
    (fun (plain, encoded) ->
      Alcotest.(check string) ("encode " ^ plain) encoded (Base64.encode plain);
      Alcotest.(check (option string)) ("decode " ^ encoded) (Some plain)
        (Base64.decode encoded))
    cases

let test_base64_invalid () =
  Alcotest.(check (option string)) "bad length" None (Base64.decode "Zg=");
  Alcotest.(check (option string)) "bad char" None (Base64.decode "Zm9?");
  Alcotest.(check (option string)) "early padding" None (Base64.decode "Zg==Zm9v")

let prop_base64_roundtrip =
  QCheck.Test.make ~name:"base64 roundtrip" ~count:500
    QCheck.(string_of_size Gen.(0 -- 100))
    (fun s -> Base64.decode (Base64.encode s) = Some s)

(* --- Registry --- *)

let ip s = Option.get (Ipv4.of_string s)

let sample_registry () =
  Registry.empty
  |> fun r ->
  Registry.register r ~org:"google" ~base:(ip "74.125.0.0") ~prefix:16
  |> fun r ->
  Registry.register r ~org:"admaker" ~base:(ip "203.104.0.0") ~prefix:16
  |> fun r -> Registry.register r ~org:"special" ~base:(ip "74.125.7.0") ~prefix:24

let test_registry_lookup () =
  let r = sample_registry () in
  Alcotest.(check (option string)) "in /16" (Some "google") (Registry.lookup r (ip "74.125.3.9"));
  Alcotest.(check (option string)) "longest prefix wins" (Some "special")
    (Registry.lookup r (ip "74.125.7.200"));
  Alcotest.(check (option string)) "unknown" None (Registry.lookup r (ip "8.8.8.8"));
  Alcotest.(check int) "size" 3 (Registry.size r);
  Alcotest.(check (list string)) "organizations" [ "admaker"; "google"; "special" ]
    (Registry.organizations r)

let test_registry_same_org () =
  let r = sample_registry () in
  Alcotest.(check (option bool)) "same" (Some true)
    (Registry.same_organization r (ip "74.125.1.1") (ip "74.125.2.2"));
  Alcotest.(check (option bool)) "different" (Some false)
    (Registry.same_organization r (ip "74.125.1.1") (ip "203.104.9.9"));
  Alcotest.(check (option bool)) "unknown" None
    (Registry.same_organization r (ip "74.125.1.1") (ip "9.9.9.9"))

let test_registry_override () =
  let r = Registry.register Registry.empty ~org:"a" ~base:(ip "10.0.0.0") ~prefix:8 in
  let r = Registry.register r ~org:"b" ~base:(ip "10.3.0.0") ~prefix:8 in
  (* same block (/8 mask of both is 10.0.0.0), later registration wins *)
  Alcotest.(check (option string)) "override" (Some "b") (Registry.lookup r (ip "10.250.0.1"));
  Alcotest.(check int) "no duplicate rows" 1 (Registry.size r)

let test_registry_distance () =
  let r = sample_registry () in
  (* Adjacent /24s, different owners: the case the paper worries about. *)
  let a = ip "10.0.0.255" and b = ip "10.0.1.0" in
  Alcotest.(check bool) "prefix heuristic calls them close" true (Distance.d_ip a b < 0.5);
  let r2 = Registry.register r ~org:"owner-a" ~base:(ip "10.0.0.0") ~prefix:24 in
  let r2 = Registry.register r2 ~org:"other" ~base:(ip "10.0.1.0") ~prefix:24 in
  Alcotest.(check (float 1e-9)) "registry corrects to maximal distance" 1.
    (Distance.d_ip_registry r2 a b);
  Alcotest.(check (float 1e-9)) "same owner snaps to zero" 0.
    (Distance.d_ip_registry r2 (ip "74.125.0.1") (ip "74.125.200.9"));
  Alcotest.(check (float 1e-9)) "unknown falls back to heuristic"
    (Distance.d_ip (ip "1.2.3.4") (ip "1.2.3.5"))
    (Distance.d_ip_registry r2 (ip "1.2.3.4") (ip "1.2.3.5"))

let test_ad_module_registry () =
  let r = Leakdetect_android.Ad_module.registry () in
  Alcotest.(check bool) "covers the catalog" true
    (Registry.size r >= 20);
  let f = Option.get (List.find_opt (fun f -> f.Leakdetect_android.Ad_module.name = "ad-maker.info") Leakdetect_android.Ad_module.catalog) in
  let host = f.Leakdetect_android.Ad_module.hosts.(0) in
  Alcotest.(check (option string)) "family hosts resolve to family org"
    (Some "ad-maker.info")
    (Registry.lookup r (Leakdetect_android.Ad_module.host_ip f host))

(* --- Signature_io --- *)

let test_signature_io_roundtrip () =
  let s =
    Signature.make ~id:3 ~mode:Signature.Conjunction ~cluster_size:7
      [ "imei=3550"; "tab\there"; "newline\nthere" ]
  in
  match Signature_io.of_line (Signature_io.to_line s) with
  | Error e ->
    Alcotest.failf "roundtrip failed: %s" (Leakdetect_util.Leak_error.to_string e)
  | Ok s' ->
    Alcotest.(check int) "id" s.Signature.id s'.Signature.id;
    Alcotest.(check int) "cluster" s.Signature.cluster_size s'.Signature.cluster_size;
    Alcotest.(check (list string)) "tokens" s.Signature.tokens s'.Signature.tokens

let test_signature_io_missing_file () =
  let path = Filename.temp_file "leakdetect_missing" ".sig" in
  Sys.remove path;
  Alcotest.(check bool) "missing file is an Error" true
    (Result.is_error (Signature_io.load path))

let test_signature_io_file () =
  let sigs =
    [
      Signature.make ~id:0 ~mode:Signature.Conjunction ~cluster_size:2 [ "a"; "b" ];
      Signature.make ~id:1 ~mode:Signature.Ordered ~cluster_size:5 [ "x=1" ];
    ]
  in
  let path = Filename.temp_file "leakdetect_sig" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Signature_io.save path sigs;
      match Signature_io.load path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok (loaded, skips) ->
        Alcotest.(check int) "count" 2 (List.length loaded);
        Alcotest.(check int) "no skips in fail mode" 0
          skips.Leakdetect_http.Trace.skipped;
        Alcotest.(check bool) "mode preserved" true
          ((List.nth loaded 1).Signature.mode = Signature.Ordered))

let test_signature_io_errors () =
  let is_err l = match Signature_io.of_line l with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "too few fields" true (is_err "1\tconjunction\t2");
  Alcotest.(check bool) "bad mode" true (is_err "1\tboth\t2\ttok");
  Alcotest.(check bool) "bad id" true (is_err "x\tconjunction\t2\ttok")

let test_signature_io_skip_mode () =
  let sigs =
    List.init 3 (fun i ->
        Signature.make ~id:i ~mode:Signature.Conjunction ~cluster_size:2
          [ Printf.sprintf "tok%d" i ])
  in
  let good = List.map Signature_io.to_line sigs in
  let lines =
    [ List.nth good 0; "not a signature"; List.nth good 1; "x\tbad\tline\ttok";
      List.nth good 2 ]
  in
  let path = Filename.temp_file "leakdetect_sig_skip" ".tsv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc (String.concat "\n" lines ^ "\n");
      close_out oc;
      (match Signature_io.load path with
      | Error e ->
        Alcotest.(check bool) "fail mode reports line 2" true
          (Leakdetect_text.Search.contains ~needle:"line 2" e)
      | Ok _ -> Alcotest.fail "fail mode must error");
      match Signature_io.load ~config:{ Leakdetect_core.Pipeline_config.default with on_error = `Skip } path with
      | Error e -> Alcotest.failf "skip mode failed: %s" e
      | Ok (loaded, skips) ->
        Alcotest.(check int) "salvaged good signatures" 3 (List.length loaded);
        Alcotest.(check int) "skip count" 2 skips.Leakdetect_http.Trace.skipped;
        Alcotest.(check (list int)) "skipped line numbers" [ 2; 4 ]
          (List.map fst skips.Leakdetect_http.Trace.sample))

(* --- Signature_io against the original codec --- *)

(* Tokens over an alphabet that is mostly the escape syntax itself. *)
let field_gen =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ '\\'; '\t'; '\n'; '\r'; 't'; 'n'; 'r'; 'x'; 'a'; '=' ]) (0 -- 8))

let signature_gen =
  QCheck.Gen.(
    map4
      (fun id mode cluster_size tokens -> { Signature.id; mode; cluster_size; tokens })
      (oneof [ int; int_range (-5) 5; oneofl [ min_int; max_int ] ])
      (oneofl [ Signature.Conjunction; Signature.Ordered ])
      (oneof [ int; small_nat ])
      (list_size (0 -- 4) field_gen))

let prop_to_line_matches_oracle =
  QCheck.Test.make ~name:"to_line = original codec" ~count:500
    (QCheck.make ~print:Signature_io_oracle.to_line signature_gen) (fun s ->
      Signature_io.to_line s = Signature_io_oracle.to_line s)

(* Lines built from fields the decoder must accept or refuse exactly as
   before: non-canonical numbers, bad and trailing escapes, empty tokens,
   too few fields and raw carriage returns. *)
let line_gen =
  QCheck.Gen.(
    let number =
      oneof
        [ map string_of_int int;
          oneofl [ "007"; "+5"; "0x1f"; "1_000"; "-0"; ""; "abc"; "99999999999999999999"; " 1" ] ]
    in
    let mode = oneofl [ "conjunction"; "ordered"; "Ordered"; ""; "conjunction\r" ] in
    map4
      (fun id mode size tokens -> String.concat "\t" (id :: mode :: size :: tokens))
      number mode number (list_size (0 -- 4) field_gen)
    >>= fun line ->
    (* Sometimes only a prefix, to drop fields. *)
    map (fun cut -> if cut then String.sub line 0 (String.length line / 2) else line) bool)

let prop_of_line_matches_oracle =
  QCheck.Test.make ~name:"of_line = original codec" ~count:1000
    (QCheck.make ~print:String.escaped line_gen) (fun line ->
      Signature_io.of_line line = Signature_io_oracle.of_line line)

let prop_field_codec_matches_oracle =
  QCheck.Test.make ~name:"trace field codec = original escape/unescape" ~count:500
    (QCheck.make ~print:String.escaped field_gen) (fun f ->
      Leakdetect_http.Trace.escape_field f = Signature_io_oracle.escape f
      && Leakdetect_http.Trace.unescape_field f = Signature_io_oracle.unescape f)

(* --- Obfuscation --- *)

let device = Device.create (Prng.create 1)

let test_xor_involution () =
  let s = "imei=123456789&x=1" in
  Alcotest.(check string) "xor twice is identity" s (Obfuscation.xor_crypt (Obfuscation.xor_crypt s))

let test_obfuscation_hides_identifiers () =
  let rng = Prng.create 2 in
  let p = Obfuscation.leak_packet rng device ~package:"jp.co.x" in
  let content = Packet.content_string p in
  List.iter
    (fun kind ->
      let needle = Device.value device kind in
      Alcotest.(check bool)
        (Leakdetect_core.Sensitive.to_string kind ^ " hidden")
        false
        (Leakdetect_text.Search.contains ~needle content))
    (* What [leak_packet] carries. *)
    [ Leakdetect_core.Sensitive.Android_id; Leakdetect_core.Sensitive.Imei;
      Leakdetect_core.Sensitive.Sim_serial ];
  (* but the payload is recoverable with the module's key *)
  match Obfuscation.decode_leak p with
  | None -> Alcotest.fail "decode failed"
  | Some plain ->
    Alcotest.(check bool) "imei recovered" true
      (Leakdetect_text.Search.contains ~needle:device.Device.imei plain)

let test_obfuscation_invariant_prefix () =
  (* Fixed key + fixed identifiers => constant ciphertext prefix across
     packets and apps: the property the signatures exploit. *)
  let rng = Prng.create 3 in
  let p1 = Obfuscation.leak_packet rng device ~package:"jp.co.a" in
  let p2 = Obfuscation.leak_packet rng device ~package:"jp.co.b" in
  let b1 = p1.Packet.content.Packet.body and b2 = p2.Packet.content.Packet.body in
  let common =
    let n = min (String.length b1) (String.length b2) in
    let rec loop i = if i < n && b1.[i] = b2.[i] then loop (i + 1) else i in
    loop 0
  in
  Alcotest.(check bool) "long shared ciphertext prefix" true (common > 60);
  Alcotest.(check bool) "but not identical packets" true (b1 <> b2)

let test_obfuscation_beacon_differs () =
  let rng = Prng.create 4 in
  let leak = Obfuscation.leak_packet rng device ~package:"jp.co.a" in
  let beacon = Obfuscation.beacon_packet rng device ~package:"jp.co.a" in
  Alcotest.(check string) "same host" leak.Packet.dst.Packet.host beacon.Packet.dst.Packet.host;
  Alcotest.(check bool) "beacon carries no ciphertext blob" false
    (Leakdetect_text.Search.contains ~needle:"d=" beacon.Packet.content.Packet.body)

let test_obfuscated_leaks_cluster_and_detect () =
  (* End-to-end version of the Sec. VI claim on a small pool. *)
  let rng = Prng.create 5 in
  let leaks = Array.init 30 (fun i ->
      Obfuscation.leak_packet rng device ~package:(Printf.sprintf "jp.co.app%d" (i mod 5)))
  in
  let dist = Distance.create () in
  let result = Leakdetect_core.Siggen.generate dist leaks in
  Alcotest.(check bool) "signatures emerge from ciphertext" true
    (result.Leakdetect_core.Siggen.signatures <> []);
  let detector = Leakdetect_core.Detector.create result.Leakdetect_core.Siggen.signatures in
  let fresh =
    Array.init 20 (fun i ->
        Obfuscation.leak_packet rng device ~package:(Printf.sprintf "jp.co.new%d" i))
  in
  Alcotest.(check int) "all fresh leaks detected" 20
    (Leakdetect_core.Detector.count_detected detector fresh);
  let beacons =
    Array.init 20 (fun i ->
        Obfuscation.beacon_packet rng device ~package:(Printf.sprintf "jp.co.new%d" i))
  in
  Alcotest.(check int) "beacons stay clean" 0
    (Leakdetect_core.Detector.count_detected detector beacons)

(* --- Bayes --- *)

let mk ?(host = "r.ad-maker.info") rline =
  Packet.v
    ~ip:(Option.get (Ipv4.of_string "203.104.5.5"))
    ~port:80 ~host ~request_line:rline ~cookie:"" ~body:""

let leak i =
  mk (Printf.sprintf "GET /ad?imei=355021930123456&app=a%d&size=320x50 HTTP/1.1" i)

let benign i = mk ~host:"api.example.jp" (Printf.sprintf "GET /feed/%d?lang=ja HTTP/1.1" i)

let test_bayes_train_basic () =
  let suspicious = Array.init 20 leak in
  let benign = Array.init 40 benign in
  let t =
    Bayes.train ~tokens:[ "imei=355021930123456"; "lang=ja"; "GET /" ] ~suspicious ~benign ()
  in
  (* the identifier token is suspicious-only: positive weight; lang=ja is
     benign-only: filtered out. *)
  let tokens = List.map (fun s -> s.Bayes.token) t.Bayes.tokens in
  Alcotest.(check bool) "identifier kept" true (List.mem "imei=355021930123456" tokens);
  Alcotest.(check bool) "benign marker dropped" false (List.mem "lang=ja" tokens);
  let c = Bayes.compile t in
  Alcotest.(check int) "all leaks flagged" 20 (Bayes.count_detected c suspicious);
  Alcotest.(check int) "no benign flagged" 0 (Bayes.count_detected c benign)

let test_bayes_threshold_respects_target () =
  (* Tokens present in some benign traffic: threshold must rise to keep the
     training false-positive rate within target. *)
  let suspicious = Array.init 30 leak in
  let benign =
    Array.init 100 (fun i ->
        if i < 10 then mk ~host:"api.example.jp" "GET /ad?size=320x50 HTTP/1.1"
        else benign i)
  in
  let t =
    Bayes.train ~target_fp:0.05 ~tokens:[ "size=320x50"; "imei=355021930123456" ]
      ~suspicious ~benign ()
  in
  let c = Bayes.compile t in
  let fp = Bayes.count_detected c benign in
  Alcotest.(check bool) "training FP within target" true (fp <= 5)

let test_bayes_empty_inputs () =
  Alcotest.check_raises "empty suspicious"
    (Invalid_argument "Bayes.train: empty training sample") (fun () ->
      ignore (Bayes.train ~tokens:[ "x" ] ~suspicious:[||] ~benign:[| benign 1 |] ()))

let test_bayes_candidate_tokens () =
  let cluster = [ leak 1; leak 2; leak 3 ] in
  let tokens = Bayes.candidate_tokens [ cluster ] in
  Alcotest.(check bool) "nonempty" true (tokens <> []);
  Alcotest.(check bool) "no boilerplate" true
    (List.for_all (fun t -> not (Signature.is_boilerplate_token t)) tokens);
  (* dedup across clusters *)
  let twice = Bayes.candidate_tokens [ cluster; cluster ] in
  Alcotest.(check int) "deduplicated" (List.length tokens) (List.length twice)

let test_bayes_run_end_to_end () =
  let ds = Leakdetect_android.Workload.generate ~seed:3 ~scale:0.03 () in
  let suspicious, normal = Leakdetect_android.Workload.split ds in
  let o = Bayes.run ~rng:(Prng.create 9) ~n:150 ~suspicious ~normal () in
  Alcotest.(check bool) "decent TP" true
    (o.Bayes.metrics.Leakdetect_core.Metrics.true_positive > 0.6);
  Alcotest.(check bool) "bounded FP" true
    (o.Bayes.metrics.Leakdetect_core.Metrics.false_positive < 0.10);
  Alcotest.(check bool) "tokens learned" true (o.Bayes.n_tokens > 0)

let suite =
  [
    ( "ext.base64",
      [
        Alcotest.test_case "RFC vectors" `Quick test_base64_vectors;
        Alcotest.test_case "invalid input" `Quick test_base64_invalid;
        qtest prop_base64_roundtrip;
      ] );
    ( "ext.registry",
      [
        Alcotest.test_case "lookup" `Quick test_registry_lookup;
        Alcotest.test_case "same organization" `Quick test_registry_same_org;
        Alcotest.test_case "override" `Quick test_registry_override;
        Alcotest.test_case "registry-verified distance" `Quick test_registry_distance;
        Alcotest.test_case "ad-module registry" `Quick test_ad_module_registry;
      ] );
    ( "ext.signature_io",
      [
        Alcotest.test_case "line roundtrip" `Quick test_signature_io_roundtrip;
        Alcotest.test_case "missing file" `Quick test_signature_io_missing_file;
        Alcotest.test_case "file roundtrip" `Quick test_signature_io_file;
        Alcotest.test_case "errors" `Quick test_signature_io_errors;
        Alcotest.test_case "skip mode salvages" `Quick test_signature_io_skip_mode;
        QCheck_alcotest.to_alcotest prop_to_line_matches_oracle;
        QCheck_alcotest.to_alcotest prop_of_line_matches_oracle;
        QCheck_alcotest.to_alcotest prop_field_codec_matches_oracle;
      ] );
    ( "ext.obfuscation",
      [
        Alcotest.test_case "xor involution" `Quick test_xor_involution;
        Alcotest.test_case "identifiers hidden" `Quick test_obfuscation_hides_identifiers;
        Alcotest.test_case "invariant ciphertext prefix" `Quick test_obfuscation_invariant_prefix;
        Alcotest.test_case "beacon differs" `Quick test_obfuscation_beacon_differs;
        Alcotest.test_case "cluster and detect" `Quick test_obfuscated_leaks_cluster_and_detect;
      ] );
    ( "ext.bayes",
      [
        Alcotest.test_case "train basic" `Quick test_bayes_train_basic;
        Alcotest.test_case "threshold respects target" `Quick test_bayes_threshold_respects_target;
        Alcotest.test_case "empty inputs" `Quick test_bayes_empty_inputs;
        Alcotest.test_case "candidate tokens" `Quick test_bayes_candidate_tokens;
        Alcotest.test_case "end to end" `Slow test_bayes_run_end_to_end;
      ] );
  ]
