(* Tests for Leakdetect_adversary: mutator catalogue and replay harness. *)

module Mutator = Leakdetect_adversary.Mutator
module Harness = Leakdetect_adversary.Harness
module Normalize = Leakdetect_normalize.Normalize
module Detector = Leakdetect_core.Detector
module Payload_check = Leakdetect_core.Payload_check
module Packet = Leakdetect_http.Packet
module Json = Leakdetect_util.Json
module Prng = Leakdetect_util.Prng

let imei = "356938035643809"

let leak_packet =
  Packet.v
    ~ip:(Leakdetect_net.Ipv4.of_octets 10 0 0 1)
    ~port:80 ~host:"ads.example.com"
    ~request_line:(Printf.sprintf "GET /track?imei=%s&v=2 HTTP/1.1" imei)
    ~cookie:"sid=abc123" ~body:(Printf.sprintf "uid=%s&extra=1" imei)

let test_catalogue_names_unique () =
  let names = Mutator.names () in
  Alcotest.(check int) "no duplicate names" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun n ->
      match Mutator.by_name n with
      | Some m -> Alcotest.(check string) "by_name finds itself" n m.Mutator.name
      | None -> Alcotest.failf "mutator %s not found by name" n)
    names;
  Alcotest.(check bool) "unknown name" true (Mutator.by_name "nope" = None)

let test_mutators_deterministic () =
  List.iter
    (fun (m : Mutator.t) ->
      let a = m.Mutator.apply (Prng.create 7) leak_packet in
      let b = m.Mutator.apply (Prng.create 7) leak_packet in
      Alcotest.(check string)
        (m.Mutator.name ^ " deterministic")
        (Packet.content_string a) (Packet.content_string b))
    Mutator.all

let test_mutators_keep_destination () =
  List.iter
    (fun (m : Mutator.t) ->
      let p = m.Mutator.apply (Prng.create 7) leak_packet in
      Alcotest.(check bool)
        (m.Mutator.name ^ " keeps destination")
        true
        (p.Packet.dst = leak_packet.Packet.dst))
    Mutator.all

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec loop i = i + n <= h && (String.sub hay i n = needle || loop (i + 1)) in
  n = 0 || loop 0

(* Every decodable mutation must (a) remove the raw identifier and (b) be
   reversible through the lattice: the payload check finds the identifier
   again in some derived view. *)
let body_leak_packet =
  (* The chunked mutator only reframes the body, so give it a packet whose
     identifier lives there alone. *)
  Packet.v
    ~ip:(Leakdetect_net.Ipv4.of_octets 10 0 0 1)
    ~port:80 ~host:"ads.example.com" ~request_line:"POST /track HTTP/1.1"
    ~cookie:"sid=abc123"
    ~body:(Printf.sprintf "uid=%s&extra=1" imei)

let test_decodable_mutations_reversible () =
  let check_pc = Payload_check.create [ (Leakdetect_core.Sensitive.Imei, imei) ] in
  let normalize = Normalize.create () in
  List.iter
    (fun (m : Mutator.t) ->
      if m.Mutator.class_ = Mutator.Decodable && m.Mutator.name <> "case" then begin
        let fixture =
          if m.Mutator.name = "chunked" then body_leak_packet else leak_packet
        in
        let p = m.Mutator.apply (Prng.create 7) fixture in
        Alcotest.(check bool)
          (m.Mutator.name ^ " hides the raw identifier")
          false
          (contains ~needle:imei (Packet.content_string p));
        Alcotest.(check bool)
          (m.Mutator.name ^ " recovered through the lattice")
          true
          (Payload_check.is_sensitive ~normalize check_pc p)
      end)
    Mutator.all

(* The case mutator needs a digest-bearing packet: raw identifiers are
   digits (caseless), so it only moves hex-digest values. *)
let test_case_mutation_on_digest () =
  let digest = "9b74c9897bac770ffc029102a200c5de" in
  let p =
    Packet.v
      ~ip:(Leakdetect_net.Ipv4.of_octets 10 0 0 2)
      ~port:80 ~host:"ads.example.com"
      ~request_line:("GET /t?h=" ^ digest ^ " HTTP/1.1")
      ~cookie:"" ~body:""
  in
  let m = Option.get (Mutator.by_name "case") in
  let mutated = m.Mutator.apply (Prng.create 7) p in
  Alcotest.(check bool) "digest uppercased" false
    (contains ~needle:digest (Packet.content_string mutated));
  let check_pc = Payload_check.create [ (Leakdetect_core.Sensitive.Imei, digest) ] in
  Alcotest.(check bool) "folded digest still classified" true
    (Payload_check.is_sensitive check_pc mutated)

let test_noise_preserves_detection () =
  let detector =
    Detector.create
      [ Leakdetect_core.Signature.make ~id:0 ~mode:Leakdetect_core.Signature.Conjunction
          ~cluster_size:2 [ "imei="; "/track?" ] ]
  in
  let m = Option.get (Mutator.by_name "noise") in
  let mutated = m.Mutator.apply (Prng.create 7) leak_packet in
  Alcotest.(check bool) "noise does not break raw detection" true
    (Detector.first_match_with detector (Detector.scratch detector) mutated <> None)

(* --- harness ------------------------------------------------------------- *)

(* One tiny end-to-end harness run shared by the assertions below. *)
let report =
  lazy
    (Harness.run
       ~mutators:
         (List.filter
            (fun (m : Mutator.t) ->
              List.mem m.Mutator.name [ "percent"; "base64"; "noise" ])
            Mutator.all)
       ~rates:[ 1.0 ] ~seed:11 ~scale:0.01 ~sample_n:60 ())

let find_cell r name =
  List.find (fun (c : Harness.cell) -> c.Harness.mutator = name) r.Harness.cells

let test_harness_shapes () =
  let r = Lazy.force report in
  Alcotest.(check int) "one cell per mutator and rate" 3 (List.length r.Harness.cells);
  Alcotest.(check bool) "leaks present" true (r.Harness.n_leak > 0);
  Alcotest.(check bool) "signatures generated" true (r.Harness.n_signatures > 0);
  List.iter
    (fun (c : Harness.cell) ->
      Alcotest.(check bool) "every leak mutated at rate 1" true
        (c.Harness.mutated = r.Harness.n_leak))
    r.Harness.cells

let test_harness_normalization_recovers () =
  let r = Lazy.force report in
  let percent = find_cell r "percent" in
  Alcotest.(check bool) "percent kills raw recall" true
    (percent.Harness.raw_recall < r.Harness.clean_recall /. 2.);
  Alcotest.(check bool) "normalization restores recall" true
    (percent.Harness.normalized_recall >= r.Harness.clean_recall -. 0.02);
  let noise = find_cell r "noise" in
  Alcotest.(check bool) "noise leaves raw recall" true
    (noise.Harness.raw_recall >= r.Harness.clean_recall -. 0.02)

let test_harness_fp_does_not_explode () =
  let r = Lazy.force report in
  List.iter
    (fun (c : Harness.cell) ->
      Alcotest.(check bool)
        (c.Harness.mutator ^ " normalized FP bounded by clean FP")
        true
        (c.Harness.normalized_fp <= r.Harness.clean_fp))
    r.Harness.cells

let test_harness_deterministic () =
  let one () =
    Harness.run
      ~mutators:
        (List.filter (fun (m : Mutator.t) -> m.Mutator.name = "percent") Mutator.all)
      ~rates:[ 0.5 ] ~seed:3 ~scale:0.005 ~sample_n:40 ()
  in
  let a = one () and b = one () in
  Alcotest.(check string) "same seed, same JSON report"
    (Json.to_string (Harness.to_json a))
    (Json.to_string (Harness.to_json b))

let test_report_json_and_render () =
  let r = Lazy.force report in
  let json = Json.to_string (Harness.to_json r) in
  Alcotest.(check bool) "json has floor_recall" true
    (contains ~needle:"floor_recall" json);
  Alcotest.(check bool) "render mentions every mutator" true
    (List.for_all
       (fun (c : Harness.cell) ->
         contains ~needle:c.Harness.mutator (Harness.render r))
       r.Harness.cells);
  Alcotest.(check bool) "floor over decodable only" true
    (Harness.floor_recall r
    = List.fold_left
        (fun acc (c : Harness.cell) ->
          if c.Harness.class_ = Mutator.Decodable then min acc c.Harness.normalized_recall
          else acc)
        1.0 r.Harness.cells)

let suite =
  [
    ( "adversary.mutator",
      [
        Alcotest.test_case "catalogue names unique" `Quick test_catalogue_names_unique;
        Alcotest.test_case "deterministic" `Quick test_mutators_deterministic;
        Alcotest.test_case "destination preserved" `Quick test_mutators_keep_destination;
        Alcotest.test_case "decodable mutations reversible" `Quick
          test_decodable_mutations_reversible;
        Alcotest.test_case "case mutation on digest" `Quick test_case_mutation_on_digest;
        Alcotest.test_case "noise preserves detection" `Quick
          test_noise_preserves_detection;
      ] );
    ( "adversary.harness",
      [
        Alcotest.test_case "report shape" `Quick test_harness_shapes;
        Alcotest.test_case "normalization recovers recall" `Quick
          test_harness_normalization_recovers;
        Alcotest.test_case "normalized FP bounded" `Quick test_harness_fp_does_not_explode;
        Alcotest.test_case "deterministic report" `Quick test_harness_deterministic;
        Alcotest.test_case "json and render" `Quick test_report_json_and_render;
      ] );
  ]
