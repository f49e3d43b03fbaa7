(* Tests for Leakdetect_core: the paper's distances, payload check,
   signatures, generation, detection and evaluation metrics. *)

module Distance = Leakdetect_core.Distance
module Payload_check = Leakdetect_core.Payload_check
module Sensitive = Leakdetect_core.Sensitive
module Signature = Leakdetect_core.Signature
module Siggen = Leakdetect_core.Siggen
module Detector = Leakdetect_core.Detector
module Metrics = Leakdetect_core.Metrics
module Pipeline = Leakdetect_core.Pipeline
module Packet = Leakdetect_http.Packet
module Ipv4 = Leakdetect_net.Ipv4

let qtest = QCheck_alcotest.to_alcotest

let mk ?(ip = "74.125.1.2") ?(port = 80) ?(host = "r.admob.com")
    ?(rline = "GET /ad HTTP/1.1") ?(cookie = "") ?(body = "") () =
  Packet.v ~ip:(Option.get (Ipv4.of_string ip)) ~port ~host ~request_line:rline
    ~cookie ~body

(* --- Sensitive --- *)

(* Table III order is the kinds' order: [compare], [Set] and [all] agree. *)
let test_sensitive_order () =
  let shuffled = Array.of_list (List.rev Sensitive.all) in
  Leakdetect_util.Sample.shuffle (Leakdetect_util.Prng.create 3) shuffled;
  Alcotest.(check (list string)) "sort restores table order"
    (List.map Sensitive.to_string Sensitive.all)
    (List.map Sensitive.to_string (List.sort Sensitive.compare (Array.to_list shuffled)));
  Alcotest.(check (list string)) "set elements in table order"
    (List.map Sensitive.to_string Sensitive.all)
    (List.map Sensitive.to_string
       (Sensitive.Set.elements (Sensitive.Set.of_list (Array.to_list shuffled))));
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check bool) "equal iff compare = 0" (Sensitive.compare a b = 0)
            (Sensitive.equal a b))
        Sensitive.all)
    Sensitive.all;
  let names = List.map Sensitive.paper_name Sensitive.all in
  Alcotest.(check int) "paper names distinct" (List.length names)
    (List.length (List.sort_uniq String.compare names))

let test_sensitive_names () =
  List.iter
    (fun k ->
      Alcotest.(check bool) (Sensitive.to_string k) true
        (Sensitive.of_string (Sensitive.to_string k) = Some k))
    Sensitive.all;
  Alcotest.(check int) "nine kinds (Table III rows)" 9 (List.length Sensitive.all);
  Alcotest.(check bool) "unknown" true (Sensitive.of_string "nope" = None);
  Alcotest.(check string) "paper name" "IMEI (Device ID)" (Sensitive.paper_name Sensitive.Imei)

(* --- Distance --- *)

let test_d_ip () =
  let ip s = Option.get (Ipv4.of_string s) in
  Alcotest.(check (float 1e-9)) "identical addresses are distance 0" 0.
    (Distance.d_ip (ip "8.8.8.8") (ip "8.8.8.8"));
  Alcotest.(check (float 1e-9)) "opposite first bit is distance 1" 1.
    (Distance.d_ip (ip "128.0.0.0") (ip "0.0.0.0"));
  Alcotest.(check (float 1e-9)) "same /24" 0.25
    (Distance.d_ip (ip "10.0.0.1") (ip "10.0.0.129"))

let test_d_port () =
  Alcotest.(check (float 1e-9)) "equal" 0. (Distance.d_port 80 80);
  Alcotest.(check (float 1e-9)) "different" 1. (Distance.d_port 80 443)

let test_d_host () =
  Alcotest.(check (float 1e-9)) "identical" 0. (Distance.d_host "a.jp" "a.jp");
  Alcotest.(check bool) "related below unrelated" true
    (Distance.d_host "r.admob.com" "mm.admob.com"
    < Distance.d_host "r.admob.com" "sh.medibaad.com")

let test_d_dst_components () =
  let ctx = Distance.create () in
  let p1 = mk () in
  let p2 = mk ~ip:"74.125.1.2" ~host:"r.admob.com" () in
  Alcotest.(check (float 1e-9)) "same destination" 0. (Distance.d_dst ctx p1 p2);
  let p3 = mk ~ip:"203.104.5.5" ~port:8080 ~host:"r.ad-maker.info" () in
  let d = Distance.d_dst ctx p1 p3 in
  Alcotest.(check bool) "different destination positive" true (d > 1.);
  Alcotest.(check bool) "bounded by 3" true (d <= 3.)

let test_destination_only_ignores_content () =
  let ctx = Distance.create ~components:Distance.destination_only () in
  let p1 = mk ~rline:"GET /a HTTP/1.1" () in
  let p2 = mk ~rline:"GET /completely/different?x=1 HTTP/1.1" () in
  Alcotest.(check (float 1e-9)) "content ignored" 0. (Distance.d_pkt ctx p1 p2)

let test_content_only_ignores_destination () =
  let ctx = Distance.create ~components:Distance.content_only () in
  let p1 = mk ~ip:"1.2.3.4" ~host:"a.jp" () in
  let p2 = mk ~ip:"200.9.9.9" ~host:"z.example.com" () in
  Alcotest.(check (float 1e-9)) "identical content, distance 0"
    (Distance.d_pkt ctx p1 p1) (Distance.d_pkt ctx p1 p2)

let test_d_pkt_discrimination () =
  let ctx = Distance.create () in
  let a1 =
    mk ~ip:"203.104.5.5" ~host:"r.ad-maker.info"
      ~rline:"GET /ad/sdk/img?aid=jp.co.a&imei=355021930123456&size=320x50 HTTP/1.1" ()
  in
  let a2 =
    mk ~ip:"203.104.5.9" ~host:"img.ad-maker.info"
      ~rline:"GET /ad/sdk/img?aid=jp.co.b&imei=355021930123456&size=320x50 HTTP/1.1" ()
  in
  let b =
    mk ~ip:"74.6.1.1" ~host:"data.flurry.com" ~rline:"POST /aap.do HTTP/1.1"
      ~body:"ak=aabb&u=9f8e7d" ()
  in
  Alcotest.(check bool) "same module close, other module far" true
    (Distance.d_pkt ctx a1 a2 < Distance.d_pkt ctx a1 b)

let test_trigram_metric_option () =
  let ncd_ctx = Distance.create () in
  let tri_ctx = Distance.create ~content_metric:Distance.Trigram () in
  let p1 = mk ~rline:"GET /ad?imei=355021930123456&size=320x50 HTTP/1.1" () in
  let p2 = mk ~rline:"GET /ad?imei=355021930123456&size=320x50&y=2 HTTP/1.1" () in
  let p3 = mk ~host:"data.flurry.com" ~rline:"POST /aap.do HTTP/1.1" () in
  (* Both metrics must order same-module below cross-module. *)
  Alcotest.(check bool) "ncd ordering" true
    (Distance.d_pkt ncd_ctx p1 p2 < Distance.d_pkt ncd_ctx p1 p3);
  Alcotest.(check bool) "trigram ordering" true
    (Distance.d_pkt tri_ctx p1 p2 < Distance.d_pkt tri_ctx p1 p3);
  (* And they are genuinely different metrics. *)
  Alcotest.(check bool) "metrics differ" true
    (Distance.d_header ncd_ctx p1 p2 <> Distance.d_header tri_ctx p1 p2)

let test_max_possible () =
  Alcotest.(check (float 1e-9)) "all components" 6.
    (Distance.max_possible (Distance.create ()));
  Alcotest.(check (float 1e-9)) "destination only" 3.
    (Distance.max_possible (Distance.create ~components:Distance.destination_only ()))

let prop_d_pkt_symmetric =
  let gen = QCheck.Gen.(pair (string_size (0 -- 40)) (string_size (0 -- 40))) in
  QCheck.Test.make ~name:"d_pkt is symmetric" ~count:100 (QCheck.make gen)
    (fun (s1, s2) ->
      let ctx = Distance.create () in
      let p1 = mk ~rline:("GET /" ^ String.escaped s1 ^ " HTTP/1.1") () in
      let p2 = mk ~host:"mm.admob.com" ~rline:("GET /" ^ String.escaped s2 ^ " HTTP/1.1") () in
      Float.abs (Distance.d_pkt ctx p1 p2 -. Distance.d_pkt ctx p2 p1) < 1e-9)

let test_matrix_builder () =
  let ctx = Distance.create () in
  let packets = [| mk (); mk ~host:"mm.admob.com" (); mk ~host:"data.flurry.com" () |] in
  let m = Distance.matrix ctx packets in
  Alcotest.(check int) "size" 3 (Leakdetect_cluster.Dist_matrix.size m);
  Alcotest.(check (float 1e-9)) "symmetric storage"
    (Leakdetect_cluster.Dist_matrix.get m 0 2)
    (Leakdetect_cluster.Dist_matrix.get m 2 0)

(* --- Payload_check --- *)

let needles =
  [
    (Sensitive.Imei, "355021930123456");
    (Sensitive.Android_id, "9774d56d682e549c");
    (Sensitive.Carrier, "NTTdocomo");
  ]

let test_payload_scan () =
  let check = Payload_check.create needles in
  let hit = mk ~rline:"GET /ad?imei=355021930123456&c=NTTdocomo HTTP/1.1" () in
  Alcotest.(check (list string)) "two kinds found"
    [ "carrier"; "imei" ]
    (List.map Sensitive.to_string (Payload_check.scan check hit));
  let miss = mk ~rline:"GET /benign?x=1 HTTP/1.1" () in
  Alcotest.(check (list string)) "nothing" [] (List.map Sensitive.to_string (Payload_check.scan check miss));
  Alcotest.(check bool) "is_sensitive" true (Payload_check.is_sensitive check hit);
  Alcotest.(check bool) "not sensitive" false (Payload_check.is_sensitive check miss)

let test_payload_scan_in_cookie_and_body () =
  let check = Payload_check.create needles in
  let in_cookie = mk ~cookie:"uid=9774d56d682e549c" () in
  let in_body = mk ~body:"imei=355021930123456" () in
  Alcotest.(check bool) "cookie scanned" true (Payload_check.is_sensitive check in_cookie);
  Alcotest.(check bool) "body scanned" true (Payload_check.is_sensitive check in_body)

let test_payload_split () =
  let check = Payload_check.create needles in
  let s = mk ~rline:"GET /x?imei=355021930123456 HTTP/1.1" () in
  let n = mk () in
  let suspicious, normal = Payload_check.split check [| s; n; s |] in
  Alcotest.(check int) "suspicious" 2 (Array.length suspicious);
  Alcotest.(check int) "normal" 1 (Array.length normal)

let test_payload_empty_needle () =
  Alcotest.check_raises "empty needle"
    (Invalid_argument "Payload_check.create: empty needle") (fun () ->
      ignore (Payload_check.create [ (Sensitive.Imei, "") ]))

let percent_encode s =
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%%%02X" (Char.code c))
       (List.init (String.length s) (String.get s)))

let test_payload_digest_case () =
  let digest = "9b74c9897bac770ffc029102a200c5de" in
  let check = Payload_check.create [ (Sensitive.Imei, digest) ] in
  let upper = mk ~rline:("GET /t?h=" ^ String.uppercase_ascii digest ^ " HTTP/1.1") () in
  Alcotest.(check bool) "digest needle matches either case" true
    (Payload_check.is_sensitive check upper);
  (match Payload_check.scan_verdicts check upper with
  | [ { Payload_check.via = Payload_check.Folded; _ } ] -> ()
  | _ -> Alcotest.fail "expected one Folded verdict");
  (* Raw identifiers stay byte-exact: a case difference is a different value. *)
  let check_raw = Payload_check.create [ (Sensitive.Carrier, "NTTdocomo") ] in
  let lower = mk ~rline:"GET /t?c=nttdocomo HTTP/1.1" () in
  Alcotest.(check bool) "raw identifier stays byte-exact" false
    (Payload_check.is_sensitive check_raw lower)

let test_payload_normalize_recovers () =
  let imei = "355021930123456" in
  let check = Payload_check.create [ (Sensitive.Imei, imei) ] in
  let p = mk ~rline:("GET /x?d=" ^ percent_encode imei ^ " HTTP/1.1") () in
  Alcotest.(check bool) "legacy scan misses the re-encoded leak" false
    (Payload_check.is_sensitive check p);
  let normalize = Leakdetect_normalize.Normalize.create () in
  Alcotest.(check bool) "lattice scan recovers it" true
    (Payload_check.is_sensitive ~normalize check p);
  match Payload_check.scan_verdicts ~normalize check p with
  | [ { Payload_check.via = Payload_check.View steps; _ } ] ->
    Alcotest.(check bool) "verdict names the decode chain" true
      (steps <> []
      && List.exists
           (fun st ->
             Leakdetect_text.Search.contains ~needle:"percent"
               (Leakdetect_normalize.Normalize.step_name st))
           steps)
  | _ -> Alcotest.fail "expected one View verdict"

let test_payload_verdict_needle_order () =
  (* Two IMEI needles: the literal marker sits in the raw request line, the
     identifier only inside a base64 run.  The kind is attributed to the
     earliest view whatever order the needles were given in. *)
  let imei = "355021930123456" in
  let p =
    mk
      ~rline:
        ("GET /t?m=IMEIMARK&d=" ^ Leakdetect_util.Base64.encode ("id=" ^ imei)
       ^ " HTTP/1.1")
      ()
  in
  let normalize = Leakdetect_normalize.Normalize.create () in
  List.iter
    (fun needles ->
      match Payload_check.scan_verdicts ~normalize (Payload_check.create needles) p with
      | [ { Payload_check.kind = Sensitive.Imei; via = Payload_check.Raw } ] -> ()
      | vs ->
        Alcotest.failf "expected one raw IMEI verdict, got [%s]"
          (String.concat "; "
             (List.map
                (fun v ->
                  match v.Payload_check.via with
                  | Payload_check.Raw -> "raw"
                  | Payload_check.Folded -> "folded"
                  | Payload_check.View steps ->
                    String.concat "+" (List.map Leakdetect_normalize.Normalize.step_name steps))
                vs)))
    [
      [ (Sensitive.Imei, imei); (Sensitive.Imei, "IMEIMARK") ];
      [ (Sensitive.Imei, "IMEIMARK"); (Sensitive.Imei, imei) ];
    ]

(* Needles drawn from a small pool — raw identifiers, a mixed-case carrier
   name and digest-shaped values — so kinds share needles and carry
   several; packet fields splice needles in raw, upper-cased,
   percent-encoded, base64'd or truncated between short fillers. *)
let needle_pool =
  [| "355021930123456"; "9774d56d682e549c"; "NTTdocomo"; "IMEIMARK";
     "9b74c9897bac770ffc029102a200c5de";
     "9B74C9897BAC770FFC029102A200C5DE00C0FFEE";
     "a94a8fe5ccb19ba61c4c0873d391e987982fbbd3" |]

let gen_payload_case =
  let open QCheck.Gen in
  let needle = oneofa needle_pool in
  let fragment =
    oneof
      [
        oneofl [ "a"; "&"; "="; "x"; "%"; "3"; "id="; "\n" ];
        needle;
        map String.uppercase_ascii needle;
        map String.lowercase_ascii needle;
        map percent_encode needle;
        map (fun n -> Leakdetect_util.Base64.encode ("id=" ^ n)) needle;
        map2 (fun n k -> String.sub n 0 (min k (String.length n))) needle (1 -- 20);
      ]
  in
  let field = map (String.concat "") (list_size (0 -- 4) fragment) in
  let needles = list_size (1 -- 5) (pair (oneofl Sensitive.all) needle) in
  quad needles field field field

let prop_payload_check_equals_oracle =
  QCheck.Test.make ~name:"payload check equals the per-needle oracle" ~count:300
    (QCheck.make gen_payload_case) (fun (needles, rline, cookie, body) ->
      let check = Payload_check.create needles in
      let p = mk ~rline ~cookie ~body () in
      List.for_all
        (fun normalize ->
          Payload_check.scan ?normalize check p
          = Payload_check_oracle.scan ?normalize needles p
          && Payload_check.scan_verdicts ?normalize check p
             = Payload_check_oracle.scan_verdicts ?normalize needles p
          && Payload_check.is_sensitive ?normalize check p
             = Payload_check_oracle.is_sensitive ?normalize needles p)
        [ None; Some (Leakdetect_normalize.Normalize.create ()) ])

(* --- Signature --- *)

let test_signature_make_validation () =
  Alcotest.check_raises "no tokens" (Invalid_argument "Signature.make: no tokens")
    (fun () ->
      ignore (Signature.make ~id:0 ~mode:Signature.Conjunction ~cluster_size:1 []));
  Alcotest.check_raises "empty token" (Invalid_argument "Signature.make: empty token")
    (fun () ->
      ignore (Signature.make ~id:0 ~mode:Signature.Conjunction ~cluster_size:1 [ "a"; "" ]))

let test_signature_matching () =
  let s =
    Signature.make ~id:0 ~mode:Signature.Conjunction ~cluster_size:2
      [ "imei="; "&size=320x50" ]
  in
  let c = Signature.compile s in
  Alcotest.(check bool) "match" true
    (Signature.matches_content c (Packet.content_string (mk ~rline:"GET /x?imei=1&size=320x50 HTTP/1.1" ())));
  Alcotest.(check bool) "order irrelevant for conjunction" true
    (Signature.matches_content c (Packet.content_string (mk ~rline:"GET /x?a=b&size=320x50&imei=1 HTTP/1.1" ())));
  Alcotest.(check bool) "miss" false (Signature.matches_content c (Packet.content_string (mk ())))

let test_signature_ordered () =
  let s = Signature.make ~id:0 ~mode:Signature.Ordered ~cluster_size:2 [ "aa"; "bb" ] in
  let c = Signature.compile s in
  Alcotest.(check bool) "in order" true (Signature.matches_content c "xxaaybbz");
  Alcotest.(check bool) "out of order" false (Signature.matches_content c "bb_aa")

let test_signature_ordered_overlap () =
  let s = Signature.make ~id:0 ~mode:Signature.Ordered ~cluster_size:1 [ "ab"; "bc" ] in
  let c = Signature.compile s in
  (* "abc": "ab" ends at 2, "bc" starts at 1 — overlapping, must not match. *)
  Alcotest.(check bool) "overlapping occurrences rejected" false
    (Signature.matches_content c "abc");
  Alcotest.(check bool) "disjoint occurrences accepted" true
    (Signature.matches_content c "ab_bc")

let test_boilerplate () =
  Alcotest.(check bool) "GET prefix" true (Signature.is_boilerplate_token "GET /");
  Alcotest.(check bool) "version" true (Signature.is_boilerplate_token " HTTP/1.1");
  Alcotest.(check bool) "identifier value is specific" false
    (Signature.is_boilerplate_token "355021930123456");
  Alcotest.(check bool) "param name with value is specific" false
    (Signature.is_boilerplate_token "imei=355021930123456")

let test_specificity () =
  let s =
    Signature.make ~id:0 ~mode:Signature.Conjunction ~cluster_size:2
      [ "GET /"; " HTTP/1.1"; "udid=9774d56d682e549c" ]
  in
  Alcotest.(check int) "only the identifier token counts" 21 (Signature.specificity s)

(* --- Siggen + Detector --- *)

(* Two clearly separated groups of packets, plus enough repetition for
   tokens to emerge. *)
let group_a i =
  mk ~ip:"203.104.5.5" ~host:"r.ad-maker.info"
    ~rline:
      (Printf.sprintf
         "GET /ad/sdk/img?aid=jp.co.a%d&imei=355021930123456&size=320x50 HTTP/1.1" i)
    ()

let group_b i =
  mk ~ip:"74.6.33.1" ~host:"data.flurry.com" ~rline:"POST /aap.do HTTP/1.1"
    ~body:(Printf.sprintf "ak=k%d&u=77c7d1a2b3c4d5e6f708192a3b4c5d6e7f809101&v=FL_2.2" i)
    ()

let test_siggen_two_groups () =
  let sample = Array.init 12 (fun i -> if i < 6 then group_a i else group_b i) in
  let dist = Distance.create () in
  let result = Siggen.generate dist sample in
  Alcotest.(check bool) "at least two clusters" true (List.length result.Siggen.clusters >= 2);
  Alcotest.(check bool) "signatures produced" true (result.Siggen.signatures <> []);
  (* Soundness: every signature matches all packets of its own cluster. *)
  List.iter2
    (fun signature members ->
      let c = Signature.compile signature in
      List.iter
        (fun i ->
          Alcotest.(check bool) "matches own cluster" true (Signature.matches_content c (Packet.content_string sample.(i))))
        members)
    result.Siggen.signatures
    (List.filteri (fun i _ -> i < List.length result.Siggen.signatures) result.Siggen.clusters)

let test_siggen_empty_sample () =
  let dist = Distance.create () in
  let r = Siggen.generate dist [||] in
  Alcotest.(check int) "no signatures" 0 (List.length r.Siggen.signatures);
  Alcotest.(check bool) "no dendrogram" true (r.Siggen.dendrogram = None)


let config_with_cut cut = Pipeline.Config.{ default with siggen = { default.siggen with cut } }
let test_siggen_cut_count () =
  let sample = Array.init 8 (fun i -> if i < 4 then group_a i else group_b i) in
  let dist = Distance.create () in
  let config = config_with_cut (Count 4) in
  let r = Siggen.generate ~config dist sample in
  Alcotest.(check bool) "at least 4 clusters" true (List.length r.Siggen.clusters >= 4)

let test_siggen_every_merge () =
  let sample = Array.init 10 (fun i -> if i < 5 then group_a i else group_b i) in
  let dist = Distance.create () in
  let auto = Siggen.generate dist sample in
  let every =
    Siggen.generate
      ~config:(config_with_cut Every_merge)
      dist sample
  in
  (* Every internal node is a candidate: n-1 clusters for n packets. *)
  Alcotest.(check int) "n-1 candidate clusters" 9 (List.length every.Siggen.clusters);
  Alcotest.(check bool) "at least as many signatures as the cut" true
    (List.length every.Siggen.signatures >= List.length auto.Siggen.signatures);
  (* Deduplication: no two signatures share a token list. *)
  let token_lists = List.map (fun s -> s.Signature.tokens) every.Siggen.signatures in
  Alcotest.(check int) "token lists unique" (List.length token_lists)
    (List.length (List.sort_uniq compare token_lists))

let test_siggen_rejects_degenerate () =
  (* Packets sharing only protocol boilerplate must be rejected. *)
  let p1 = mk ~host:"a.example.jp" ~rline:"GET /qqqq HTTP/1.1" () in
  let p2 = mk ~host:"a.example.jp" ~rline:"GET /zzzz HTTP/1.1" () in
  let dist = Distance.create () in
  let config = config_with_cut (Threshold 10.) in
  let r = Siggen.generate ~config dist [| p1; p2 |] in
  Alcotest.(check (list string)) "no signature survives" []
    (List.concat_map (fun s -> s.Signature.tokens) r.Siggen.signatures);
  Alcotest.(check int) "rejection counted" 1 r.Siggen.rejected

(* --- Siggen clustering backends --- *)

module Clustering = Leakdetect_core.Clustering
module Sketch = Leakdetect_sketch.Sketch

let sketch_config = Pipeline.Config.(default |> with_clustering (Clustering.Sketch Sketch.default))

let sig_essence (r : Siggen.result) =
  List.map (fun s -> (s.Signature.id, s.Signature.tokens)) r.Siggen.signatures

let test_siggen_sketch_single_bucket_identical () =
  (* Identical payloads always share every LSH band, so the sketch backend
     degenerates to one bucket and must reproduce the exact backend byte
     for byte. *)
  let sample = Array.make 8 (group_a 0) in
  let dist () = Distance.create () in
  let exact = Siggen.generate (dist ()) sample in
  let sketch = Siggen.generate ~config:sketch_config (dist ()) sample in
  Alcotest.(check bool) "same signatures" true (sig_essence exact = sig_essence sketch);
  Alcotest.(check bool) "same clusters" true (exact.Siggen.clusters = sketch.Siggen.clusters);
  Alcotest.(check bool) "same dendrogram" true
    (exact.Siggen.dendrogram = sketch.Siggen.dendrogram);
  match sketch.Siggen.stats with
  | Some s ->
    Alcotest.(check string) "backend recorded" "sketch" s.Clustering.backend;
    Alcotest.(check int) "one bucket" 1 s.Clustering.buckets
  | None -> Alcotest.fail "stats expected"

let test_siggen_sketch_two_groups_parity () =
  let sample = Array.init 12 (fun i -> if i < 6 then group_a i else group_b i) in
  let dist () = Distance.create () in
  let exact = Siggen.generate (dist ()) sample in
  let sketch = Siggen.generate ~config:sketch_config (dist ()) sample in
  (* The two near-duplicate families land in separate buckets, so the
     sketch run skips every cross-family NCD pair yet recovers the same
     signature set: recall parity with a fraction of the exact work. *)
  Alcotest.(check bool) "same signatures as exact" true
    (sig_essence exact = sig_essence sketch);
  match sketch.Siggen.stats with
  | Some s ->
    Alcotest.(check int) "two buckets" 2 s.Clustering.buckets;
    Alcotest.(check int) "total pairs is C(12,2)" 66 s.Clustering.total_pairs;
    Alcotest.(check int) "only within-bucket pairs computed" 30 s.Clustering.exact_pairs
  | None -> Alcotest.fail "stats expected"

let test_siggen_sketch_jobs_equivalence () =
  let sample = Array.init 16 (fun i -> if i mod 2 = 0 then group_a i else group_b i) in
  let sequential = Siggen.generate ~config:sketch_config (Distance.create ()) sample in
  let parallel =
    Fixtures.with_pool 4 (fun pool ->
        Siggen.generate
          ~config:(Pipeline.Config.with_pool pool sketch_config)
          (Distance.create ()) sample)
  in
  Alcotest.(check bool) "signatures identical at jobs=4" true
    (sig_essence sequential = sig_essence parallel);
  Alcotest.(check bool) "clusters identical at jobs=4" true
    (sequential.Siggen.clusters = parallel.Siggen.clusters);
  Alcotest.(check bool) "dendrogram identical at jobs=4" true
    (sequential.Siggen.dendrogram = parallel.Siggen.dendrogram)

(* --- Clustering (exact backend) --- *)

module Agglomerative = Leakdetect_cluster.Agglomerative

let mixed_sample n = Array.init n (fun i -> if i mod 3 = 0 then group_b i else group_a i)

(* The exact backend is the paper's procedure verbatim: the chosen linkage
   over the full pairwise distance matrix. *)
let test_clustering_exact_is_agglomerative linkage () =
  let sample = mixed_sample 10 in
  let r =
    Clustering.run ~backend:Clustering.Exact ~linkage (Distance.create ()) sample
  in
  let expected = Agglomerative.cluster ~linkage (Distance.matrix (Distance.create ()) sample) in
  Alcotest.(check bool) "same dendrogram" true (r.Clustering.dendrogram = expected)

let test_clustering_exact_stats () =
  let r =
    Clustering.run ~backend:Clustering.Exact ~linkage:Agglomerative.Group_average
      (Distance.create ()) (mixed_sample 9)
  in
  let s = r.Clustering.stats in
  Alcotest.(check string) "backend" "exact" s.Clustering.backend;
  Alcotest.(check int) "one bucket" 1 s.Clustering.buckets;
  Alcotest.(check int) "bucket holds the sample" 9 s.Clustering.largest_bucket;
  Alcotest.(check int) "every pair computed" 36 s.Clustering.exact_pairs;
  Alcotest.(check int) "C(9,2)" 36 s.Clustering.total_pairs

let test_clustering_empty_sample () =
  List.iter
    (fun backend ->
      let r =
        Clustering.run ~backend ~linkage:Agglomerative.Single (Distance.create ()) [||]
      in
      let name = Clustering.backend_name backend in
      Alcotest.(check bool) (name ^ ": no dendrogram") true (r.Clustering.dendrogram = None);
      Alcotest.(check string) (name ^ ": backend named") name r.Clustering.stats.Clustering.backend;
      Alcotest.(check int) (name ^ ": no pairs") 0 r.Clustering.stats.Clustering.total_pairs)
    [ Clustering.Exact; Clustering.Sketch Clustering.default_sketch ];
  Alcotest.(check (list string)) "flag vocabulary" [ "exact"; "sketch" ]
    (List.map Clustering.backend_name [ Clustering.Exact; Clustering.Sketch Sketch.default ])

(* The siggen config's linkage reaches the clustering: the result's
   dendrogram is that linkage's tree over the sample's matrix. *)
let test_siggen_linkage_threaded () =
  let sample = mixed_sample 10 in
  let matrix = Distance.matrix (Distance.create ()) sample in
  List.iter
    (fun linkage ->
      let config =
        Pipeline.Config.{ default with siggen = { default.siggen with linkage } }
      in
      let r = Siggen.generate ~config (Distance.create ()) sample in
      Alcotest.(check bool)
        (Agglomerative.linkage_name linkage)
        true
        (r.Siggen.dendrogram = Agglomerative.cluster ~linkage matrix))
    [ Agglomerative.Group_average; Agglomerative.Single; Agglomerative.Complete ];
  Alcotest.(check bool) "default is group average" true
    (Siggen.default.Siggen.linkage = Agglomerative.Group_average)

(* One lookup through a fresh scratch. *)
let first_match ?normalize d p = Detector.first_match_with ?normalize d (Detector.scratch d) p

let test_detector_basics () =
  let s1 = Signature.make ~id:0 ~mode:Signature.Conjunction ~cluster_size:1 [ "imei=355" ] in
  let s2 = Signature.make ~id:1 ~mode:Signature.Conjunction ~cluster_size:1 [ "aap.do" ] in
  let d = Detector.create [ s1; s2 ] in
  Alcotest.(check int) "count" 2 (Detector.signature_count d);
  let pa = group_a 0 and pb = group_b 0 and pn = mk () in
  let id p = Option.map (fun (s, _) -> s.Signature.id) (first_match d p) in
  Alcotest.(check (option int)) "first match id" (Some 0) (id pa);
  Alcotest.(check (option int)) "second signature" (Some 1) (id pb);
  Alcotest.(check (option int)) "miss" None (id pn);
  Alcotest.(check int) "count detected" 2 (Detector.count_detected d [| pa; pb; pn |]);
  Alcotest.(check (array bool)) "bitmap" [| true; true; false |]
    (Detector.detect_bitmap d [| pa; pb; pn |])

let test_detector_normalize_reencoded () =
  let token = "imei=355021930123456" in
  let d =
    Detector.create
      [ Signature.make ~id:0 ~mode:Signature.Conjunction ~cluster_size:1 [ token ] ]
  in
  let p = mk ~rline:("GET /x?d=" ^ percent_encode token ^ " HTTP/1.1") () in
  Alcotest.(check bool) "raw scan misses" true (first_match d p = None);
  let normalize = Leakdetect_normalize.Normalize.create () in
  (match first_match ~normalize d p with
  | Some (_, steps) ->
    Alcotest.(check bool) "attributed to a derived view" true (steps <> [])
  | None -> Alcotest.fail "expected a match");
  (* An unencoded hit is attributed to the raw content even with the
     lattice enabled. *)
  let clean = mk ~rline:("GET /x?" ^ token ^ " HTTP/1.1") () in
  match first_match ~normalize d clean with
  | Some (_, []) -> ()
  | Some (_, _) -> Alcotest.fail "raw hit attributed to a view"
  | None -> Alcotest.fail "expected a raw match"

(* The kernel's specification, written without the automaton: the first
   signature in list order whose compiled matcher accepts the flattened
   content, attributed [[]]; failing that, with a normalizer, the first
   derived view in lattice order that some signature matches, with that
   view's decode chain. *)
let detection_oracle ?normalize sigs (p : Packet.t) =
  let compiled = List.map (fun s -> (s, Signature.compile s)) sigs in
  let first text =
    List.find_map
      (fun (s, c) -> if Signature.matches_content c text then Some s else None)
      compiled
  in
  let raw = Packet.content_string p in
  match first raw with
  | Some s -> Some (s, [])
  | None -> (
    match normalize with
    | None -> None
    | Some nz ->
      List.find_map
        (fun (v : Leakdetect_normalize.Normalize.view) ->
          Option.map (fun s -> (s, v.Leakdetect_normalize.Normalize.steps))
            (first v.Leakdetect_normalize.Normalize.text))
        (Leakdetect_normalize.Normalize.lattice nz raw).Leakdetect_normalize.Normalize.derived)

(* Mixed signature sets whose signatures share lead tokens, and packets
   carrying tokens raw, in any order, percent-encoded or base64-encoded
   (several tokens per piece, so a base64 run is long enough to decode). *)
let detector_case_gen =
  let leads = [ "imei="; "uid="; "ad." ] and others = [ "355"; "abc"; "k9"; "x.y"; "zz=1" ] in
  QCheck.Gen.(
    let signature =
      triple (oneofl leads) (list_size (0 -- 2) (oneofl others)) bool
    in
    let piece =
      pair (list_size (1 -- 4) (oneofl (leads @ others)))
        (pair (oneofl [ `Raw; `Percent; `Base64 ]) (0 -- 2))
    in
    (* At least 32 packets, so a 4-domain pool really shards the scan. *)
    pair (list_size (1 -- 5) signature) (list_size (32 -- 40) (list_size (0 -- 5) piece)))

let detector_case_of (sig_specs, packet_specs) =
  let sigs =
    List.mapi
      (fun id (lead, rest, ordered) ->
        Signature.make ~id
          ~mode:(if ordered then Signature.Ordered else Signature.Conjunction)
          ~cluster_size:1 (lead :: rest))
      sig_specs
  in
  let render (tokens, (encoding, _)) =
    let s = String.concat "&" tokens in
    match encoding with
    | `Raw -> s
    | `Percent -> percent_encode s
    | `Base64 -> Leakdetect_util.Base64.encode s
  in
  let field pieces k =
    String.concat "/" (List.map render (List.filter (fun (_, (_, f)) -> f = k) pieces))
  in
  let packets =
    Array.of_list
      (List.map
         (fun pieces ->
           mk ~rline:("GET /p?" ^ field pieces 0 ^ " HTTP/1.1") ~cookie:(field pieces 1)
             ~body:(field pieces 2) ())
         packet_specs)
  in
  (sigs, packets)

let same_match a b =
  match (a, b) with
  | None, None -> true
  | Some (s, steps), Some (s', steps') -> s.Signature.id = s'.Signature.id && steps = steps'
  | _ -> false

let oracle_normalizer = Leakdetect_normalize.Normalize.create ()

let prop_first_match_with_equals_oracle =
  QCheck.Test.make ~name:"first_match_with (fresh and reused scratch) = oracle" ~count:150
    (QCheck.make detector_case_gen) (fun case ->
      let sigs, packets = detector_case_of case in
      let d = Detector.create sigs in
      let reused = Detector.scratch d in
      List.for_all
        (fun normalize ->
          Array.for_all
            (fun p ->
              let expect = detection_oracle ?normalize sigs p in
              same_match (first_match ?normalize d p) expect
              && same_match (Detector.first_match_with ?normalize d reused p) expect)
            packets)
        [ None; Some oracle_normalizer ])

(* Instrumentation only counts: a normalizer on an active registry derives
   the same views, so detection names the same signature through the same
   decode chain as on the noop registry. *)
let prop_first_match_with_obs_identity =
  QCheck.Test.make ~name:"first_match_with: active-obs normalizer = noop normalizer" ~count:100
    (QCheck.make detector_case_gen) (fun case ->
      let sigs, packets = detector_case_of case in
      let d = Detector.create sigs in
      let sc = Detector.scratch d in
      let active =
        Leakdetect_normalize.Normalize.create ~obs:(Leakdetect_obs.Obs.create ()) ()
      in
      Array.for_all
        (fun p ->
          same_match
            (Detector.first_match_with ~normalize:active d sc p)
            (Detector.first_match_with ~normalize:oracle_normalizer d sc p))
        packets)

let prop_batch_equals_oracle =
  QCheck.Test.make
    ~name:"first_matches, detect_bitmap (jobs 1 and 4), count_detected = oracle" ~count:60
    (QCheck.make detector_case_gen) (fun case ->
      let sigs, packets = detector_case_of case in
      let d = Detector.create sigs in
      Fixtures.with_pool 4 (fun pool4 ->
          List.for_all
            (fun normalize ->
              let expect = Array.map (detection_oracle ?normalize sigs) packets in
              let hits = Array.map Option.is_some expect in
              let n_hits = Array.fold_left (fun n h -> if h then n + 1 else n) 0 hits in
              List.for_all
                (fun pool ->
                  Array.for_all2 same_match
                    (Detector.first_matches ?pool ?normalize d packets)
                    expect
                  && Detector.detect_bitmap ?pool ?normalize d packets = hits
                  && Detector.count_detected ?pool ?normalize d packets = n_hits)
                [ None; pool4 ])
            [ None; Some oracle_normalizer ]))

(* An ordered signature whose tokens are in order only in a decoded view is
   found through that view; one whose tokens are out of order in every
   view is not, though each token occurs. *)
let test_detector_ordered_under_views () =
  let ordered =
    Signature.make ~id:0 ~mode:Signature.Ordered ~cluster_size:1 [ "uid=abc"; "imei=355" ]
  in
  let d = Detector.create [ ordered ] in
  let normalize = Leakdetect_normalize.Normalize.create () in
  (* Raw: "imei=355" first, then "uid=abc" encoded; decoded, the encoded
     "uid=abc" follows "imei=355" — still out of order. *)
  let out_of_order =
    mk ~rline:("GET /p?imei=355&" ^ percent_encode "uid=abc" ^ " HTTP/1.1") ()
  in
  Alcotest.(check bool) "out of order in every view" true
    (first_match ~normalize d out_of_order = None);
  let in_order =
    mk ~rline:("GET /p?" ^ percent_encode "uid=abc" ^ "&imei=355 HTTP/1.1") ()
  in
  Alcotest.(check bool) "raw content alone misses" true (first_match d in_order = None);
  match first_match ~normalize d in_order with
  | Some (s, steps) ->
    Alcotest.(check int) "ordered signature" 0 s.Signature.id;
    Alcotest.(check bool) "found through a view" true (steps <> [])
  | None -> Alcotest.fail "expected the decoded view to match in order"

(* No signatures: nothing matches and the batch entries still record. *)
let test_detector_empty_set () =
  let d = Detector.create [] in
  let packets = [| group_a 0; mk () |] in
  Alcotest.(check int) "no signatures" 0 (Detector.signature_count d);
  Alcotest.(check bool) "no match" true
    (first_match ~normalize:(Leakdetect_normalize.Normalize.create ()) d (group_a 0) = None);
  Alcotest.(check (array bool)) "empty bitmap" [| false; false |]
    (Detector.detect_bitmap d packets);
  let obs = Leakdetect_obs.Obs.create () in
  Alcotest.(check int) "none counted" 0 (Detector.count_detected ~obs d packets);
  Alcotest.(check int) "packets still counted" 2
    (Leakdetect_obs.Obs.Counter.value
       (Leakdetect_obs.Obs.counter obs "leakdetect_detection_packets_total"))

(* Each whole-trace scan, sequential or pooled, through any batch entry,
   records one [detector.scan] root span, adds its packets and hits to the
   two counters and makes one latency observation — and a second scan adds
   as much again. *)
let test_detection_obs_contract jobs () =
  let module Obs = Leakdetect_obs.Obs in
  let d =
    Detector.create
      [ Signature.make ~id:0 ~mode:Signature.Conjunction ~cluster_size:1 [ "imei=355" ] ]
  in
  let packets = Array.init 40 (fun i -> if i mod 4 = 0 then group_a i else mk ()) in
  let hits = Detector.count_detected d packets in
  Alcotest.(check int) "fixture hits" 10 hits;
  let observations obs =
    List.fold_left
      (fun acc (s : Obs.sample) ->
        match s.Obs.value with
        | Obs.Histogram_value { count; _ } when s.Obs.family = "leakdetect_detection_seconds"
          -> acc + count
        | _ -> acc)
      0 (Obs.samples obs)
  in
  Fixtures.with_pool jobs (fun pool ->
      List.iter
        (fun (entry, scan) ->
          let what k = Printf.sprintf "%s: %s" entry k in
          let obs = Obs.create () in
          for round = 1 to 2 do
            scan ?pool ~obs packets;
            Alcotest.(check (list string)) (what "root spans")
              (List.init round (fun _ -> "detector.scan"))
              (List.map Obs.Span.name (Obs.root_spans obs));
            Alcotest.(check int) (what "packets_total") (round * Array.length packets)
              (Obs.Counter.value (Obs.counter obs "leakdetect_detection_packets_total"));
            Alcotest.(check int) (what "hits_total") (round * hits)
              (Obs.Counter.value (Obs.counter obs "leakdetect_detection_hits_total"));
            Alcotest.(check int) (what "histogram observations") round (observations obs)
          done)
        [ ("first_matches", fun ?pool ~obs p -> ignore (Detector.first_matches ?pool ~obs d p));
          ("detect_bitmap", fun ?pool ~obs p -> ignore (Detector.detect_bitmap ?pool ~obs d p));
          ("count_detected", fun ?pool ~obs p -> ignore (Detector.count_detected ?pool ~obs d p)) ])

(* --- Metrics --- *)

let test_metrics_paper_formulas () =
  let m =
    Metrics.compute
      {
        Metrics.n = 100;
        sensitive_total = 1100;
        sensitive_detected = 850;
        normal_total = 5100;
        normal_detected = 50;
      }
  in
  Alcotest.(check (float 1e-9)) "TP = (850-100)/(1100-100)" 0.75 m.Metrics.true_positive;
  Alcotest.(check (float 1e-9)) "FN = 250/1000" 0.25 m.Metrics.false_negative;
  Alcotest.(check (float 1e-9)) "FP = 50/5000" 0.01 m.Metrics.false_positive

let test_metrics_tp_fn_complementary () =
  let m =
    Metrics.compute
      {
        Metrics.n = 10;
        sensitive_total = 200;
        sensitive_detected = 150;
        normal_total = 300;
        normal_detected = 3;
      }
  in
  Alcotest.(check (float 1e-9)) "TP + FN = 1" 1. (m.Metrics.true_positive +. m.Metrics.false_negative)

let test_metrics_validation () =
  let bad () =
    ignore
      (Metrics.compute
         {
           Metrics.n = 10;
           sensitive_total = 5;
           sensitive_detected = 2;
           normal_total = 10;
           normal_detected = 0;
         })
  in
  Alcotest.check_raises "n > total" (Invalid_argument "Metrics.compute: inconsistent counts") bad

let test_metrics_row () =
  let m =
    Metrics.compute
      { Metrics.n = 0; sensitive_total = 10; sensitive_detected = 10;
        normal_total = 10; normal_detected = 0 }
  in
  Alcotest.(check (list string)) "row" [ "0"; "100.0"; "0.0"; "0.00" ] (Metrics.to_row m)

(* --- Pipeline --- *)

let test_pipeline_end_to_end () =
  let suspicious = Array.init 40 (fun i -> if i mod 2 = 0 then group_a i else group_b i) in
  let normal = Array.init 60 (fun i -> mk ~rline:(Printf.sprintf "GET /benign/%d HTTP/1.1" i) ()) in
  let rng = Leakdetect_util.Prng.create 99 in
  let o = Pipeline.run ~rng ~n:20 ~suspicious ~normal () in
  Alcotest.(check int) "sample size" 20 o.Pipeline.sample_size;
  Alcotest.(check bool) "high TP on clean split" true
    (o.Pipeline.metrics.Metrics.true_positive > 0.9);
  Alcotest.(check bool) "low FP" true (o.Pipeline.metrics.Metrics.false_positive < 0.1)

let test_pipeline_caps_n () =
  let suspicious = Array.init 5 group_a in
  let normal = [| mk () |] in
  let rng = Leakdetect_util.Prng.create 3 in
  let o = Pipeline.run ~rng ~n:50 ~suspicious ~normal () in
  Alcotest.(check int) "capped at population" 5 o.Pipeline.sample_size

let prop_pipeline_counts_consistent =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"pipeline counts are internally consistent" ~count:10
       QCheck.(int_range 4 20)
       (fun n ->
         let suspicious =
           Array.init 30 (fun i -> if i mod 2 = 0 then group_a i else group_b i)
         in
         let normal =
           Array.init 30 (fun i -> mk ~rline:(Printf.sprintf "GET /c/%d HTTP/1.1" i) ())
         in
         let rng = Leakdetect_util.Prng.create n in
         let o = Pipeline.run ~rng ~n ~suspicious ~normal () in
         let c = o.Pipeline.metrics.Metrics.counts in
         c.Metrics.n = o.Pipeline.sample_size
         && c.Metrics.sensitive_detected <= c.Metrics.sensitive_total
         && c.Metrics.normal_detected <= c.Metrics.normal_total
         && List.length o.Pipeline.signatures <= o.Pipeline.n_clusters))

let test_pipeline_normalize_off_identity () =
  (* The [normalize] knob defaults to off, and off must be byte-identical
     to the legacy pipeline: same signatures, same metrics, whether the
     field is left at its default or set to [None] explicitly. *)
  let suspicious =
    Array.init 40 (fun i -> if i mod 2 = 0 then group_a i else group_b i)
  in
  let normal =
    Array.init 60 (fun i -> mk ~rline:(Printf.sprintf "GET /benign/%d HTTP/1.1" i) ())
  in
  let run config =
    Pipeline.run ~config ~rng:(Leakdetect_util.Prng.create 99) ~n:20 ~suspicious
      ~normal ()
  in
  let sig_strings o =
    List.map (Format.asprintf "%a" Signature.pp) o.Pipeline.signatures
  in
  let default = run Pipeline.default_config in
  let explicit = run (Pipeline.Config.with_normalize None Pipeline.default_config) in
  Alcotest.(check (list string)) "same signatures" (sig_strings default)
    (sig_strings explicit);
  Alcotest.(check bool) "same metrics" true
    (default.Pipeline.metrics = explicit.Pipeline.metrics);
  (* Turning the lattice on may only add detections: signature generation
     is untouched and recall is monotone. *)
  let normalize = Leakdetect_normalize.Normalize.create () in
  let on = run (Pipeline.Config.with_normalize (Some normalize) Pipeline.default_config) in
  Alcotest.(check (list string)) "lattice leaves signatures alone"
    (sig_strings default) (sig_strings on);
  Alcotest.(check bool) "recall monotone under the lattice" true
    (on.Pipeline.metrics.Metrics.true_positive
    >= default.Pipeline.metrics.Metrics.true_positive)

let suite =
  [
    ( "core.sensitive",
      [ Alcotest.test_case "names roundtrip" `Quick test_sensitive_names;
        Alcotest.test_case "table order" `Quick test_sensitive_order ] );
    ( "core.distance",
      [
        Alcotest.test_case "d_ip" `Quick test_d_ip;
        Alcotest.test_case "d_port" `Quick test_d_port;
        Alcotest.test_case "d_host" `Quick test_d_host;
        Alcotest.test_case "d_dst" `Quick test_d_dst_components;
        Alcotest.test_case "destination-only ablation" `Quick test_destination_only_ignores_content;
        Alcotest.test_case "content-only ablation" `Quick test_content_only_ignores_destination;
        Alcotest.test_case "module discrimination" `Quick test_d_pkt_discrimination;
        Alcotest.test_case "trigram metric option" `Quick test_trigram_metric_option;
        Alcotest.test_case "max_possible" `Quick test_max_possible;
        Alcotest.test_case "matrix builder" `Quick test_matrix_builder;
        qtest prop_d_pkt_symmetric;
      ] );
    ( "core.payload_check",
      [
        Alcotest.test_case "scan" `Quick test_payload_scan;
        Alcotest.test_case "cookie and body scanned" `Quick test_payload_scan_in_cookie_and_body;
        Alcotest.test_case "split" `Quick test_payload_split;
        Alcotest.test_case "empty needle rejected" `Quick test_payload_empty_needle;
        Alcotest.test_case "digest case folding" `Quick test_payload_digest_case;
        Alcotest.test_case "normalize recovers re-encoded leak" `Quick
          test_payload_normalize_recovers;
        Alcotest.test_case "verdicts independent of needle order" `Quick
          test_payload_verdict_needle_order;
        qtest prop_payload_check_equals_oracle;
      ] );
    ( "core.signature",
      [
        Alcotest.test_case "make validation" `Quick test_signature_make_validation;
        Alcotest.test_case "conjunction matching" `Quick test_signature_matching;
        Alcotest.test_case "ordered matching" `Quick test_signature_ordered;
        Alcotest.test_case "ordered overlap" `Quick test_signature_ordered_overlap;
        Alcotest.test_case "boilerplate" `Quick test_boilerplate;
        Alcotest.test_case "specificity" `Quick test_specificity;
      ] );
    ( "core.siggen",
      [
        Alcotest.test_case "two groups" `Quick test_siggen_two_groups;
        Alcotest.test_case "empty sample" `Quick test_siggen_empty_sample;
        Alcotest.test_case "cut by count" `Quick test_siggen_cut_count;
        Alcotest.test_case "every merge" `Quick test_siggen_every_merge;
        Alcotest.test_case "rejects degenerate" `Quick test_siggen_rejects_degenerate;
        Alcotest.test_case "sketch single bucket identical" `Quick
          test_siggen_sketch_single_bucket_identical;
        Alcotest.test_case "sketch two-group parity" `Quick
          test_siggen_sketch_two_groups_parity;
        Alcotest.test_case "sketch jobs equivalence" `Quick
          test_siggen_sketch_jobs_equivalence;
        Alcotest.test_case "linkage threaded" `Quick test_siggen_linkage_threaded;
      ] );
    ( "core.clustering",
      [
        Alcotest.test_case "exact = group-average agglomerative" `Quick
          (test_clustering_exact_is_agglomerative Agglomerative.Group_average);
        Alcotest.test_case "exact = single-link agglomerative" `Quick
          (test_clustering_exact_is_agglomerative Agglomerative.Single);
        Alcotest.test_case "exact = complete-link agglomerative" `Quick
          (test_clustering_exact_is_agglomerative Agglomerative.Complete);
        Alcotest.test_case "exact stats" `Quick test_clustering_exact_stats;
        Alcotest.test_case "empty sample" `Quick test_clustering_empty_sample;
      ] );
    ( "core.detector",
      [
        Alcotest.test_case "basics" `Quick test_detector_basics;
        Alcotest.test_case "normalized detection" `Quick
          test_detector_normalize_reencoded;
        Alcotest.test_case "ordered signature under views" `Quick
          test_detector_ordered_under_views;
        Alcotest.test_case "empty signature set" `Quick test_detector_empty_set;
        qtest prop_first_match_with_equals_oracle;
        qtest prop_first_match_with_obs_identity;
        qtest prop_batch_equals_oracle;
        Alcotest.test_case "obs contract: sequential" `Quick (test_detection_obs_contract 1);
        Alcotest.test_case "obs contract: pooled" `Quick (test_detection_obs_contract 4);
      ] );
    ( "core.metrics",
      [
        Alcotest.test_case "paper formulas" `Quick test_metrics_paper_formulas;
        Alcotest.test_case "TP+FN=1" `Quick test_metrics_tp_fn_complementary;
        Alcotest.test_case "validation" `Quick test_metrics_validation;
        Alcotest.test_case "table row" `Quick test_metrics_row;
      ] );
    ( "core.pipeline",
      [
        Alcotest.test_case "end to end" `Quick test_pipeline_end_to_end;
        Alcotest.test_case "caps N" `Quick test_pipeline_caps_n;
        Alcotest.test_case "normalize off is byte-identical" `Quick
          test_pipeline_normalize_off_identity;
        prop_pipeline_counts_consistent;
      ] );
  ]
