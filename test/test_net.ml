(* Tests for Leakdetect_net: IPv4, domains, URLs. *)

open Leakdetect_net

let qtest = QCheck_alcotest.to_alcotest

(* --- Ipv4 --- *)

let test_ipv4_parse_print () =
  Alcotest.(check (option string)) "roundtrip" (Some "10.20.30.40")
    (Option.map Ipv4.to_string (Ipv4.of_string "10.20.30.40"));
  Alcotest.(check bool) "bad octet" true (Ipv4.of_string "256.1.1.1" = None);
  Alcotest.(check bool) "too few parts" true (Ipv4.of_string "1.2.3" = None);
  Alcotest.(check bool) "garbage" true (Ipv4.of_string "a.b.c.d" = None);
  Alcotest.(check bool) "empty part" true (Ipv4.of_string "1..2.3" = None)

let prop_ipv4_roundtrip =
  QCheck.Test.make ~name:"ipv4 of_int/to_string/of_string roundtrip" ~count:500
    QCheck.(int_bound ((1 lsl 32) - 1))
    (fun v ->
      let ip = Ipv4.of_int v in
      Ipv4.of_string (Ipv4.to_string ip) = Some ip)

let test_ipv4_of_int_bounds () =
  Alcotest.check_raises "negative" (Invalid_argument "Ipv4.of_int: out of range")
    (fun () -> ignore (Ipv4.of_int (-1)))

let test_lmatch_known () =
  let ip = Ipv4.of_octets in
  Alcotest.(check int) "identical" 32 (Ipv4.lmatch (ip 1 2 3 4) (ip 1 2 3 4));
  Alcotest.(check int) "first bit differs" 0 (Ipv4.lmatch (ip 128 0 0 0) (ip 0 0 0 0));
  Alcotest.(check int) "same /24" 24 (Ipv4.lmatch (ip 10 0 0 1) (ip 10 0 0 129));
  Alcotest.(check int) "same /16" 16 (Ipv4.lmatch (ip 10 0 1 0) (ip 10 0 129 0))

let prop_lmatch_symmetry =
  let gen = QCheck.Gen.(pair (int_bound ((1 lsl 32) - 1)) (int_bound ((1 lsl 32) - 1))) in
  QCheck.Test.make ~name:"lmatch symmetric and bounded" ~count:500 (QCheck.make gen)
    (fun (a, b) ->
      let x = Ipv4.of_int a and y = Ipv4.of_int b in
      let m = Ipv4.lmatch x y in
      m = Ipv4.lmatch y x && m >= 0 && m <= 32 && (m = 32) = (x = y))

let test_ipv4_octets () =
  let ip = Ipv4.of_octets 192 168 1 20 in
  Alcotest.(check int) "big-endian packing" 0xC0A80114 (Ipv4.to_int ip);
  Alcotest.(check string) "dotted quad" "192.168.1.20" (Ipv4.to_string ip);
  Alcotest.(check bool) "same as of_string" true (Ipv4.of_string "192.168.1.20" = Some ip);
  Alcotest.check_raises "octet above 255" (Invalid_argument "Ipv4.of_octets: bad octet")
    (fun () -> ignore (Ipv4.of_octets 1 2 256 4));
  Alcotest.check_raises "negative octet" (Invalid_argument "Ipv4.of_octets: bad octet")
    (fun () -> ignore (Ipv4.of_octets (-1) 2 3 4))

let test_similarity () =
  let ip = Ipv4.of_octets in
  Alcotest.(check (float 1e-9)) "identical" 1. (Ipv4.similarity (ip 1 1 1 1) (ip 1 1 1 1));
  Alcotest.(check (float 1e-9)) "same /16" 0.5 (Ipv4.similarity (ip 10 1 0 0) (ip 10 1 255 0))

(* --- Domain --- *)

let test_registrable () =
  Alcotest.(check string) "co.jp" "example.co.jp" (Domain.registrable "ads.example.co.jp");
  Alcotest.(check string) "plain com" "admob.com" (Domain.registrable "r.admob.com");
  Alcotest.(check string) "deep com" "doubleclick.net"
    (Domain.registrable "googleads.g.doubleclick.net");
  Alcotest.(check string) "already registrable" "nend.net" (Domain.registrable "nend.net");
  Alcotest.(check string) "single label unchanged" "localhost" (Domain.registrable "localhost")

let test_domain_labels () =
  Alcotest.(check (list string)) "lowercased labels" [ "ads"; "example"; "co"; "jp" ]
    (Domain.labels "Ads.Example.CO.jp");
  Alcotest.(check (list string)) "single label" [ "localhost" ] (Domain.labels "localhost");
  Alcotest.(check (list string)) "empty labels kept" [ "a"; ""; "b" ] (Domain.labels "a..b")

let prop_registrable_suffix =
  let label = QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (1 -- 4)) in
  let suffix = QCheck.Gen.oneofl [ [ "com" ]; [ "jp" ]; [ "co"; "jp" ]; [ "ne"; "jp" ]; [ "net" ] ] in
  let gen =
    QCheck.Gen.(
      pair (list_size (1 -- 4) label) suffix >|= fun (front, tail) ->
      String.concat "." (front @ tail))
  in
  QCheck.Test.make ~name:"registrable is an idempotent label suffix" ~count:500
    (QCheck.make ~print:Fun.id gen) (fun host ->
      let r = Domain.registrable host in
      let hl = Domain.labels host and rl = Domain.labels r in
      let n = List.length hl - List.length rl in
      n >= 0
      && List.filteri (fun i _ -> i >= n) hl = rl
      && Domain.registrable r = r)

let test_domain_distance () =
  Alcotest.(check (float 1e-9)) "same host, case folded" 0.
    (Domain.normalized_edit_distance "AdMob.com" "admob.com");
  let near = Domain.normalized_edit_distance "r.admob.com" "mm.admob.com" in
  let far = Domain.normalized_edit_distance "r.admob.com" "sp.ad.adlantis.jp" in
  Alcotest.(check bool) "related hosts closer" true (near < far)

(* --- Url --- *)

let test_percent_encode () =
  Alcotest.(check string) "space" "a%20b" (Url.percent_encode "a b");
  Alcotest.(check string) "unreserved kept" "a-b_c.d~e" (Url.percent_encode "a-b_c.d~e");
  Alcotest.(check string) "reserved" "a%2Fb%3Dc%26d" (Url.percent_encode "a/b=c&d")

let test_percent_decode () =
  Alcotest.(check (option string)) "plus" (Some "a b") (Url.percent_decode Url.Form "a+b");
  Alcotest.(check (option string)) "truncated escape" None (Url.percent_decode Url.Form "abc%2");
  Alcotest.(check (option string)) "bad hex" None (Url.percent_decode Url.Form "%zz")

let prop_url_roundtrip =
  QCheck.Test.make ~name:"percent encode/decode roundtrip" ~count:500
    QCheck.(string_of_size Gen.(0 -- 60))
    (fun s -> Url.percent_decode Url.Form (Url.percent_encode s) = Some s)

let prop_query_roundtrip =
  let key_gen = QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; 'k' ]) (1 -- 5)) in
  let val_gen = QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (0 -- 12)) in
  QCheck.Test.make ~name:"query string roundtrip" ~count:300
    (QCheck.make QCheck.Gen.(list_size (0 -- 6) (pair key_gen val_gen)))
    (fun params ->
      match Url.decode_query (Url.encode_query params) with
      | Some decoded -> decoded = params
      | None -> params = [] && Url.encode_query params = "")

let test_query_edge_cases () =
  Alcotest.(check (option (list (pair string string)))) "empty" (Some [])
    (Url.decode_query "");
  Alcotest.(check (option (list (pair string string)))) "bare key"
    (Some [ ("k", "") ])
    (Url.decode_query "k");
  Alcotest.(check (option (list (pair string string)))) "two pairs"
    (Some [ ("a", "1"); ("b", "2") ])
    (Url.decode_query "a=1&b=2")

let test_split_path_query () =
  Alcotest.(check (pair string string)) "with query" ("/a/b", "x=1&y=2")
    (Url.split_path_query "/a/b?x=1&y=2");
  Alcotest.(check (pair string string)) "no query" ("/a", "") (Url.split_path_query "/a")

let suite =
  [
    ( "net.ipv4",
      [
        Alcotest.test_case "parse/print" `Quick test_ipv4_parse_print;
        Alcotest.test_case "of_int bounds" `Quick test_ipv4_of_int_bounds;
        Alcotest.test_case "lmatch known" `Quick test_lmatch_known;
        Alcotest.test_case "similarity" `Quick test_similarity;
        Alcotest.test_case "octets" `Quick test_ipv4_octets;
        qtest prop_ipv4_roundtrip;
        qtest prop_lmatch_symmetry;
      ] );
    ( "net.domain",
      [
        Alcotest.test_case "registrable" `Quick test_registrable;
        Alcotest.test_case "distance" `Quick test_domain_distance;
        Alcotest.test_case "labels" `Quick test_domain_labels;
        qtest prop_registrable_suffix;
      ] );
    ( "net.url",
      [
        Alcotest.test_case "percent encode" `Quick test_percent_encode;
        Alcotest.test_case "percent decode" `Quick test_percent_decode;
        Alcotest.test_case "query edge cases" `Quick test_query_edge_cases;
        Alcotest.test_case "split path/query" `Quick test_split_path_query;
        qtest prop_url_roundtrip;
        qtest prop_query_roundtrip;
      ] );
  ]
