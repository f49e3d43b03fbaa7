(* Tests for Leakdetect_obs: counter/gauge/histogram semantics, span
   nesting, the Prometheus text exposition (golden strings: escaping, label
   ordering, cumulative histogram buckets, family sorting), and a qcheck
   property asserting that running the pipeline with an active registry
   changes nothing about its outputs. *)

module Obs = Leakdetect_obs.Obs
module Pipeline = Leakdetect_core.Pipeline
module Signature_io = Leakdetect_core.Signature_io
module Metrics = Leakdetect_core.Metrics
module Packet = Leakdetect_http.Packet
module Ipv4 = Leakdetect_net.Ipv4
module Prng = Leakdetect_util.Prng

let qtest = QCheck_alcotest.to_alcotest

(* --- scalar metrics --- *)

let test_counter_semantics () =
  let obs = Obs.create () in
  let c = Obs.counter obs "requests_total" in
  Alcotest.(check int) "starts at 0" 0 (Obs.Counter.value c);
  Obs.Counter.inc c;
  Obs.Counter.add c 4;
  Alcotest.(check int) "inc + add" 5 (Obs.Counter.value c);
  let c' = Obs.counter obs "requests_total" in
  Obs.Counter.inc c';
  Alcotest.(check int) "re-interned handle shares the cell" 6 (Obs.Counter.value c);
  Alcotest.check_raises "negative add rejected"
    (Invalid_argument "Obs.Counter.add: negative increment") (fun () ->
      Obs.Counter.add c (-1))

let test_counter_labels_distinct_series () =
  let obs = Obs.create () in
  let a = Obs.counter obs ~labels:[ ("code", "200") ] "http_total" in
  let b = Obs.counter obs ~labels:[ ("code", "404") ] "http_total" in
  Obs.Counter.add a 3;
  Obs.Counter.inc b;
  Alcotest.(check int) "series a" 3 (Obs.Counter.value a);
  Alcotest.(check int) "series b" 1 (Obs.Counter.value b)

let test_gauge_semantics () =
  let obs = Obs.create () in
  let g = Obs.gauge obs "wal_bytes" in
  Obs.Gauge.set g 42;
  Obs.Gauge.set g 7;
  match Obs.samples obs with
  | [ { Obs.value = Obs.Gauge_value v; _ } ] -> Alcotest.(check int) "last set wins" 7 v
  | _ -> Alcotest.fail "expected exactly one gauge sample"

let test_kind_clash_rejected () =
  let obs = Obs.create () in
  ignore (Obs.counter obs "family");
  Alcotest.check_raises "same name, different kind"
    (Invalid_argument "Obs: family already registered as a counter, not a gauge")
    (fun () -> ignore (Obs.gauge obs "family"))

let test_histogram_buckets () =
  let obs = Obs.create () in
  let h = Obs.histogram obs ~buckets:[ 1.; 10.; 100. ] "sizes" in
  List.iter (Obs.Histogram.observe h) [ 0.5; 5.; 5.; 50.; 5000. ];
  match Obs.samples obs with
  | [ { Obs.value = Obs.Histogram_value { buckets; sum; count }; _ } ] ->
    Alcotest.(check (list (pair (float 0.) int)))
      "per-bucket (non-cumulative) counts"
      [ (1., 1); (10., 2); (100., 1) ]
      buckets;
    Alcotest.(check int) "sample count" 5 count;
    Alcotest.(check (float 1e-9)) "sample sum" 5060.5 sum
  | _ -> Alcotest.fail "expected exactly one histogram sample"

(* --- noop registry --- *)

let test_noop_inert () =
  Alcotest.(check bool) "is_noop" true (Obs.is_noop Obs.noop);
  Alcotest.(check bool) "created registry is active" false
    (Obs.is_noop (Obs.create ()));
  let c = Obs.counter Obs.noop "anything" in
  Obs.Counter.inc c;
  Obs.Counter.add c 10;
  Alcotest.(check int) "noop counter stays 0" 0 (Obs.Counter.value c);
  let g = Obs.gauge Obs.noop "g" in
  Obs.Gauge.set g 5;
  let h = Obs.histogram Obs.noop ~buckets:[ 1. ] "h" in
  Obs.Histogram.observe h 3.;
  Alcotest.(check int) "noop records no series" 0 (List.length (Obs.samples Obs.noop));
  let r = Obs.with_span Obs.noop "x" (fun () -> 41 + 1) in
  Alcotest.(check int) "with_span is just the body" 42 r;
  Alcotest.(check (list reject)) "no spans recorded" [] (Obs.root_spans Obs.noop);
  Alcotest.(check string) "empty exposition" "" (Obs.to_prometheus Obs.noop)

(* --- spans --- *)

let test_span_nesting () =
  let obs = Obs.create () in
  let r =
    Obs.with_span obs "parent" (fun () ->
        Obs.with_span obs "child1" (fun () -> ());
        Obs.with_span obs "child2" (fun () -> ());
        "result")
  in
  Alcotest.(check string) "body value returned" "result" r;
  Obs.with_span obs "second_root" (fun () -> ());
  match Obs.root_spans obs with
  | [ parent; second ] ->
    Alcotest.(check string) "first root" "parent" (Obs.Span.name parent);
    Alcotest.(check string) "roots oldest first" "second_root"
      (Obs.Span.name second);
    Alcotest.(check (list string))
      "children oldest first" [ "child1"; "child2" ]
      (List.map Obs.Span.name (Obs.Span.children parent));
    let child_total =
      List.fold_left
        (fun acc c -> acc + Obs.Span.duration_ns c)
        0 (Obs.Span.children parent)
    in
    Alcotest.(check bool) "parent covers its children" true
      (Obs.Span.duration_ns parent >= child_total);
    Alcotest.(check bool) "durations non-negative" true
      (Obs.Span.duration_ns parent >= 0)
  | spans -> Alcotest.fail (Printf.sprintf "expected 2 roots, got %d" (List.length spans))

let test_span_survives_raise () =
  let obs = Obs.create () in
  (try Obs.with_span obs "outer" (fun () -> failwith "boom") with Failure _ -> ());
  match Obs.root_spans obs with
  | [ s ] -> Alcotest.(check string) "span closed on raise" "outer" (Obs.Span.name s)
  | _ -> Alcotest.fail "raising body must still record its span"

let test_reset_spans () =
  let obs = Obs.create () in
  Obs.Counter.inc (Obs.counter obs "kept_total");
  Obs.with_span obs "gone" (fun () -> ());
  Obs.reset_spans obs;
  Alcotest.(check (list reject)) "spans dropped" [] (Obs.root_spans obs);
  Alcotest.(check int) "metrics untouched" 1
    (Obs.Counter.value (Obs.counter obs "kept_total"))

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec at i = i + n <= h && (String.sub haystack i n = needle || at (i + 1)) in
  n = 0 || at 0

let test_span_render () =
  let obs = Obs.create () in
  Obs.with_span obs "outer" (fun () -> Obs.with_span obs "inner" (fun () -> ()));
  let rendered = Obs.Span.render (List.hd (Obs.root_spans obs)) in
  Alcotest.(check bool) "mentions outer" true (contains ~needle:"outer" rendered);
  Alcotest.(check bool) "mentions inner" true (contains ~needle:"inner" rendered)

(* --- Prometheus exposition goldens --- *)

let test_exposition_golden_scalars () =
  let obs = Obs.create () in
  (* Registered out of sorted order on purpose: families must sort by name,
     series within a family by label set. *)
  Obs.Gauge.set (Obs.gauge obs ~help:"Current version." "zz_version") 3;
  Obs.Counter.add
    (Obs.counter obs ~help:"Requests served." ~labels:[ ("code", "404") ]
       "aa_requests_total")
    2;
  Obs.Counter.add (Obs.counter obs ~labels:[ ("code", "200") ] "aa_requests_total") 5;
  Alcotest.(check string) "sorted families and series"
    ("# HELP aa_requests_total Requests served.\n"
    ^ "# TYPE aa_requests_total counter\n"
    ^ "aa_requests_total{code=\"200\"} 5\n"
    ^ "aa_requests_total{code=\"404\"} 2\n"
    ^ "# HELP zz_version Current version.\n"
    ^ "# TYPE zz_version gauge\n"
    ^ "zz_version 3\n")
    (Obs.to_prometheus obs)

let test_exposition_label_escaping_and_order () =
  let obs = Obs.create () in
  Obs.Counter.inc
    (Obs.counter obs
       ~labels:[ ("zeta", "plain"); ("alpha", "a\\b\"c\nd") ]
       "esc_total");
  Alcotest.(check string) "labels sorted by name, values escaped"
    ("# TYPE esc_total counter\n"
    ^ "esc_total{alpha=\"a\\\\b\\\"c\\nd\",zeta=\"plain\"} 1\n")
    (Obs.to_prometheus obs)

let test_exposition_help_escaping () =
  let obs = Obs.create () in
  Obs.Counter.inc (Obs.counter obs ~help:"line one\nback\\slash" "help_total");
  Alcotest.(check string) "help newline and backslash escaped"
    ("# HELP help_total line one\\nback\\\\slash\n"
    ^ "# TYPE help_total counter\n" ^ "help_total 1\n")
    (Obs.to_prometheus obs)

let test_exposition_histogram_cumulative () =
  let obs = Obs.create () in
  let h =
    Obs.histogram obs ~help:"Payload sizes." ~labels:[ ("dir", "in") ]
      ~buckets:[ 0.5; 2.; 8. ] "bytes"
  in
  List.iter (Obs.Histogram.observe h) [ 0.1; 1.; 1.5; 4.; 100. ];
  Alcotest.(check string) "cumulative buckets, +Inf, _sum, _count"
    ("# HELP bytes Payload sizes.\n"
    ^ "# TYPE bytes histogram\n"
    ^ "bytes_bucket{dir=\"in\",le=\"0.5\"} 1\n"
    ^ "bytes_bucket{dir=\"in\",le=\"2\"} 3\n"
    ^ "bytes_bucket{dir=\"in\",le=\"8\"} 4\n"
    ^ "bytes_bucket{dir=\"in\",le=\"+Inf\"} 5\n"
    ^ "bytes_sum{dir=\"in\"} 106.6\n"
    ^ "bytes_count{dir=\"in\"} 5\n")
    (Obs.to_prometheus obs)

(* --- pipeline transparency: instrumentation must not change outputs --- *)

let mk ?(ip = "74.125.1.2") ?(port = 80) ?(host = "r.admob.com")
    ?(rline = "GET /ad HTTP/1.1") ?(cookie = "") ?(body = "") () =
  Packet.v ~ip:(Option.get (Ipv4.of_string ip)) ~port ~host ~request_line:rline
    ~cookie ~body

let packet_gen =
  QCheck.Gen.(
    let field = string_size ~gen:(char_range 'a' 'z') (0 -- 25) in
    map
      (fun (host, (rline, (cookie, body))) ->
        mk
          ~host:(if host = "" then "h.example.com" else host ^ ".example.com")
          ~rline:("GET /" ^ rline ^ "?imei=355021930123456 HTTP/1.1")
          ~cookie ~body ())
      (pair field (pair field (pair field field))))

let packets_gen n_min n_max =
  QCheck.Gen.(map Array.of_list (list_size (n_min -- n_max) packet_gen))

let outcome_fingerprint (o : Pipeline.outcome) =
  String.concat "|"
    (Printf.sprintf "n=%d clusters=%d rejected=%d tp=%.9f fn=%.9f fp=%.9f"
       o.Pipeline.sample_size o.Pipeline.n_clusters
       (o.Pipeline.n_clusters - List.length o.Pipeline.signatures)
       o.Pipeline.metrics.Metrics.true_positive
       o.Pipeline.metrics.Metrics.false_negative
       o.Pipeline.metrics.Metrics.false_positive
    :: List.map Signature_io.to_line o.Pipeline.signatures)

let prop_active_registry_is_transparent =
  QCheck.Test.make ~name:"Pipeline.run identical under noop vs active registry"
    ~count:10
    (QCheck.make (QCheck.Gen.pair (packets_gen 4 16) (packets_gen 2 10)))
    (fun (suspicious, normal) ->
      let run obs =
        Pipeline.run
          ~config:(Pipeline.Config.with_obs obs Pipeline.Config.default)
          ~rng:(Prng.create 7) ~n:8 ~suspicious ~normal ()
      in
      let noop = run Obs.noop in
      let active_obs = Obs.create () in
      let active = run active_obs in
      (* The active run must have observed something... *)
      Obs.Counter.value
        (Obs.counter active_obs "leakdetect_pipeline_runs_total")
      = 1
      (* ...without perturbing any output byte. *)
      && outcome_fingerprint noop = outcome_fingerprint active)

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "counter semantics" `Quick test_counter_semantics;
        Alcotest.test_case "counter label series" `Quick
          test_counter_labels_distinct_series;
        Alcotest.test_case "gauge semantics" `Quick test_gauge_semantics;
        Alcotest.test_case "kind clash rejected" `Quick test_kind_clash_rejected;
        Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
        Alcotest.test_case "noop registry inert" `Quick test_noop_inert;
        Alcotest.test_case "span nesting" `Quick test_span_nesting;
        Alcotest.test_case "span survives raise" `Quick test_span_survives_raise;
        Alcotest.test_case "reset spans" `Quick test_reset_spans;
        Alcotest.test_case "span render" `Quick test_span_render;
        Alcotest.test_case "exposition: scalars sorted" `Quick
          test_exposition_golden_scalars;
        Alcotest.test_case "exposition: label escaping + order" `Quick
          test_exposition_label_escaping_and_order;
        Alcotest.test_case "exposition: help escaping" `Quick
          test_exposition_help_escaping;
        Alcotest.test_case "exposition: histogram cumulative" `Quick
          test_exposition_histogram_cumulative;
        qtest prop_active_registry_is_transparent;
      ] );
  ]
