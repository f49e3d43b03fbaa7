(* End-to-end integration tests: workload -> payload check -> clustering ->
   signatures -> detection -> metrics, plus the monitor consuming the
   generated signatures — the whole Figure 3 loop on a scaled dataset. *)

module Workload = Leakdetect_android.Workload
module Pipeline = Leakdetect_core.Pipeline
module Metrics = Leakdetect_core.Metrics
module Siggen = Leakdetect_core.Siggen
module Signature = Leakdetect_core.Signature
module Distance = Leakdetect_core.Distance
module Payload_check = Leakdetect_core.Payload_check
module Prng = Leakdetect_util.Prng

let dataset = lazy (Workload.generate ~seed:77 ~scale:0.05 ())

let test_payload_check_agrees_with_labels () =
  (* The manual suspicious/normal separation of Sec. V-A is reproduced by
     the payload check itself. *)
  let ds = Lazy.force dataset in
  let packets = Workload.packets ds in
  let by_check, _ = Payload_check.split ds.Workload.payload_check packets in
  let by_label, _ = Workload.split ds in
  Alcotest.(check int) "same suspicious count" (Array.length by_label) (Array.length by_check)

(* The payload check decides which packets the rest of the pipeline sees,
   so its output is pinned byte for byte: the saved seed-42 trace (whose
   labels come from [Payload_check.scan]) and the [split] partitions of the
   seed-42 and seed-43 traces, each as a CRC32 taken from the per-needle
   KMP implementation the automaton replaced. *)
let crc_packets crc packets =
  Array.fold_left
    (fun c p ->
      Leakdetect_util.Crc32.update
        (Leakdetect_util.Crc32.update c (Leakdetect_http.Packet.content_string p))
        "\x00")
    crc packets

let split_crc ds =
  let suspicious, normal =
    Payload_check.split ds.Workload.payload_check (Workload.packets ds)
  in
  Leakdetect_util.Crc32.(
    value (crc_packets (update (crc_packets init suspicious) "|") normal))

let test_payload_check_pinned () =
  let ds = Workload.generate ~seed:42 ~scale:0.05 () in
  let path = Filename.temp_file "leakdetect_pin" ".tsv" in
  let saved =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Leakdetect_http.Trace.save path (Array.to_list ds.Workload.records);
        In_channel.with_open_bin path In_channel.input_all)
  in
  let hex = Leakdetect_util.Crc32.to_hex in
  Alcotest.(check string) "seed-42 trace bytes" "77a041bd"
    (hex (Leakdetect_util.Crc32.string saved));
  Alcotest.(check string) "seed-42 split" "c8954f3a" (hex (split_crc ds));
  Alcotest.(check string) "seed-43 split" "7cce35a2"
    (hex (split_crc (Workload.generate ~seed:43 ~scale:0.05 ())))

let test_figure4_shape () =
  (* The headline claim: TP rises with N while FN falls; FP stays small.
     Run the paper's sweep on a 5% workload. *)
  let ds = Lazy.force dataset in
  let suspicious, normal = Workload.split ds in
  let rng = Prng.create 4 in
  let outcomes = Pipeline.sweep ~rng ~ns:[ 50; 300 ] ~suspicious ~normal () in
  match outcomes with
  | [ small; large ] ->
    Alcotest.(check bool) "TP improves with N" true
      (large.Pipeline.metrics.Metrics.true_positive
      >= small.Pipeline.metrics.Metrics.true_positive -. 0.02);
    Alcotest.(check bool) "TP above 80% at N=300" true
      (large.Pipeline.metrics.Metrics.true_positive > 0.8);
    Alcotest.(check bool) "FP below 10%" true
      (large.Pipeline.metrics.Metrics.false_positive < 0.10)
  | _ -> Alcotest.fail "expected two outcomes"

let test_signatures_sound_on_sample () =
  (* Every generated signature matches every member of its cluster. *)
  let ds = Lazy.force dataset in
  let suspicious, _ = Workload.split ds in
  let rng = Prng.create 9 in
  let sample = Leakdetect_util.Sample.without_replacement rng 150 suspicious in
  let dist = Distance.create () in
  let result = Siggen.generate dist sample in
  let sigs = Array.of_list result.Siggen.signatures in
  (* Signatures are numbered in cut order over accepted clusters; walk the
     clusters and check the accepted ones in order. *)
  let sig_idx = ref 0 in
  List.iter
    (fun members ->
      if !sig_idx < Array.length sigs then begin
        let s = sigs.(!sig_idx) in
        if s.Signature.cluster_size = List.length members then begin
          let c = Signature.compile s in
          let all_match =
            List.for_all (fun i -> Signature.matches c sample.(i)) members
          in
          if all_match then incr sig_idx
        end
      end)
    result.Siggen.clusters;
  Alcotest.(check int) "every signature mapped to a matching cluster"
    (Array.length sigs) !sig_idx

let test_ablation_ordering () =
  (* Distance ablation (paper Sec. VI discussion): with the same sample,
     the combined distance must detect at least as much as the content-only
     variant (destination locality is what groups per-module forms), and no
     variant may blow up on false positives. *)
  let ds = Lazy.force dataset in
  let suspicious, normal = Workload.split ds in
  let run components seed =
    let config =
      { Pipeline.default_config with Pipeline.components }
    in
    Pipeline.run ~config ~rng:(Prng.create seed) ~n:200 ~suspicious ~normal ()
  in
  let combined = run Distance.all_components 1 in
  let content_only = run Distance.content_only 1 in
  let dest_only = run Distance.destination_only 1 in
  Alcotest.(check bool) "combined TP reasonable" true
    (combined.Pipeline.metrics.Metrics.true_positive > 0.7);
  Alcotest.(check bool) "combined at least as good as content-only" true
    (combined.Pipeline.metrics.Metrics.true_positive
    >= content_only.Pipeline.metrics.Metrics.true_positive -. 0.02);
  List.iter
    (fun o ->
      Alcotest.(check bool) "FP bounded" true
        (o.Pipeline.metrics.Metrics.false_positive < 0.10))
    [ combined; content_only; dest_only ]

let test_monitor_consumes_pipeline_signatures () =
  (* Close the loop of Figure 3: signatures from the server side drive the
     on-device monitor. *)
  let ds = Lazy.force dataset in
  let suspicious, normal = Workload.split ds in
  let rng = Prng.create 31 in
  let outcome = Pipeline.run ~rng ~n:200 ~suspicious ~normal () in
  let monitor = Leakdetect_monitor.Flow_control.create outcome.Pipeline.signatures in
  let prompted = ref 0 and allowed = ref 0 in
  Array.iteri
    (fun i p ->
      if i < 500 then
        match Leakdetect_monitor.Flow_control.process monitor ~app_id:0 p with
        | Leakdetect_monitor.Flow_control.Prompted _ -> incr prompted
        | Leakdetect_monitor.Flow_control.Allowed -> incr allowed
        | Leakdetect_monitor.Flow_control.Blocked -> ())
    suspicious;
  Alcotest.(check bool) "most sensitive packets prompt" true (!prompted > 350);
  let benign_prompted = ref 0 in
  Array.iteri
    (fun i p ->
      if i < 500 then
        match Leakdetect_monitor.Flow_control.process monitor ~app_id:0 p with
        | Leakdetect_monitor.Flow_control.Prompted _ -> incr benign_prompted
        | _ -> ())
    normal;
  Alcotest.(check bool) "few benign packets prompt" true (!benign_prompted < 50)

let test_trace_roundtrip_through_disk () =
  (* Save the generated trace, load it back, and verify the suspicious
     split is unchanged — the serialization carries everything the
     pipeline needs. *)
  let ds = Workload.generate ~seed:13 ~scale:0.01 () in
  let path = Filename.temp_file "leakdetect_integration" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Leakdetect_http.Trace.save path (Array.to_list ds.Workload.records);
      match Leakdetect_http.Trace.load path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok (records, _) ->
        Alcotest.(check int) "record count" (Array.length ds.Workload.records)
          (List.length records);
        let sensitive_loaded =
          List.length (List.filter (fun r -> r.Leakdetect_http.Trace.labels <> []) records)
        in
        Alcotest.(check int) "sensitive preserved" (Workload.sensitive_count ds)
          sensitive_loaded)

let suite =
  [
    ( "integration",
      [
        Alcotest.test_case "payload check = ground truth" `Quick
          test_payload_check_agrees_with_labels;
        Alcotest.test_case "payload check output pinned" `Quick test_payload_check_pinned;
        Alcotest.test_case "figure 4 shape" `Slow test_figure4_shape;
        Alcotest.test_case "signature soundness on sample" `Slow test_signatures_sound_on_sample;
        Alcotest.test_case "distance ablation ordering" `Slow test_ablation_ordering;
        Alcotest.test_case "monitor consumes signatures" `Slow
          test_monitor_consumes_pipeline_signatures;
        Alcotest.test_case "trace disk roundtrip" `Quick test_trace_roundtrip_through_disk;
      ] );
  ]
