(* Benchmark and reproduction harness.

   Regenerates every table and figure of the paper's evaluation from the
   synthetic workload, prints paper-reported values next to measured ones,
   runs the ablations called out in DESIGN.md, and finishes with bechamel
   micro-benchmarks of the pipeline's hot operations.

   Usage: main.exe [--quick]
     --quick   run on a 10% workload and shorter micro-benchmarks. *)

module Workload = Leakdetect_android.Workload
module Trace_stats = Leakdetect_android.Trace_stats
module Device = Leakdetect_android.Device
module Ad_module = Leakdetect_android.Ad_module
module Pipeline = Leakdetect_core.Pipeline
module Metrics = Leakdetect_core.Metrics
module Distance = Leakdetect_core.Distance
module Siggen = Leakdetect_core.Siggen
module Signature = Leakdetect_core.Signature
module Detector = Leakdetect_core.Detector
module Sensitive = Leakdetect_core.Sensitive
module Baseline = Leakdetect_baseline.Baseline
module Agglomerative = Leakdetect_cluster.Agglomerative
module Cluster = Leakdetect_cluster.Cluster
module Compressor = Leakdetect_compress.Compressor
module Table = Leakdetect_util.Table
module Prng = Leakdetect_util.Prng
module Sample = Leakdetect_util.Sample
module Packet = Leakdetect_http.Packet

let quick = Array.exists (fun a -> a = "--quick") Sys.argv
let scale = if quick then 0.1 else 1.0

let section title =
  Printf.printf "\n==================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "==================================================================\n%!"

let pct x = Printf.sprintf "%.1f" (100. *. x)
let pct2 x = Printf.sprintf "%.2f" (100. *. x)

(* Machine-readable results accumulated across sections, written to
   bench_results.json at the end. *)
let json_sections : (string * Leakdetect_util.Json.t) list ref = ref []
let record_json name value = json_sections := (name, value) :: !json_sections

let metrics_json (m : Metrics.t) =
  Leakdetect_util.Json.(
    Obj
      [ ("n", Int m.Metrics.counts.Metrics.n);
        ("tp", Float m.Metrics.true_positive);
        ("fn", Float m.Metrics.false_negative);
        ("fp", Float m.Metrics.false_positive);
        ("sensitive_total", Int m.Metrics.counts.Metrics.sensitive_total);
        ("sensitive_detected", Int m.Metrics.counts.Metrics.sensitive_detected);
        ("normal_total", Int m.Metrics.counts.Metrics.normal_total);
        ("normal_detected", Int m.Metrics.counts.Metrics.normal_detected) ])

(* ------------------------------------------------------------------ *)
(* Dataset                                                             *)
(* ------------------------------------------------------------------ *)

let dataset =
  Printf.printf "generating workload (seed 42, scale %.2f)...\n%!" scale;
  let t0 = Unix.gettimeofday () in
  let ds = Workload.generate ~seed:42 ~scale () in
  Printf.printf "generated %d packets from %d apps in %.1fs\n%!"
    (Array.length ds.Workload.records)
    (Array.length ds.Workload.apps)
    (Unix.gettimeofday () -. t0);
  ds

let suspicious, normal = Workload.split dataset

(* ------------------------------------------------------------------ *)
(* Table I                                                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "TABLE I — permission combinations (paper vs measured)";
  let paper =
    [ ("X - - -", 302); ("X - X -", 329); ("X X X -", 153); ("X X - -", 148);
      ("X X X X", 23) ]
  in
  let measured = Trace_stats.table1 dataset in
  let row_of (pattern, count) =
    let m =
      List.find_opt (fun r -> r.Trace_stats.pattern = pattern) measured
    in
    [ pattern; string_of_int count;
      (match m with Some r -> string_of_int r.Trace_stats.count | None -> "0") ]
  in
  let extra =
    List.filter
      (fun r -> not (List.mem_assoc r.Trace_stats.pattern paper))
      measured
    |> List.map (fun r ->
           [ r.Trace_stats.pattern ^ " (unlisted)"; "-"; string_of_int r.Trace_stats.count ])
  in
  print_string
    (Table.render
       ~title:"columns: INTERNET LOCATION PHONE_STATE CONTACTS"
       ~columns:[ ("combination", Table.Left); ("paper", Table.Right); ("measured", Table.Right) ]
       (List.map row_of paper @ extra));
  let d = Trace_stats.dangerous dataset in
  Printf.printf
    "\ndangerous combinations (INTERNET + sensitive permission): %d apps (%.0f%%)\n"
    d.Trace_stats.dangerous_apps
    (100. *. float_of_int d.Trace_stats.dangerous_apps /. 1188.);
  Printf.printf "apps observed leaking: %d, of which %d hold no dangerous combination\n"
    d.Trace_stats.leaking_apps d.Trace_stats.leaking_without_dangerous;
  Printf.printf
    "(Android ID and carrier need no permission — permission auditing alone misses these)\n"

(* ------------------------------------------------------------------ *)
(* Table II                                                            *)
(* ------------------------------------------------------------------ *)

let paper_table2 =
  [ ("doubleclick.net", 5786, 407); ("admob.com", 1299, 401);
    ("google-analytics.com", 3098, 353); ("gstatic.com", 1387, 333);
    ("google.com", 3604, 308); ("yahoo.co.jp", 1756, 287);
    ("ggpht.com", 940, 281); ("googlesyndication.com", 938, 244);
    ("ad-maker.info", 3391, 195); ("nend.net", 1368, 192);
    ("mydas.mobi", 332, 164); ("amoad.com", 583, 116); ("flurry.com", 335, 119);
    ("microad.jp", 868, 103); ("adwhirl.com", 548, 102);
    ("i-mobile.co.jp", 3729, 100); ("adlantis.jp", 237, 98);
    ("naver.jp", 3390, 82); ("adimg.net", 315, 72); ("mbga.jp", 1048, 63);
    ("rakuten.co.jp", 502, 56); ("fc2.com", 163, 52); ("medibaad.com", 1162, 49);
    ("mediba.jp", 427, 48); ("mobclix.com", 260, 48); ("gree.jp", 228, 45) ]

let table2 () =
  section "TABLE II — HTTP packet destinations (paper vs measured)";
  let measured = Trace_stats.table2 dataset in
  let lookup domain = List.find_opt (fun r -> r.Trace_stats.domain = domain) measured in
  let rows =
    List.map
      (fun (domain, pkts, apps) ->
        match lookup domain with
        | Some r ->
          [ domain; string_of_int pkts; string_of_int r.Trace_stats.packets;
            string_of_int apps; string_of_int r.Trace_stats.apps ]
        | None -> [ domain; string_of_int pkts; "0"; string_of_int apps; "0" ])
      paper_table2
  in
  print_string
    (Table.render
       ~columns:
         [ ("destination", Table.Left); ("pkts(paper)", Table.Right);
           ("pkts(ours)", Table.Right); ("apps(paper)", Table.Right);
           ("apps(ours)", Table.Right) ]
       rows);
  let total, sens, norm = Trace_stats.totals dataset in
  Printf.printf "\ntrace totals: paper 107859 packets (23309 sensitive / 84550 normal)\n";
  Printf.printf "              ours  %6d packets (%5d sensitive / %5d normal)\n" total sens norm

(* ------------------------------------------------------------------ *)
(* Table III                                                           *)
(* ------------------------------------------------------------------ *)

let paper_table3 =
  [ (Sensitive.Android_id, 7590, 21, 75); (Sensitive.Android_id_md5, 10058, 433, 21);
    (Sensitive.Android_id_sha1, 1247, 47, 12); (Sensitive.Carrier, 2095, 135, 44);
    (Sensitive.Imei, 3331, 171, 94); (Sensitive.Imei_md5, 692, 59, 15);
    (Sensitive.Imei_sha1, 1062, 51, 13); (Sensitive.Imsi, 655, 16, 22);
    (Sensitive.Sim_serial, 369, 13, 18) ]

let table3 () =
  section "TABLE III — sensitive information on the wire (paper vs measured)";
  let measured = Trace_stats.table3 dataset in
  let rows =
    List.map
      (fun (kind, p_pkts, p_apps, p_dsts) ->
        let m = List.find (fun r -> r.Trace_stats.kind = kind) measured in
        [ Sensitive.paper_name kind;
          string_of_int p_pkts; string_of_int m.Trace_stats.packets;
          string_of_int p_apps; string_of_int m.Trace_stats.apps;
          string_of_int p_dsts; string_of_int m.Trace_stats.destinations ])
      paper_table3
  in
  print_string
    (Table.render
       ~columns:
         [ ("kind", Table.Left); ("pkts(paper)", Table.Right); ("pkts(ours)", Table.Right);
           ("apps(paper)", Table.Right); ("apps(ours)", Table.Right);
           ("dsts(paper)", Table.Right); ("dsts(ours)", Table.Right) ]
       rows)

(* ------------------------------------------------------------------ *)
(* Figure 2                                                            *)
(* ------------------------------------------------------------------ *)

let figure2 () =
  section "FIGURE 2 — destinations per application (paper vs measured)";
  let f2 = Trace_stats.figure2 dataset in
  let frac n = Printf.sprintf "%.1f%%" (100. *. float_of_int n /. float_of_int f2.Trace_stats.total_apps) in
  print_string
    (Table.render
       ~columns:[ ("statistic", Table.Left); ("paper", Table.Right); ("measured", Table.Right) ]
       [
         [ "apps with traffic"; "1188"; string_of_int f2.Trace_stats.total_apps ];
         [ "exactly 1 destination"; "81 (7%)";
           Printf.sprintf "%d (%s)" f2.Trace_stats.one_destination (frac f2.Trace_stats.one_destination) ];
         [ "<= 10 destinations"; "885 (74%)";
           Printf.sprintf "%d (%s)" f2.Trace_stats.within_10 (frac f2.Trace_stats.within_10) ];
         [ "<= 16 destinations"; "1006 (90%)";
           Printf.sprintf "%d (%s)" f2.Trace_stats.within_16 (frac f2.Trace_stats.within_16) ];
         [ "mean destinations"; "7.9"; Printf.sprintf "%.1f" f2.Trace_stats.mean ];
         [ "max destinations"; "84"; string_of_int f2.Trace_stats.max ];
       ]);
  (* cumulative distribution series, decile-ish points *)
  let counts = Trace_stats.destinations_per_app dataset in
  let cdf = Leakdetect_util.Stats.cdf counts in
  Printf.printf "\ncumulative frequency series (destinations -> fraction of apps):\n";
  List.iter
    (fun (p : Leakdetect_util.Stats.cdf_point) ->
      if List.mem p.Leakdetect_util.Stats.value [ 1; 2; 4; 6; 8; 10; 13; 16; 20; 30; 50; 84 ]
      then
        Printf.printf "  <= %2d destinations: %5.1f%%\n" p.Leakdetect_util.Stats.value
          (100. *. p.Leakdetect_util.Stats.fraction))
    cdf

(* ------------------------------------------------------------------ *)
(* Figure 4 — the headline experiment                                  *)
(* ------------------------------------------------------------------ *)

let paper_figure4 =
  (* Values stated in Sec. V-B (intermediate points read off Figure 4). *)
  [ (100, (85.0, 15.0, 0.3)); (200, (90.0, 8.0, 0.9)); (300, (92.0, 7.0, 1.3));
    (400, (93.0, 6.0, 1.8)); (500, (94.0, 5.0, 2.3)) ]

let figure4 () =
  section "FIGURE 4 — detection rate vs sample size N (paper vs measured)";
  let seeds = if quick then [ 1001 ] else [ 1001; 1002; 1003 ] in
  Printf.printf
    "suspicious=%d normal=%d; signatures from a uniform sample of N suspicious packets\n"
    (Array.length suspicious) (Array.length normal);
  Printf.printf "measured values averaged over %d sample draws\n\n%!" (List.length seeds);
  let rows =
    List.map
      (fun (n, (p_tp, p_fn, p_fp)) ->
        let t0 = Unix.gettimeofday () in
        let outcomes =
          List.map
            (fun seed ->
              Pipeline.run ~rng:(Prng.create (seed + n)) ~n ~suspicious ~normal ())
            seeds
        in
        let avg f =
          List.fold_left (fun acc o -> acc +. f o.Pipeline.metrics) 0. outcomes
          /. float_of_int (List.length outcomes)
        in
        let tp = avg (fun m -> m.Metrics.true_positive) in
        let fn = avg (fun m -> m.Metrics.false_negative) in
        let fp = avg (fun m -> m.Metrics.false_positive) in
        let sigs =
          List.fold_left (fun acc o -> acc + List.length o.Pipeline.signatures) 0 outcomes
          / List.length outcomes
        in
        Printf.printf "  N=%-3d done in %.1fs (~%d signatures per draw)\n%!" n
          (Unix.gettimeofday () -. t0) sigs;
        record_json
          (Printf.sprintf "figure4_n%d" n)
          Leakdetect_util.Json.(
            Obj
              [ ("n", Int n); ("tp_mean", Float tp); ("fn_mean", Float fn);
                ("fp_mean", Float fp); ("signatures_mean", Int sigs);
                ("paper_tp", Float (p_tp /. 100.)); ("paper_fn", Float (p_fn /. 100.));
                ("paper_fp", Float (p_fp /. 100.));
                ("draws", List (List.map (fun o -> metrics_json o.Pipeline.metrics) outcomes)) ]);
        [ string_of_int n;
          Printf.sprintf "%.1f" p_tp; pct tp;
          Printf.sprintf "%.1f" p_fn; pct fn;
          Printf.sprintf "%.1f" p_fp; pct2 fp ])
      paper_figure4
  in
  print_newline ();
  print_string
    (Table.render
       ~columns:
         [ ("N", Table.Right); ("TP%(paper)", Table.Right); ("TP%(ours)", Table.Right);
           ("FN%(paper)", Table.Right); ("FN%(ours)", Table.Right);
           ("FP%(paper)", Table.Right); ("FP%(ours)", Table.Right) ]
       rows)

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_n = 300

let metrics_row name (m : Metrics.t) extra =
  [ name; pct m.Metrics.true_positive; pct m.Metrics.false_negative;
    pct2 m.Metrics.false_positive; extra ]

let ablation_distance () =
  section
    (Printf.sprintf "ABLATION — distance components at N=%d (Sec. VI discussion)" ablation_n);
  let run name ?(content_metric = Distance.Ncd) components =
    let config = { Pipeline.default_config with Pipeline.components; content_metric } in
    let o = Pipeline.run ~config ~rng:(Prng.create 7) ~n:ablation_n ~suspicious ~normal () in
    metrics_row name o.Pipeline.metrics (string_of_int (List.length o.Pipeline.signatures))
  in
  print_string
    (Table.render
       ~columns:
         [ ("distance", Table.Left); ("TP%", Table.Right); ("FN%", Table.Right);
           ("FP%", Table.Right); ("#sigs", Table.Right) ]
       [
         run "combined, NCD (paper)" Distance.all_components;
         run "combined, trigram cosine" ~content_metric:Distance.Trigram
           Distance.all_components;
         run "destination-only" Distance.destination_only;
         run "content-only, NCD" Distance.content_only;
         run "content-only, trigram" ~content_metric:Distance.Trigram
           Distance.content_only;
       ])

let ablation_linkage () =
  section (Printf.sprintf "ABLATION — linkage at N=%d" ablation_n);
  (* Cophenetic correlation on a common sub-sample quantifies how well each
     linkage's dendrogram preserves the packet distances. *)
  let coph_sample = Sample.without_replacement (Prng.create 7) 120 suspicious in
  let coph_matrix = Distance.matrix (Distance.create ()) coph_sample in
  let run name linkage =
    let config =
      { Pipeline.default_config with
        Pipeline.siggen =
          { Siggen.default with Siggen.algorithm = Cluster.Agglomerative linkage } }
    in
    let o = Pipeline.run ~config ~rng:(Prng.create 7) ~n:ablation_n ~suspicious ~normal () in
    let coph =
      match Leakdetect_cluster.Agglomerative.cluster ~linkage coph_matrix with
      | Some tree ->
        Printf.sprintf "%.3f" (Leakdetect_cluster.Cophenetic.correlation coph_matrix tree)
      | None -> "n/a"
    in
    metrics_row name o.Pipeline.metrics coph
  in
  print_string
    (Table.render
       ~columns:
         [ ("linkage", Table.Left); ("TP%", Table.Right); ("FN%", Table.Right);
           ("FP%", Table.Right); ("cophenetic r", Table.Right) ]
       [
         run "group-average (paper)" Agglomerative.Group_average;
         run "single" Agglomerative.Single;
         run "complete" Agglomerative.Complete;
       ])

let ablation_cut () =
  section (Printf.sprintf "ABLATION — dendrogram cut policy at N=%d" ablation_n);
  let run name cut =
    let config =
      { Pipeline.default_config with
        Pipeline.siggen = { Siggen.default with Siggen.cut } }
    in
    let o = Pipeline.run ~config ~rng:(Prng.create 7) ~n:ablation_n ~suspicious ~normal () in
    metrics_row name o.Pipeline.metrics (string_of_int (List.length o.Pipeline.signatures))
  in
  print_string
    (Table.render
       ~columns:
         [ ("cut policy", Table.Left); ("TP%", Table.Right); ("FN%", Table.Right);
           ("FP%", Table.Right); ("#sigs", Table.Right) ]
       [
         run "threshold (auto, default)" Siggen.Auto;
         run "every merge (literal Sec. IV-E)" Siggen.Every_merge;
         run "fixed count (N/8)" (Siggen.Count (ablation_n / 8));
         run "fixed count (N/4)" (Siggen.Count (ablation_n / 4));
       ])

let ablation_compressor () =
  section (Printf.sprintf "ABLATION — NCD compressor at N=%d" ablation_n);
  let run name compressor =
    let config = { Pipeline.default_config with Pipeline.compressor } in
    let o = Pipeline.run ~config ~rng:(Prng.create 7) ~n:ablation_n ~suspicious ~normal () in
    metrics_row name o.Pipeline.metrics (string_of_int (List.length o.Pipeline.signatures))
  in
  print_string
    (Table.render
       ~columns:
         [ ("compressor", Table.Left); ("TP%", Table.Right); ("FN%", Table.Right);
           ("FP%", Table.Right); ("#sigs", Table.Right) ]
       [
         run "lz77 (default)" Compressor.Lz77;
         run "lzw" Compressor.Lzw;
         run "huffman (order-0)" Compressor.Huffman;
       ])

let baselines () =
  section (Printf.sprintf "BASELINES at N=%d" ablation_n);
  let rng = Prng.create 7 in
  let sample = Sample.without_replacement rng ablation_n suspicious in
  let pipeline =
    Pipeline.run ~rng:(Prng.create 7) ~n:ablation_n ~suspicious ~normal ()
  in
  let exact = Baseline.exact ~sample ~suspicious ~normal in
  let substr = Baseline.sample_substring ~sample ~suspicious ~normal in
  let random =
    Baseline.random_cluster ~rng:(Prng.create 8) ~sample ~suspicious ~normal ()
  in
  let hamsa =
    Leakdetect_baseline.Hamsa.evaluate ~rng:(Prng.create 7) ~n:ablation_n ~suspicious
      ~normal ()
  in
  print_string
    (Table.render
       ~columns:
         [ ("method", Table.Left); ("TP%", Table.Right); ("FN%", Table.Right);
           ("FP%", Table.Right); ("", Table.Left) ]
       [
         metrics_row "paper pipeline" pipeline.Pipeline.metrics "";
         metrics_row "hamsa greedy (S&P'06)" hamsa "";
         metrics_row "random clusters" random "";
         metrics_row "sample substring" substr "";
         metrics_row "exact match" exact "";
       ])

let ablation_clusterer () =
  section (Printf.sprintf "ABLATION — clustering algorithm at N=%d" ablation_n);
  let rng = Prng.create 7 in
  let sample = Sample.without_replacement rng ablation_n suspicious in
  let n = Array.length sample in
  let dist = Distance.create () in
  let matrix = Distance.matrix dist sample in
  let clusters_of_indices idx_lists =
    List.map (fun members -> List.map (fun i -> sample.(i)) members) idx_lists
  in
  let eval name idx_lists =
    let m =
      Baseline.partition_metrics ~n ~clusters:(clusters_of_indices idx_lists)
        ~suspicious ~normal ()
    in
    metrics_row name m (string_of_int (List.length idx_lists))
  in
  let hierarchical =
    match Leakdetect_cluster.Agglomerative.cluster matrix with
    | Some tree ->
      Leakdetect_cluster.Dendrogram.cut
        ~threshold:(0.25 *. Distance.max_possible dist) tree
      |> List.map Leakdetect_cluster.Dendrogram.members
    | None -> []
  in
  let kmedoids =
    Leakdetect_cluster.Kmedoids.clusters
      (Leakdetect_cluster.Kmedoids.cluster ~rng ~k:(max 1 (n / 10)) matrix)
  in
  let dbscan_r =
    Leakdetect_cluster.Dbscan.cluster ~eps:(0.25 *. Distance.max_possible dist)
      ~min_points:2 matrix
  in
  let dbscan =
    dbscan_r.Leakdetect_cluster.Dbscan.clusters
    @ List.map (fun i -> [ i ]) dbscan_r.Leakdetect_cluster.Dbscan.noise
  in
  print_string
    (Table.render
       ~columns:
         [ ("clusterer", Table.Left); ("TP%", Table.Right); ("FN%", Table.Right);
           ("FP%", Table.Right); ("#clusters", Table.Right) ]
       [
         eval "hierarchical group-average (paper)" hierarchical;
         eval "k-medoids (k = N/10)" kmedoids;
         eval "dbscan (eps = cut threshold)" dbscan;
       ])

let cross_device () =
  section "EXTENSION — cross-device signature transfer";
  Printf.printf
    "signatures embed the training device's identifier values; applying them to a\n\
     different handset's trace isolates how much device-independent structure\n\
     (module skeletons) they carry.\n\n";
  let o = Pipeline.run ~rng:(Prng.create 7) ~n:ablation_n ~suspicious ~normal () in
  let detector = Detector.create o.Pipeline.signatures in
  let other = Workload.generate ~seed:4242 ~scale:(Float.min scale 0.25) () in
  let o_susp, o_norm = Workload.split other in
  let m =
    Metrics.compute
      {
        Metrics.n = 0;
        sensitive_total = Array.length o_susp;
        sensitive_detected = Detector.count_detected detector o_susp;
        normal_total = Array.length o_norm;
        normal_detected = Detector.count_detected detector o_norm;
      }
  in
  print_string
    (Table.render
       ~columns:
         [ ("evaluation trace", Table.Left); ("TP%", Table.Right); ("FN%", Table.Right);
           ("FP%", Table.Right) ]
       [
         (let m0 = o.Pipeline.metrics in
          [ "same device (training trace)"; pct m0.Metrics.true_positive;
            pct m0.Metrics.false_negative; pct2 m0.Metrics.false_positive ]);
         [ "different device (seed 4242)"; pct m.Metrics.true_positive;
           pct m.Metrics.false_negative; pct2 m.Metrics.false_positive ];
       ]);
  Printf.printf
    "\n(the drop is the value-token share; what survives is the module-skeleton share)\n"

(* ------------------------------------------------------------------ *)
(* Extensions (Sec. VI future work / discussion)                       *)
(* ------------------------------------------------------------------ *)

let extension_registry () =
  section
    (Printf.sprintf
       "EXTENSION — WHOIS-verified destination distance at N=%d (Sec. VI)" ablation_n);
  let registry = Ad_module.registry () in
  Printf.printf "registry: %d allocations across %d organizations\n\n"
    (Leakdetect_net.Registry.size registry)
    (List.length (Leakdetect_net.Registry.organizations registry));
  let run name registry =
    let config = { Pipeline.default_config with Pipeline.registry } in
    let o = Pipeline.run ~config ~rng:(Prng.create 7) ~n:ablation_n ~suspicious ~normal () in
    metrics_row name o.Pipeline.metrics (string_of_int (List.length o.Pipeline.signatures))
  in
  print_string
    (Table.render
       ~columns:
         [ ("d_ip source", Table.Left); ("TP%", Table.Right); ("FN%", Table.Right);
           ("FP%", Table.Right); ("#sigs", Table.Right) ]
       [
         run "prefix heuristic (paper)" None;
         run "registry-verified" (Some registry);
       ])

let extension_bayes () =
  section
    (Printf.sprintf
       "EXTENSION — probabilistic (Bayes) signatures at N=%d (paper future work)"
       ablation_n);
  let conj =
    Pipeline.run ~rng:(Prng.create 7) ~n:ablation_n ~suspicious ~normal ()
  in
  let bayes =
    Leakdetect_core.Bayes.run ~rng:(Prng.create 7) ~n:ablation_n ~suspicious ~normal ()
  in
  print_string
    (Table.render
       ~columns:
         [ ("signature type", Table.Left); ("TP%", Table.Right); ("FN%", Table.Right);
           ("FP%", Table.Right); ("detail", Table.Left) ]
       [
         metrics_row "conjunction (paper)" conj.Pipeline.metrics
           (Printf.sprintf "%d signatures" (List.length conj.Pipeline.signatures));
         metrics_row "bayes (weighted tokens)" bayes.Leakdetect_core.Bayes.metrics
           (Printf.sprintf "%d weighted tokens, threshold %.2f"
              bayes.Leakdetect_core.Bayes.n_tokens
              bayes.Leakdetect_core.Bayes.signature_.Leakdetect_core.Bayes.threshold);
       ])

let extension_bayes_roc () =
  section
    (Printf.sprintf
       "EXTENSION — Bayes threshold sweep at N=%d (training-FP target vs outcome)"
       ablation_n);
  let rows =
    List.map
      (fun target_fp ->
        let o =
          Leakdetect_core.Bayes.run ~target_fp ~rng:(Prng.create 7) ~n:ablation_n
            ~suspicious ~normal ()
        in
        let m = o.Leakdetect_core.Bayes.metrics in
        [ Printf.sprintf "%.3f" target_fp;
          pct m.Metrics.true_positive; pct2 m.Metrics.false_positive;
          Printf.sprintf "%.2f" o.Leakdetect_core.Bayes.signature_.Leakdetect_core.Bayes.threshold ])
      [ 0.0; 0.005; 0.02; 0.05 ]
  in
  print_string
    (Table.render
       ~columns:
         [ ("target FP", Table.Right); ("TP%", Table.Right); ("FP%", Table.Right);
           ("threshold", Table.Right) ]
       rows)

let extension_obfuscated () =
  section "EXTENSION — fixed-key obfuscated module (Sec. VI claim)";
  let module Obfuscation = Leakdetect_android.Obfuscation in
  let rng = Prng.create 55 in
  let device = dataset.Workload.device in
  let package i = Printf.sprintf "jp.co.crypt%02d" (i mod 30) in
  let scale_count base = max 20 (int_of_float (float_of_int base *. scale)) in
  let leaks =
    Array.init (scale_count 600) (fun i ->
        Obfuscation.leak_packet rng device ~package:(package i))
  in
  let beacons =
    Array.init (scale_count 300) (fun i ->
        Obfuscation.beacon_packet rng device ~package:(package i))
  in
  Printf.printf
    "a module XOR-encrypts its report (IMEI, SIM serial, Android ID) with one\n\
     key shared across applications; %d leak packets, %d heartbeats.\n\n"
    (Array.length leaks) (Array.length beacons);
  let pc_hits =
    Array.fold_left
      (fun acc p ->
        if Leakdetect_core.Payload_check.is_sensitive dataset.Workload.payload_check p
        then acc + 1
        else acc)
      0 leaks
  in
  Printf.printf "payload check (plaintext needles):   %d / %d leak packets flagged\n"
    pc_hits (Array.length leaks);
  (* The analyst adds the reverse-engineered leaks to the suspicious pool
     and regenerates signatures; the clustering finds the invariant
     ciphertext prefix. *)
  let suspicious' = Array.append suspicious leaks in
  let normal' = Array.append normal beacons in
  let o = Pipeline.run ~rng:(Prng.create 56) ~n:ablation_n ~suspicious:suspicious' ~normal:normal' () in
  let detector = Detector.create o.Pipeline.signatures in
  Printf.printf "signature pipeline (N=%d):           %d / %d leak packets flagged\n"
    ablation_n
    (Detector.count_detected detector leaks)
    (Array.length leaks);
  Printf.printf "false alarms on the module's heartbeats: %d / %d\n"
    (Detector.count_detected detector beacons)
    (Array.length beacons);
  Printf.printf "whole-trace metrics with the obfuscated module included: %s\n"
    (Format.asprintf "%a" Metrics.pp o.Pipeline.metrics)

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks (bechamel)                                         *)
(* ------------------------------------------------------------------ *)

let micro_benchmarks () =
  section "MICRO-BENCHMARKS (bechamel, monotonic clock)";
  let open Bechamel in
  let device = dataset.Workload.device in
  let p1 = suspicious.(0) and p2 = suspicious.(Array.length suspicious / 2) in
  let content = Packet.content_string p1 in
  (* Fixed-size fields cut from the trace's packet text: 160 B is about a
     p90 content field, 4 KiB a long body. *)
  let text =
    String.concat "\n" (Array.to_list (Array.map Packet.content_string suspicious))
  in
  let field_160 = String.sub text 0 160 and field_160' = String.sub text 160 160 in
  let field_4k = String.sub text 0 4096 in
  let dist = Distance.create () in
  let sample = Sample.without_replacement (Prng.create 3) 30 suspicious in
  let small_sample = Sample.without_replacement (Prng.create 3) 25 suspicious in
  let gen = Siggen.generate (Distance.create ()) small_sample in
  let detector = Detector.create gen.Siggen.signatures in
  let tests =
    [
      Test.make ~name:"md5_digest_64B" (Staged.stage (fun () -> Leakdetect_crypto.Md5.hex content));
      Test.make ~name:"sha1_digest_64B" (Staged.stage (fun () -> Leakdetect_crypto.Sha1.hex content));
      Test.make ~name:"lz77_compress_content"
        (Staged.stage (fun () -> Leakdetect_compress.Lz77.compressed_length_bits content));
      Test.make ~name:"lz77_length_empty"
        (Staged.stage (fun () -> Leakdetect_compress.Lz77.compressed_length_bits ""));
      Test.make ~name:"lz77_length_160B"
        (Staged.stage (fun () -> Leakdetect_compress.Lz77.compressed_length_bits field_160));
      Test.make ~name:"lz77_length_4KiB"
        (Staged.stage (fun () -> Leakdetect_compress.Lz77.compressed_length_bits field_4k));
      Test.make ~name:"lz77_concat_length_160B_pair"
        (Staged.stage (fun () ->
             Leakdetect_compress.Lz77.concat_length_bits field_160 field_160'));
      Test.make ~name:"ncd_pair"
        (Staged.stage (fun () ->
             let cache = Compressor.Cache.create Compressor.Lz77 in
             Compressor.Cache.ncd cache
               (Packet.content_string p1) (Packet.content_string p2)));
      Test.make ~name:"d_pkt_pair" (Staged.stage (fun () -> Distance.d_pkt dist p1 p2));
      Test.make ~name:"edit_distance_hosts"
        (Staged.stage (fun () ->
             Leakdetect_text.Edit_distance.distance "googleads.g.doubleclick.net"
               "pagead2.googlesyndication.com"));
      Test.make ~name:"detector_match_packet"
        (Staged.stage (fun () -> Detector.detects detector p1));
      Test.make ~name:"cluster_30pkts"
        (Staged.stage (fun () ->
             let d = Distance.create () in
             let m = Distance.matrix d sample in
             Agglomerative.cluster m));
      Test.make ~name:"device_create"
        (Staged.stage (fun () -> Device.create (Prng.create 1)));
      Test.make ~name:"render_ad_packet"
        (Staged.stage
           (let rng = Prng.create 2 in
            let ctx =
              {
                Ad_module.package = "jp.co.bench";
                permissions =
                  { Leakdetect_android.Permissions.internet = true; location = true;
                    phone_state = true; contacts = true };
                counter = ref 0;
              }
            in
            let family = List.hd Ad_module.catalog in
            fun () -> Ad_module.render rng device ctx family));
    ]
  in
  let quota = if quick then 0.25 else 1.0 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:(Some 1000) () in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let rows =
    List.map
      (fun test ->
        let results = Benchmark.all cfg [ instance ] test in
        let analyzed = Analyze.all ols instance results in
        Hashtbl.fold
          (fun name result acc ->
            let estimate =
              match Analyze.OLS.estimates result with
              | Some [ e ] -> Printf.sprintf "%.0f" e
              | _ -> "n/a"
            in
            [ name; estimate ] :: acc)
          analyzed [])
      tests
    |> List.concat
    |> List.sort compare
  in
  print_string
    (Table.render
       ~columns:[ ("operation", Table.Left); ("ns/run", Table.Right) ]
       rows)

let write_json () =
  let doc =
    Leakdetect_util.Json.(
      Obj
        (("scale", Float scale)
        :: ("total_packets", Int (Array.length dataset.Workload.records))
        :: ("suspicious", Int (Array.length suspicious))
        :: ("normal", Int (Array.length normal))
        :: List.rev !json_sections))
  in
  let oc = open_out "bench_results.json" in
  output_string oc (Leakdetect_util.Json.to_string_pretty doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote bench_results.json\n"

let () =
  table1 ();
  table2 ();
  table3 ();
  figure2 ();
  figure4 ();
  ablation_distance ();
  ablation_linkage ();
  ablation_cut ();
  ablation_compressor ();
  ablation_clusterer ();
  baselines ();
  cross_device ();
  extension_registry ();
  extension_bayes ();
  extension_bayes_roc ();
  extension_obfuscated ();
  micro_benchmarks ();
  write_json ();
  print_newline ()
