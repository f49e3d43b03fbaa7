(* leakdetect — command-line front end for the reproduction.

   Subcommands mirror the paper's workflow (Fig. 3):
     generate   build a synthetic application trace and write it to disk
     stats      corpus statistics (Tables I-III, Figure 2 summary)
     sign       cluster a sample of suspicious packets, emit signatures
     detect     apply a signature file to a trace
     evaluate   full pipeline with the paper's TP/FN/FP metrics
     monitor    replay a trace through the on-device flow-control app
     chaos      fault-injection soak over the ingest/distribute/enforce path,
                including crash/recover trials against the authority's journal
     store      recover and inspect a signature-authority journal directory
     trace      instrumented end-to-end run: span tree and a /metrics scrape
     evade      adversarial mutation replay: per-mutator recall with and
                without the canonicalization lattice
     soak       multi-client delta-sync soak against journaled, sharded
                signature origins, optionally behind a relay tier, with crash
                points and convergence invariants *)

open Cmdliner

module Workload = Leakdetect_android.Workload
module Trace_stats = Leakdetect_android.Trace_stats
module Trace = Leakdetect_http.Trace
module Packet = Leakdetect_http.Packet
module Pipeline = Leakdetect_core.Pipeline
module Metrics = Leakdetect_core.Metrics
module Siggen = Leakdetect_core.Siggen
module Signature = Leakdetect_core.Signature
module Signature_io = Leakdetect_core.Signature_io
module Distance = Leakdetect_core.Distance
module Detector = Leakdetect_core.Detector
module Sensitive = Leakdetect_core.Sensitive
module Compressor = Leakdetect_compress.Compressor
module Agglomerative = Leakdetect_cluster.Agglomerative
module Clustering = Leakdetect_core.Clustering
module Sketch = Leakdetect_sketch.Sketch
module Table = Leakdetect_util.Table
module Prng = Leakdetect_util.Prng
module Sample = Leakdetect_util.Sample
module Fault = Leakdetect_fault.Fault
module Flow_control = Leakdetect_monitor.Flow_control
module Pool = Leakdetect_parallel.Pool
module Payload_check = Leakdetect_core.Payload_check
module Request = Leakdetect_http.Request
module Response = Leakdetect_http.Response
module Obs = Leakdetect_obs.Obs
module Normalize = Leakdetect_normalize.Normalize
module Mutator = Leakdetect_adversary.Mutator
module Harness = Leakdetect_adversary.Harness
module Json = Leakdetect_util.Json
module Topology = Leakdetect_distrib.Topology
module Authority = Leakdetect_distrib.Authority
module Protocol = Leakdetect_distrib.Protocol
module Delta_client = Leakdetect_distrib.Delta_client
module Chaos = Leakdetect_distrib.Chaos
module State_dir = Leakdetect_store.State_dir

let exit_err fmt = Printf.ksprintf (fun m -> prerr_endline ("leakdetect: " ^ m); exit 1) fmt

(* --- logging --- *)

let setup_log style_renderer level =
  Fmt_tty.setup_std_outputs ?style_renderer ();
  Logs.set_level level;
  Logs.set_reporter (Logs_fmt.reporter ())

let setup_log_t =
  Term.(const setup_log $ Fmt_cli.style_renderer () $ Logs_cli.level ())

(* --- common options --- *)

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload generator seed.")

let scale_t =
  Arg.(value
      & opt float 1.0
      & info [ "scale" ] ~docv:"SCALE"
          ~doc:"Traffic scale factor; 1.0 reproduces the paper-sized trace.")

(* The soak-style commands (chaos, trace, evade) default to a small trace. *)
let scale_small_t =
  Arg.(value & opt float 0.05
      & info [ "scale" ] ~docv:"SCALE" ~doc:"Traffic scale factor (default 0.05).")

let trace_t =
  Arg.(value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Read packets from a trace file instead of generating a workload.")

let jobs_t =
  Arg.(value
      & opt int (Pool.recommended_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the parallel phases (distance matrix, whole-trace \
             detection).  1 forces the sequential path; results are identical for \
             every value.  Default: the machine's recommended domain count.")

let normalize_t =
  Arg.(value & flag
      & info [ "normalize" ]
          ~doc:
            "Match over the bounded canonicalization lattice (percent / base64 / \
             hex / case-fold / chunked decoded views) in addition to the raw \
             bytes, so re-encoded leaks are still caught.")

let normalize_of ?obs flag = if flag then Some (Normalize.create ?obs ()) else None

(* A file that cannot be read is not binary: the text loader then reports
   why it cannot be read. *)
let sniff_binary path =
  Trace.read_file ~open_:open_in_bin path (fun ic ->
      Ok (try really_input_string ic 4 = Leakdetect_http.Trace_binary.magic
          with End_of_file -> false))
  = Ok true

let load_records ~trace ~seed ~scale =
  match trace with
  | Some path -> (
    let result =
      if sniff_binary path then Leakdetect_http.Trace_binary.load path
      else Trace.load path
    in
    match result with
    | Ok (records, _) -> Array.of_list records
    | Error e -> exit_err "cannot load %s: %s" path e)
  | None -> (Workload.generate ~seed ~scale ()).Workload.records

let load_signatures path =
  match Signature_io.load ~config:{ Pipeline.default_config with on_error = `Skip } path with
  | Error e -> exit_err "cannot load %s: %s" path e
  | Ok (signatures, skips) ->
    if skips.Trace.skipped > 0 then begin
      Printf.eprintf "leakdetect: %s: skipped %d malformed signature line(s)\n" path
        skips.Trace.skipped;
      List.iter
        (fun (lineno, e) -> Printf.eprintf "  line %d: %s\n" lineno e)
        skips.Trace.sample
    end;
    signatures

(* [Some "-"] prints [contents] to stdout (ending it with a newline);
   [Some path] writes it to [path] as is and says so. *)
let write_out dest contents =
  match dest with
  | None -> ()
  | Some "-" ->
    print_string contents;
    if not (String.ends_with ~suffix:"\n" contents) then print_newline ()
  | Some path ->
    Out_channel.with_open_bin path (fun oc -> output_string oc contents);
    Printf.printf "wrote %s\n" path

(* --- generate --- *)

let generate_cmd =
  let run () seed scale output binary =
    let ds = Workload.generate ~seed ~scale () in
    let records = Array.to_list ds.Workload.records in
    if binary then Leakdetect_http.Trace_binary.save output records
    else Trace.save output records;
    let total, sens, norm = Trace_stats.totals ds in
    Printf.printf "wrote %s (%s): %d packets (%d sensitive, %d normal) from %d apps\n"
      output (if binary then "binary" else "text") total sens norm
      (Array.length ds.Workload.apps)
  in
  let output =
    Arg.(value & opt string "trace.tsv"
        & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output trace file.")
  in
  let binary =
    Arg.(value & flag
        & info [ "binary" ] ~doc:"Write the compact binary format instead of text.")
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic application trace.")
    Term.(const run $ setup_log_t $ seed_t $ scale_t $ output $ binary)

(* --- stats --- *)

let stats_cmd =
  let run seed scale trace top =
    match trace with
    | Some _ ->
      (* From a trace file: destination and label statistics only (the
         permission table needs the app population, which traces do not
         carry). *)
      let records = Array.to_list (load_records ~trace ~seed ~scale) in
      let total = List.length records in
      let sens = List.length (List.filter (fun r -> r.Trace.labels <> []) records) in
      Printf.printf "packets: %d total, %d sensitive, %d normal\n\n" total sens
        (total - sens);
      (* [(key, occurrences)] rows, in key order. *)
      let tally keys =
        let h = Hashtbl.create 64 in
        let bump k = Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k)) in
        List.iter bump keys;
        List.sort compare (Hashtbl.fold (fun k c acc -> (k, c) :: acc) h [])
      in
      let table title key rows =
        print_string
          (Table.render ~title
             ~columns:[ (key, Table.Left); ("packets", Table.Right) ]
             (List.map (fun (k, c) -> [ k; string_of_int c ]) rows))
      in
      let host r = Leakdetect_net.Domain.registrable r.Trace.packet.Packet.dst.Packet.host in
      table "Top destination domains" "destination"
        (tally (List.map host records)
        |> List.stable_sort (fun (_, a) (_, b) -> compare b a)
        |> List.filteri (fun i _ -> i < top));
      print_newline ();
      table "Sensitive labels" "label" (tally (List.concat_map (fun r -> r.Trace.labels) records))
    | None ->
      let ds = Workload.generate ~seed ~scale () in
      let total, sens, norm = Trace_stats.totals ds in
      Printf.printf "packets: %d total, %d sensitive, %d normal\n\n" total sens norm;
      print_string
        (Table.render ~title:"Permission combinations (Table I)"
           ~columns:[ ("I L P C", Table.Left); ("apps", Table.Right) ]
           (List.map
              (fun r -> [ r.Trace_stats.pattern; string_of_int r.Trace_stats.count ])
              (Trace_stats.table1 ds)));
      print_newline ();
      print_string
        (Table.render ~title:"Top destinations (Table II)"
           ~columns:
             [ ("destination", Table.Left); ("packets", Table.Right); ("apps", Table.Right) ]
           (List.map
              (fun (r : Trace_stats.dest_row) ->
                [ r.Trace_stats.domain; string_of_int r.Trace_stats.packets;
                  string_of_int r.Trace_stats.apps ])
              (Trace_stats.table2_top ~n:top ds)));
      print_newline ();
      print_string
        (Table.render ~title:"Sensitive information (Table III)"
           ~columns:
             [ ("kind", Table.Left); ("packets", Table.Right); ("apps", Table.Right);
               ("destinations", Table.Right) ]
           (List.map
              (fun (r : Trace_stats.kind_row) ->
                [ Sensitive.paper_name r.Trace_stats.kind;
                  string_of_int r.Trace_stats.packets;
                  string_of_int r.Trace_stats.apps;
                  string_of_int r.Trace_stats.destinations ])
              (Trace_stats.table3 ds)));
      let f2 = Trace_stats.figure2 ds in
      Printf.printf
        "\nFigure 2 summary: %d apps, mean %.1f destinations, max %d; %d with one destination\n"
        f2.Trace_stats.total_apps f2.Trace_stats.mean f2.Trace_stats.max
        f2.Trace_stats.one_destination
  in
  let top =
    Arg.(value & opt int 26 & info [ "top" ] ~docv:"N" ~doc:"Destinations to list.")
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Print corpus statistics (Tables I-III, Figure 2).")
    Term.(const run $ seed_t $ scale_t $ trace_t $ top)

(* --- shared pipeline configuration flags --- *)

(* An integer cmdliner refuses below [min] (exit 124). *)
let int_at_least ~what min =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "invalid %s %S, expected an integer >= %d" what s min))
  in
  Arg.conv (parse, Format.pp_print_int)

let sample_size = int_at_least ~what:"sample size" 0

let sample_t ?(names = [ "n"; "sample" ]) default =
  Arg.(value & opt sample_size default
      & info names ~docv:"N" ~doc:"Suspicious packets sampled for signature generation.")

let limit_t default =
  Arg.(value & opt int default
      & info [ "limit" ] ~docv:"N" ~doc:"Packets to replay through the monitor.")

let compressor_t =
  let parse s =
    match Compressor.of_name s with
    | Some c -> Ok c
    | None -> Error (`Msg (Printf.sprintf "unknown compressor %S (lz77|lzw|huffman)" s))
  in
  let print ppf c = Format.pp_print_string ppf (Compressor.name c) in
  Arg.(value
      & opt (conv (parse, print)) Compressor.Lz77
      & info [ "compressor" ] ~docv:"ALGO" ~doc:"NCD compressor: lz77, lzw or huffman.")

let linkage_t =
  let parse s =
    match Agglomerative.linkage_of_name s with
    | Some l -> Ok l
    | None -> Error (`Msg (Printf.sprintf "unknown linkage %S" s))
  in
  let print ppf l = Format.pp_print_string ppf (Agglomerative.linkage_name l) in
  Arg.(value
      & opt (conv (parse, print)) Agglomerative.Group_average
      & info [ "linkage" ] ~docv:"LINKAGE"
          ~doc:"Cluster linkage: group-average (paper), single or complete.")

let cut_t =
  Arg.(value
      & opt (some float) None
      & info [ "cut" ] ~docv:"DIST"
          ~doc:"Dendrogram cut threshold; default: a quarter of the maximum distance.")

let clustering_t =
  Arg.(value
      & opt (enum [ ("exact", `Exact); ("sketch", `Sketch) ]) `Exact
      & info [ "clustering" ] ~docv:"BACKEND"
          ~doc:"Clustering backend: $(b,exact) builds the full O(N^2) NCD matrix \
                (the paper's procedure); $(b,sketch) buckets near-duplicate payloads \
                with minhash/LSH first and runs exact NCD only inside buckets.")

let lsh_bands_t =
  Arg.(value
      & opt int Clustering.default_sketch.Sketch.bands
      & info [ "lsh-bands" ] ~docv:"B"
          ~doc:"LSH bands for --clustering sketch; more bands lower the similarity \
                needed to share a bucket.")

let lsh_rows_t =
  Arg.(value
      & opt int Clustering.default_sketch.Sketch.rows
      & info [ "lsh-rows" ] ~docv:"R"
          ~doc:"Minhash slots per LSH band; more rows raise the similarity needed \
                to share a bucket.")

let pp_bucket_stats { Clustering.backend; buckets; largest_bucket; exact_pairs; total_pairs } =
  if backend = "sketch" then
    Printf.printf
      "sketch prefilter: %d buckets (largest %d), %d of %d exact pairs (%.1f%% avoided)\n"
      buckets largest_bucket exact_pairs total_pairs
      (if total_pairs = 0 then 0.
       else 100. *. float_of_int (total_pairs - exact_pairs) /. float_of_int total_pairs)

let backend_t =
  let backend clustering bands rows =
    match clustering with
    | `Exact -> Clustering.Exact
    | `Sketch -> (
      let params = { Clustering.default_sketch with Sketch.bands; rows } in
      match Sketch.validate params with
      | Ok () -> Clustering.Sketch params
      | Error msg -> exit_err "invalid sketch parameters: %s" msg)
  in
  Term.(const backend $ clustering_t $ lsh_bands_t $ lsh_rows_t)

(* The pipeline configuration the --compressor, --linkage and --cut flags
   select, and with [~clustering:true] the --clustering and LSH flags. *)
let pipeline_config_t ~clustering =
  let config compressor linkage cut clustering =
    let cut = match cut with Some v -> Siggen.Threshold v | None -> Siggen.Auto in
    { Pipeline.default_config with
      Pipeline.compressor;
      siggen = { Siggen.default with Siggen.linkage; cut };
      clustering;
    }
  in
  Term.(const config $ compressor_t $ linkage_t $ cut_t
        $ if clustering then backend_t else const Clustering.Exact)

(* [n] suspicious packets sampled (seeded by [seed]) from the trace. *)
let sample_suspicious ~trace ~seed ~scale n =
  let suspicious, _ = Trace.split (load_records ~trace ~seed ~scale) in
  if Array.length suspicious = 0 then exit_err "trace has no sensitive packets";
  Sample.without_replacement (Prng.create seed) n suspicious

(* --- sign --- *)

let sign_cmd =
  let run seed scale trace n config jobs output =
    let sample = sample_suspicious ~trace ~seed ~scale n in
    let config = Pipeline.Config.with_jobs jobs config in
    let result = Siggen.generate ~config (Pipeline.Config.distance config) sample in
    Signature_io.save output result.Siggen.signatures;
    Printf.printf "sampled %d suspicious packets -> %d clusters, %d signatures (%d rejected)\n"
      (Array.length sample)
      (List.length result.Siggen.clusters)
      (List.length result.Siggen.signatures)
      result.Siggen.rejected;
    Option.iter pp_bucket_stats result.Siggen.stats;
    Printf.printf "wrote %s\n" output
  in
  let output =
    Arg.(value & opt string "signatures.tsv"
        & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output signature file.")
  in
  Cmd.v
    (Cmd.info "sign" ~doc:"Cluster suspicious packets and generate signatures.")
    Term.(const run $ seed_t $ scale_t $ trace_t $ sample_t 500
          $ pipeline_config_t ~clustering:true $ jobs_t $ output)

(* --- cluster --- *)

let cluster_cmd =
  let run () seed scale trace n config jobs newick =
    let sample = sample_suspicious ~trace ~seed ~scale n in
    let backend = config.Pipeline.clustering in
    let linkage = config.Pipeline.siggen.Siggen.linkage in
    let dist = Pipeline.Config.distance config in
    let pool = Pool.warm jobs in
    (* The exact path keeps its own matrix so the cophenetic correlation can
       be reported; sketch mode never materializes the full matrix, so the
       bucket statistics stand in for it. *)
    let tree, cophenetic, stats =
      match backend with
      | Clustering.Exact ->
        let matrix = Distance.matrix ?pool dist sample in
        let tree = Agglomerative.cluster ~linkage matrix in
        (tree, Option.map (Leakdetect_cluster.Cophenetic.correlation matrix) tree, None)
      | Clustering.Sketch _ ->
        let r = Clustering.run ?pool ~backend ~linkage dist sample in
        (r.Clustering.dendrogram, None, Some r.Clustering.stats)
    in
    let tree = match tree with Some tree -> tree | None -> exit_err "empty sample" in
    begin
      let threshold =
        match config.Pipeline.siggen.Siggen.cut with
        | Siggen.Threshold v -> v
        | _ -> 0.25 *. Distance.max_possible dist
      in
      let forest = Leakdetect_cluster.Dendrogram.cut ~threshold tree in
      Printf.printf "clustered %d packets at threshold %.2f -> %d clusters\n\n"
        (Array.length sample) threshold (List.length forest);
      List.iteri
        (fun i subtree ->
          let members = Leakdetect_cluster.Dendrogram.members subtree in
          let hosts =
            List.sort_uniq compare
              (List.map (fun j -> sample.(j).Packet.dst.Packet.host) members)
          in
          Printf.printf "cluster %2d: %3d packets, height %.3f, hosts: %s\n" i
            (List.length members)
            (Leakdetect_cluster.Dendrogram.height subtree)
            (String.concat ", " hosts))
        forest;
      Option.iter
        (fun c -> Printf.printf "\ncophenetic correlation: %.3f\n" c)
        cophenetic;
      Option.iter pp_bucket_stats stats;
      match newick with
      | None -> ()
      | Some path ->
        let label i =
          Printf.sprintf "p%d_%s" i
            (String.map (fun c -> if c = '.' then '_' else c) sample.(i).Packet.dst.Packet.host)
        in
        write_out (Some path) (Leakdetect_cluster.Dendrogram.to_newick ~label tree ^ "\n")
    end
  in
  let n_small =
    Arg.(value & opt sample_size 60
        & info [ "n"; "sample" ] ~docv:"N" ~doc:"Packets to sample and cluster.")
  in
  let newick =
    Arg.(value
        & opt (some string) None
        & info [ "newick" ] ~docv:"FILE" ~doc:"Write the dendrogram in Newick format.")
  in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:"Cluster a sample of suspicious packets and report the dendrogram.")
    Term.(const run $ setup_log_t $ seed_t $ scale_t $ trace_t $ n_small
          $ pipeline_config_t ~clustering:true $ jobs_t $ newick)

(* --- detect --- *)

let sig_file_t =
  Arg.(required
      & opt (some string) None
      & info [ "signatures" ] ~docv:"FILE" ~doc:"Signature file from `sign`.")

let detect_cmd =
  let run seed scale trace sig_file jobs verbose normalize =
    let records = load_records ~trace ~seed ~scale in
    let signatures = load_signatures sig_file in
    let detector = Detector.create signatures in
    let normalize = normalize_of normalize in
    let packets = Array.map (fun r -> r.Trace.packet) records in
    let t0 = Unix.gettimeofday () in
    let matches = Detector.first_matches ?pool:(Pool.warm jobs) ?normalize detector packets in
    let elapsed = Unix.gettimeofday () -. t0 in
    let detected =
      Array.fold_left (fun acc m -> if Option.is_some m then acc + 1 else acc) 0 matches
    in
    if verbose then
      Array.iteri
        (fun i r ->
          match matches.(i) with
          | Some (s, steps) ->
            Printf.printf "app %d -> %s matched signature #%d%s\n" r.Trace.app_id
              r.Trace.packet.Packet.dst.Packet.host s.Signature.id
              (match steps with
              | [] -> ""
              | steps -> " via " ^ String.concat "+" (List.map Normalize.step_name steps))
          | None -> ())
        records;
    Printf.printf "%d of %d packets matched %d signatures\n" detected
      (Array.length records) (List.length signatures);
    (* The bytes scanned: each packet's flattened content. *)
    let bytes =
      Array.fold_left (fun acc p -> acc + String.length (Packet.content_string p)) 0 packets
    in
    if elapsed > 0. then
      Printf.printf "scanned %d bytes in %.3fs (%.0f packets/s, %.1f MiB/s)\n" bytes
        elapsed
        (float_of_int (Array.length packets) /. elapsed)
        (float_of_int bytes /. elapsed /. 1048576.)
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print each matching packet.")
  in
  Cmd.v
    (Cmd.info "detect" ~doc:"Apply a signature file to a trace.")
    Term.(const run $ seed_t $ scale_t $ trace_t $ sig_file_t $ jobs_t $ verbose
          $ normalize_t)

(* --- evaluate --- *)

let evaluate_cmd =
  let run () seed scale trace ns config jobs bayes normalize =
    let records = load_records ~trace ~seed ~scale in
    let suspicious, normal = Trace.split records in
    Printf.printf "dataset: %d suspicious, %d normal%s\n\n" (Array.length suspicious)
      (Array.length normal)
      (if bayes then " (probabilistic signatures)" else "");
    let config =
      Pipeline.Config.(config |> with_normalize (normalize_of normalize) |> with_jobs jobs)
    in
    let rows =
      List.map
        (fun n ->
          let rng = Prng.create (seed + n) in
          if bayes then
            let o = Leakdetect_core.Bayes.run ~config ~rng ~n ~suspicious ~normal () in
            Metrics.to_row o.Leakdetect_core.Bayes.metrics
            @ [ string_of_int o.Leakdetect_core.Bayes.n_tokens ^ " tokens" ]
          else
            let o = Pipeline.run ~config ~rng ~n ~suspicious ~normal () in
            Metrics.to_row o.Pipeline.metrics
            @ [ string_of_int (List.length o.Pipeline.signatures) ^ " sigs" ])
        ns
    in
    print_string
      (Table.render
         ~columns:
           [ ("N", Table.Right); ("TP%", Table.Right); ("FN%", Table.Right);
             ("FP%", Table.Right); ("detail", Table.Right) ]
         rows)
  in
  let ns =
    Arg.(value
        & opt (list sample_size) [ 100; 200; 300; 400; 500 ]
        & info [ "ns" ] ~docv:"N1,N2,..." ~doc:"Sample sizes to evaluate (Figure 4 sweep).")
  in
  let bayes =
    Arg.(value & flag
        & info [ "bayes" ]
            ~doc:"Use probabilistic (Bayes) signatures instead of conjunctions.")
  in
  Cmd.v
    (Cmd.info "evaluate"
       ~doc:"Run the full pipeline and report the paper's TP/FN/FP metrics.")
    Term.(const run $ setup_log_t $ seed_t $ scale_t $ trace_t $ ns
          $ pipeline_config_t ~clustering:true $ jobs_t $ bayes $ normalize_t)

(* --- monitor --- *)

let monitor_cmd =
  let run seed scale trace sig_file limit normalize =
    let records = load_records ~trace ~seed ~scale in
    let signatures = load_signatures sig_file in
    let monitor = Flow_control.create ?normalize:(normalize_of normalize) signatures in
    let n = Flow_control.replay monitor ~limit records in
    let allowed, blocked, prompted = Flow_control.stats monitor in
    Printf.printf "processed %d packets: %d allowed, %d blocked, %d prompted\n\n" n allowed
      blocked prompted;
    print_string (Leakdetect_monitor.Report.render ~limit:15 monitor)
  in
  Cmd.v
    (Cmd.info "monitor"
       ~doc:"Replay a trace through the on-device information-flow-control application.")
    Term.(const run $ seed_t $ scale_t $ trace_t $ sig_file_t $ limit_t 10_000
          $ normalize_t)

(* --- terms shared by chaos, store, trace, evade and soak --- *)

(* [count] is the option's converter: trace allows 0 rounds, chaos does not. *)
let syncs_t count default =
  Arg.(value & opt count default
      & info [ "syncs" ] ~docv:"N"
          ~doc:"Publish/sync rounds against the signature authority.")

let metrics_out_t =
  Arg.(value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Run with an active metrics registry and write its Prometheus text \
             scrape to FILE; $(b,-) prints it to stdout.")

let json_out_t =
  Arg.(value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the full report as JSON to FILE; $(b,-) prints to stdout.")

let state_dir_arg doc =
  Arg.(opt (some string) None & info [ "state-dir" ] ~docv:"DIR" ~doc)

(* --- chaos --- *)

let chaos_cmd =
  let run () seed scale sample_n corrupt_rate truncate_rate drop_rate duplicate_rate
      delay_rate server_error_rate syncs fail_closed limit crash_points crash_rate
      torn_write_rate state_dir =
    let fault =
      { Fault.default with Fault.corrupt_rate; truncate_rate; drop_rate; duplicate_rate;
        delay_rate; server_error_rate; crash_rate; torn_write_rate }
    in
    let fail_mode = if fail_closed then Flow_control.Fail_closed else Flow_control.Fail_open in
    let config = { Chaos.seed; sample_n; fault; syncs; fail_mode; limit; crash_points } in
    let report =
      Chaos.run ?state_dir config (Workload.generate ~seed ~scale ()).Workload.records
    in
    print_string (Chaos.render report);
    Option.iter (exit_err "%s") report.Chaos.failure
  in
  let rate names doc default =
    Arg.(value & opt float default & info names ~docv:"RATE" ~doc)
  in
  let d = Fault.default in
  let corrupt = rate [ "corrupt-rate" ] "Byte-corruption rate." d.Fault.corrupt_rate in
  let truncate = rate [ "truncate-rate" ] "Payload truncation rate." d.Fault.truncate_rate in
  let drop = rate [ "drop-rate" ] "Record drop rate." d.Fault.drop_rate in
  let duplicate = rate [ "duplicate-rate" ] "Record duplication rate." d.Fault.duplicate_rate in
  let delay = rate [ "delay-rate" ] "Response delay rate." d.Fault.delay_rate in
  let server_error =
    rate [ "server-error-rate" ] "Transient server error rate." d.Fault.server_error_rate
  in
  let fail_closed =
    Arg.(value & flag
        & info [ "fail-closed" ]
            ~doc:"Block everything while the signature feed is stale (default: fail-open).")
  in
  let crash_points =
    Arg.(value & opt int 8
        & info [ "crash-points" ] ~docv:"N" ~doc:"Crash/recover trials in the durability soak.")
  in
  let crash_rate =
    rate [ "crash-rate" ] "Probability a durability trial cuts the log at a crash point." 0.75
  in
  let torn_write_rate =
    rate [ "torn-write-rate" ] "Probability a durability trial damages committed log bytes."
      0.25
  in
  let state_dir =
    Arg.value
      (state_dir_arg
         "Durable state directory for the soak (kept afterwards; inspect its \
          $(b,history) journal with $(b,leakdetect store)).  Default: a temporary \
          directory, removed at exit.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "End-to-end fault-injection soak: generate a workload, ship it through a \
          faulty wire, sync signatures from a one-tenant authority through the \
          delta client, crash and recover the authority's journal, and report \
          recovery.")
    Term.(const run $ setup_log_t $ seed_t $ scale_small_t $ sample_t 150 $ corrupt
          $ truncate $ drop $ duplicate $ delay $ server_error
          $ syncs_t (int_at_least ~what:"sync count" 1) 5 $ fail_closed $ limit_t 5_000
          $ crash_points $ crash_rate $ torn_write_rate $ state_dir)

(* --- store --- *)

let store_cmd =
  let run () dir compact =
    let auth, report = Authority.open_or ~fail:(exit_err "%s") "cannot open journal" ~dir in
    Printf.printf "state dir: %s\nrecovery:  %s\n" dir (Authority.report_to_string report);
    List.iter
      (fun tenant ->
        Printf.printf "tenant %s: v%d, %d signature(s), horizon %d\n" tenant
          (Authority.version auth ~tenant)
          (List.length (Authority.signatures auth ~tenant))
          (Authority.horizon auth ~tenant))
      (Authority.tenants auth);
    Printf.printf "wal:       %d byte(s) at %s\n" (Authority.wal_size auth)
      (Authority.wal_path ~dir);
    if compact then begin
      Authority.compact auth;
      Printf.printf "compacted: snapshot written, log reset to %d byte(s)\n"
        (Authority.wal_size auth)
    end;
    Authority.close auth
  in
  let dir = Arg.required (state_dir_arg "Signature-authority journal directory.") in
  let compact =
    Arg.(value & flag
        & info [ "compact" ]
            ~doc:"Fold the recovered state into an atomic snapshot and reset the log.")
  in
  Cmd.v
    (Cmd.info "store"
       ~doc:
         "Recover a signature-authority journal directory and report what was \
          salvaged and each tenant's state; optionally compact the journal into a \
          snapshot.")
    Term.(const run $ setup_log_t $ dir $ compact)

(* --- trace --- *)

(* The --stats-json dump: the span forest and every metric sample. *)

let rec span_json span =
  Json.Obj
    [
      ("name", Json.String (Obs.Span.name span));
      ("start_ns", Json.Int (Obs.Span.start_ns span));
      ("duration_ns", Json.Int (Obs.Span.duration_ns span));
      ("children", Json.List (List.map span_json (Obs.Span.children span)));
    ]

let sample_json (s : Obs.sample) =
  let value =
    match s.Obs.value with
    | Obs.Counter_value v -> [ ("type", Json.String "counter"); ("value", Json.Int v) ]
    | Obs.Gauge_value v -> [ ("type", Json.String "gauge"); ("value", Json.Int v) ]
    | Obs.Histogram_value { buckets; sum; count } ->
      [
        ("type", Json.String "histogram");
        ("sum", Json.Float sum);
        ("count", Json.Int count);
        ( "buckets",
          Json.List
            (List.map
               (fun (le, c) -> Json.Obj [ ("le", Json.Float le); ("count", Json.Int c) ])
               buckets) );
      ]
  in
  Json.Obj
    ([
       ("family", Json.String s.Obs.family);
       ("help", Json.String s.Obs.help);
       ("labels", Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) s.Obs.labels));
     ]
    @ value)

let stats_json obs =
  Json.Obj
    [
      ("spans", Json.List (List.map span_json (Obs.root_spans obs)));
      ("metrics", Json.List (List.map sample_json (Obs.samples obs)));
    ]

let trace_cmd =
  let run () seed scale trace n config jobs limit syncs metrics_out stats_json_out
      normalize =
    let obs = Obs.create () in
    let normalize = normalize_of ~obs normalize in
    (* When generating the workload we also hold the ground-truth payload
       checker, so the payload_check family populates; a loaded trace file
       carries labels instead and skips that stage. *)
    let records =
      match trace with
      | None ->
        let ds = Workload.generate ~seed ~scale () in
        ignore (Payload_check.split ~obs ds.Workload.payload_check (Workload.packets ds));
        ds.Workload.records
      | Some _ -> load_records ~trace ~seed ~scale
    in
    let suspicious, normal = Trace.split records in
    if Array.length suspicious = 0 then exit_err "trace has no sensitive packets";
    let config =
      Pipeline.Config.(config |> with_normalize normalize |> with_obs obs |> with_jobs ~obs jobs)
    in
    let outcome = Pipeline.run ~config ~rng:(Prng.create seed) ~n ~suspicious ~normal () in
    let signatures = outcome.Pipeline.signatures in
    Printf.printf "pipeline: %d suspicious / %d normal packets -> %d signatures\n"
      (Array.length suspicious) (Array.length normal) (List.length signatures);

    (* Distribution: publish the set in growing chunks to a journaled
       one-tenant authority while an instrumented handset follows, so the
       authority, journal and client families move too.  Each sync gets a
       [client.sync] span of its own in the printed tree. *)
    let tenant = Chaos.tenant in
    let client = Delta_client.create ~obs ~seed:(seed + 1) ~tenant () in
    let authority =
      State_dir.with_root ~prefix:"leakdetect_trace" None (fun dir ->
          let authority, _ =
            Authority.open_or ~obs ~fail:(exit_err "%s") "cannot open journal" ~dir
          in
          let transport = Authority.wire_transport authority in
          let follow () =
            ignore
              (Obs.with_span obs "client.sync" (fun () -> Delta_client.sync client ~transport))
          in
          Authority.publish_rounds authority ~tenant ~rounds:syncs ~follow signatures;
          (* One sync against an unchanged authority, for the `unchanged`
             outcome. *)
          follow ();
          Authority.compact authority;
          (* Closing detaches the journal; the in-memory state and the
             registry keep serving /metrics below. *)
          Authority.close authority;
          authority)
    in
    Printf.printf "distribution: authority v%d, client v%d (%d publish/sync rounds)\n"
      (Authority.version authority ~tenant) (Delta_client.version client) syncs;

    (* Enforcement: replay through the monitor, then cross-check the O(1)
       stats against the event log and the obs counters. *)
    let monitor = Flow_control.create ~obs ?normalize (Delta_client.signatures client) in
    let replayed = Flow_control.replay monitor ~limit records in
    (match Flow_control.reconcile monitor with
    | Ok () -> ()
    | Error e -> exit_err "monitor stats reconciliation failed: %s" e);
    let allowed, blocked, prompted = Flow_control.stats monitor in
    Printf.printf
      "enforcement: %d replayed, %d allowed, %d blocked, %d prompted (stats reconciled)\n"
      replayed allowed blocked prompted;

    (* Scrape through the authority's real /metrics endpoint. *)
    let { Response.status; body = scrape; _ } =
      Authority.handle authority (Request.make Request.GET Protocol.metrics_endpoint)
    in
    if status <> 200 then exit_err "GET %s answered %d" Protocol.metrics_endpoint status;
    write_out metrics_out scrape;
    write_out stats_json_out (Json.to_string (stats_json obs) ^ "\n");
    let families =
      List.length
        (List.sort_uniq compare (List.map (fun s -> s.Obs.family) (Obs.samples obs)))
    in
    Printf.printf "\nscrape: %d metric families\n\nspans:\n" families;
    List.iter (fun span -> print_string (Obs.Span.render span)) (Obs.root_spans obs)
  in
  let stats_json_t =
    Arg.(value
        & opt (some string) None
        & info [ "stats-json" ] ~docv:"FILE"
            ~doc:"Write the span tree and every metric sample as JSON to FILE.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the full pipeline (generation, distribution, enforcement, authority \
          journal) with an active metrics registry, print the span tree, and scrape \
          the /metrics endpoint.")
    Term.(const run $ setup_log_t $ seed_t $ scale_small_t $ trace_t $ sample_t 150
          $ pipeline_config_t ~clustering:false $ jobs_t $ limit_t 5_000 $ syncs_t Arg.int 3
          $ metrics_out_t $ stats_json_t $ normalize_t)

(* --- evade --- *)

let evade_cmd =
  let run () seed scale rates mutators depth sample_n json_out recall_floor metrics_out =
    let mutator name =
      match Mutator.by_name name with
      | Some m -> m
      | None ->
        exit_err "unknown mutator %S (known: %s)" name (String.concat ", " (Mutator.names ()))
    in
    let mutators = if mutators = [] then Mutator.all else List.map mutator mutators in
    if rates = [] then exit_err "need at least one --rates value";
    List.iter (fun r -> if r < 0.0 || r > 1.0 then exit_err "rate %g outside [0, 1]" r) rates;
    let obs = if metrics_out = None then Obs.noop else Obs.create () in
    let budgets = { Normalize.default_budgets with Normalize.max_depth = depth } in
    let report = Harness.run ~obs ~budgets ~mutators ~rates ~seed ~scale ~sample_n () in
    print_string (Harness.render report);
    write_out json_out (Json.to_string_pretty (Harness.to_json report));
    write_out metrics_out (Obs.to_prometheus obs);
    match recall_floor with
    | Some floor when Harness.floor_recall report < floor ->
      exit_err "recall floor violated: %.3f < %.3f over decodable mutations"
        (Harness.floor_recall report) floor
    | _ -> ()
  in
  let rates =
    Arg.(value
        & opt (list float) [ 0.5; 1.0 ]
        & info [ "rates" ] ~docv:"R1,R2,..."
            ~doc:"Mutation rates: fraction of leak packets rewritten per cell.")
  in
  let mutators =
    Arg.(value
        & opt (list string) []
        & info [ "mutators" ] ~docv:"NAME,..."
            ~doc:"Mutators to replay (default: the full catalogue).")
  in
  let depth =
    Arg.(value & opt (int_at_least ~what:"depth" 1) Normalize.default_budgets.Normalize.max_depth
        & info [ "depth" ] ~docv:"N" ~doc:"Lattice decode-depth budget.")
  in
  let recall_floor =
    Arg.(value
        & opt (some float) None
        & info [ "recall-floor" ] ~docv:"R"
            ~doc:
              "Exit non-zero unless every single-layer decodable mutation keeps \
               normalized recall >= R.")
  in
  Cmd.v
    (Cmd.info "evade"
       ~doc:
         "Replay ground-truth leaks through the evasion-mutator catalogue and \
          report per-mutator recall with and without canonicalization.")
    Term.(const run $ setup_log_t $ seed_t $ scale_small_t $ rates $ mutators $ depth
          $ sample_t ~names:[ "sample" ] 300 $ json_out_t $ recall_floor $ metrics_out_t)

let soak_cmd =
  let run () config min_delta_ratio state_dir json_out metrics_out =
    let obs = if metrics_out <> None then Obs.create () else Obs.noop in
    let report =
      State_dir.with_root ~prefix:"leakdetect_soak" state_dir (fun root ->
          let dir = Filename.concat root "topology" in
          if Sys.file_exists dir then State_dir.remove dir;
          try Topology.run ~obs ~dir config
          with Invalid_argument m -> exit_err "%s" m)
    in
    print_endline (Topology.summary report);
    write_out json_out (Json.to_string_pretty (Topology.report_to_json report));
    write_out metrics_out (Obs.to_prometheus obs);
    if not (Topology.ok report) then
      exit_err "soak failed: invariant violation or offload floor";
    let ratio = Topology.steady_delta_ratio report in
    if ratio < min_delta_ratio then
      exit_err "steady-state delta ratio %.1f below floor %.1f" ratio min_delta_ratio
  in
  (* Each flag's term sets its own field of the soak configuration. *)
  let flag kind docv flag_name v doc set =
    let arg = Arg.(value & opt kind v & info [ flag_name ] ~docv ~doc) in
    Term.(const (fun x c -> set c x) $ arg)
  in
  let count = flag Arg.int "N" and rate = flag Arg.float "RATE" in
  let fault set c x = { c with Topology.fault = set c.Topology.fault x } in
  let fields =
    [
      Term.(const (fun seed c -> { c with Topology.seed }) $ seed_t);
      count "clients" 500 "Simulated delta-sync clients." (fun c clients ->
          { c with Topology.clients });
      count "tenants" 2 "Tenants (clients assigned round-robin)." (fun c tenants ->
          { c with Topology.tenants });
      count "ticks" 2000 "Scheduler ticks (ramp is the first third)." (fun c ticks ->
          { c with Topology.ticks });
      count "sync-period" 20 "Ticks between one client's syncs." (fun c sync_period ->
          { c with Topology.sync_period });
      count "publishes" 40 "Signature-set publishes over the first 9/10 of the run."
        (fun c publishes -> { c with Topology.publishes });
      count "compact-every" 5 "Compact the changelog every N publishes (0 = never)."
        (fun c compact_every -> { c with Topology.compact_every });
      count "k" 3 "Distinct reporters required to promote a candidate." (fun c k ->
          { c with Topology.k });
      count "reporter-cap" 16 "Pending candidates one reporter may be party to."
        (fun c reporter_cap -> { c with Topology.reporter_cap });
      count "candidates" 6 "Honest candidate signatures per tenant." (fun c candidates ->
          { c with Topology.candidates });
      count "byzantine" 2 "Hostile reporters flooding candidates." (fun c byzantine ->
          { c with Topology.byzantine });
      rate "drop" 0.10 "Transport record-drop rate."
        (fault (fun f drop_rate -> { f with Fault.drop_rate }));
      rate "corrupt" 0.10 "Transport byte-corruption rate."
        (fault (fun f corrupt_rate -> { f with Fault.corrupt_rate }));
      rate "server-error" 0.2 "Transient server-error rate."
        (fault (fun f server_error_rate -> { f with Fault.server_error_rate }));
      rate "server-crash-rate" 0.25 "Origin crash-point probability per publish / compaction."
        (fun c origin_crash_rate -> { c with Topology.origin_crash_rate });
      rate "client-restart-rate" 0.01 "Per-sync client state-loss probability."
        (fun c client_restart_rate -> { c with Topology.client_restart_rate });
      count "drain-rounds" 40 "Extra sync rounds for stragglers after the run."
        (fun c drain_rounds -> { c with Topology.drain_rounds });
      count "origins" 1 "Origins in the initial shard map." (fun c origins ->
          { c with Topology.origins });
      count "standby-origins" 0 "Standby origins joining the map at odd epoch flips."
        (fun c standby_origins -> { c with Topology.standby_origins });
      count "relays" 0
        "Relay nodes between clients and origins; 0 has clients sync straight \
         from their origin."
        (fun c relays -> { c with Topology.relays });
      count "byzantine-relays" 0 "Relays serving corrupted bytes (needs relays)."
        (fun c byzantine_relays -> { c with Topology.byzantine_relays });
      rate "byzantine-corrupt" 0.5 "Per-response corruption rate of a byzantine relay."
        (fun c byzantine_corrupt_rate -> { c with Topology.byzantine_corrupt_rate });
      count "relay-sync-period" 4 "Ticks between relay upstream syncs."
        (fun c relay_sync_period -> { c with Topology.relay_sync_period });
      count "partitions" 0 "Relay-from-origin partitions scheduled (needs relays)."
        (fun c partitions -> { c with Topology.partitions });
      count "partition-ticks" 150 "Duration of each partition." (fun c partition_ticks ->
          { c with Topology.partition_ticks });
      count "relay-crashes" 0 "Relay crashes (total state loss) scheduled (needs relays)."
        (fun c relay_crashes -> { c with Topology.relay_crashes });
      count "epoch-flips" 0
        "Mid-soak shard-map advances migrating tenants (needs a standby origin)."
        (fun c epoch_flips -> { c with Topology.epoch_flips });
      count "gossip-period" 8 "Ticks between relay gossip rounds, 0 to disable."
        (fun c gossip_period -> { c with Topology.gossip_period });
      count "fork-injections" 0 "Adversarial relay-mirror forks injected mid-soak (needs relays)."
        (fun c fork_injections -> { c with Topology.fork_injections });
      count "origin-weight" 1 "Shard-map capacity weight of origin 0; 1 keeps the map unweighted."
        (fun c origin_weight -> { c with Topology.origin_weight });
      rate "min-offload" 0.8
        "With relays, exit non-zero unless they absorb at least this share of \
         client sync requests."
        (fun c min_offload -> { c with Topology.min_offload });
    ]
  in
  let config =
    List.fold_left
      (fun acc field -> Term.(const (fun c set -> set c) $ acc $ field))
      (Term.const { Topology.default_config with Topology.fault = Fault.default })
      fields
  in
  let min_delta_ratio =
    Arg.(value
        & opt float 5.0
        & info [ "min-delta-ratio" ] ~docv:"R"
            ~doc:
              "Exit non-zero unless steady-state delta syncs outnumber full \
               downloads by at least R.")
  in
  let state_dir =
    Arg.value
      (state_dir_arg
         "Directory for the origins' journals and snapshots (default: a \
          temporary directory, removed afterwards).")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Drive hundreds of simulated delta-sync clients against journaled, \
          sharded signature origins (optionally behind a relay tier) through \
          faulty transports, with crash points, and check the convergence \
          invariants.")
    Term.(const run $ setup_log_t $ config $ min_delta_ratio $ state_dir $ json_out_t
          $ metrics_out_t)

let main_cmd =
  let doc = "signature generation for sensitive information leakage (ICDE 2013 reproduction)" in
  Cmd.group
    (Cmd.info "leakdetect" ~version:"1.0.0" ~doc)
    [ generate_cmd; stats_cmd; cluster_cmd; sign_cmd; detect_cmd; evaluate_cmd;
      monitor_cmd; chaos_cmd; store_cmd; trace_cmd; evade_cmd; soak_cmd ]

let () = exit (Cmd.eval main_cmd)
