(* The analyst's path (Sec. IV of the paper): a labelled trace file is
   loaded, split by the payload check, and a sample of N suspicious
   packets is clustered by NCD distance into conjunction signatures,
   which are then evaluated over the whole trace.

   One operation is one signing job on a fresh distance context, so the
   NCD caches start cold in every job, as on every CLI run; a small
   untimed warm-up job first grows the process heap.  A traced job is the same job
   with an active Obs registry: Pipeline.run and the layers under it record
   their own spans (pipeline.run, siggen.generate, siggen.cluster,
   distance.matrix or clustering.sketch, siggen.tokens, detector.scan), as
   does payload_check.split; the ledger adds one around Trace.load. *)

module Json = Leakdetect_util.Json
module Prng = Leakdetect_util.Prng
module Sample = Leakdetect_util.Sample
module Crc32 = Leakdetect_util.Crc32
module Trace = Leakdetect_http.Trace
module Packet = Leakdetect_http.Packet
module Generator = Leakdetect_android.Workload
module Payload_check = Leakdetect_core.Payload_check
module Pipeline = Leakdetect_core.Pipeline
module Config = Leakdetect_core.Pipeline_config
module Clustering = Leakdetect_core.Clustering
module Signature = Leakdetect_core.Signature
module Signature_io = Leakdetect_core.Signature_io
module Detector = Leakdetect_core.Detector
module Metrics = Leakdetect_core.Metrics
module Tokens = Leakdetect_text.Tokens
module Sketch = Leakdetect_sketch.Sketch
module Lsh = Leakdetect_sketch.Lsh
module Obs = Leakdetect_obs.Obs

type size = {
  scale : float;
  n : int;  (** Sample size N. *)
  inputs : int;  (** Traces, each with its own sample, per run. *)
}

let digest signatures =
  Crc32.string (String.concat "\n" (List.map Signature_io.to_line signatures))

let load file =
  match Trace.load file with Ok (records, _) -> records | Error e -> failwith e

let packets_of records = Array.of_list (List.map (fun r -> r.Trace.packet) records)

(* The trace labels name the leaking packets; the payload check must pick
   out exactly those, in order. *)
let split_agrees records (suspicious, normal) =
  let leaks, benign = List.partition (fun r -> r.Trace.labels <> []) records in
  packets_of leaks = suspicious && packets_of benign = normal

(* One signing job; with [obs] active it is a traced job. *)
let job config ~obs ~rng ~n ~file ~payload_check =
  Obs.with_span obs "op" @@ fun () ->
  let records = Obs.with_span obs "http.trace.load" (fun () -> load file) in
  let split = Payload_check.split ~obs payload_check (packets_of records) in
  let suspicious, normal = split in
  let o = Pipeline.run ~config:(Config.with_obs obs config) ~rng ~n ~suspicious ~normal () in
  (o, records, split)

(* Independent check of detection: on every 16th packet the verdict of the
   job's detector must equal a direct token match of some signature, and
   the job's counts must equal the detector's bitmap. *)
let detection_agrees (o : Pipeline.outcome) packets ~sensitive_total =
  let detector = Detector.create o.Pipeline.signatures in
  let bitmap = Detector.detect_bitmap detector packets in
  let oracle p =
    let content = Packet.content_string p in
    List.exists
      (fun (s : Signature.t) ->
        match s.Signature.mode with
        | Signature.Conjunction -> Tokens.matches_all ~tokens:s.Signature.tokens content
        | Signature.Ordered -> Tokens.matches_ordered ~tokens:s.Signature.tokens content)
      o.Pipeline.signatures
  in
  let sampled_ok = ref true in
  Array.iteri (fun i p -> if i mod 16 = 0 && oracle p <> bitmap.(i) then sampled_ok := false) packets;
  let count lo hi =
    let c = ref 0 in
    for i = lo to hi - 1 do
      if bitmap.(i) then incr c
    done;
    !c
  in
  let c = o.Pipeline.metrics.Metrics.counts in
  !sampled_ok
  && count 0 sensitive_total = c.Metrics.sensitive_detected
  && count sensitive_total (Array.length packets) = c.Metrics.normal_detected

(* Bucket structure of a sketch job, recomputed from public functions on
   the job's sample (Pipeline.run draws it first from the job's PRNG):
   final buckets, their pairs, and the largest LSH component before
   refinement.  Refinement runs only when that component exceeds the
   bucket cap. *)
type buckets = { count : int; largest : int; pairs : int; largest_component : int }

let bucket_structure params sample =
  let payloads = Array.map Packet.content_string sample in
  let sizes = List.map List.length (Sketch.bucket params payloads) in
  let components =
    Lsh.buckets ~bands:params.Sketch.bands ~rows:params.Sketch.rows
      (Sketch.signatures params payloads)
  in
  { count = List.length sizes; largest = List.fold_left max 0 sizes;
    pairs = List.fold_left (fun acc s -> acc + (s * (s - 1) / 2)) 0 sizes;
    largest_component = List.fold_left (fun acc c -> max acc (List.length c)) 0 components }

let counter obs family =
  List.fold_left
    (fun acc (s : Obs.sample) ->
      match s.Obs.value with Obs.Counter_value v when s.Obs.family = family -> acc + v | _ -> acc)
    0 (Obs.samples obs)

(* Input [j] of a run: its own generated trace, written to a file, and a
   sample drawn from it.  A run cycles over several inputs so that its
   medians average over traces and samples, not only over repetitions. *)
type input = { file : string; payload_check : Payload_check.t; input_seed : int }

let input_seed ~seed j = (seed * 64) + j

let run ~backend ~size (p : Outcome.params) =
  let config = Pipeline.Config.(with_clustering backend default) in
  let n = size.n and speed = p.Outcome.speed in
  Harness.with_temp_dir @@ fun dir ->
  let inputs, setup =
    Outcome.setup_inputs speed size.inputs (fun j ->
        let input_seed = input_seed ~seed:p.Outcome.seed j in
        let ds = Generator.generate ~seed:input_seed ~scale:size.scale () in
        let file = Filename.concat dir (Printf.sprintf "trace-%d.tsv" j) in
        Trace.save file (Array.to_list ds.Generator.records);
        { file; payload_check = ds.Generator.payload_check; input_seed })
  in
  let obs = if p.Outcome.traced then Obs.create () else Obs.noop in
  let tr = Outcome.trace () in
  let untraced = Speed.ops () in
  let references = Hashtbl.create 8 and traced_jobs = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let job_on ~obs j =
    incr attempted;
    let { file; payload_check; input_seed } = inputs.(j) in
    let rng = Prng.create input_seed in
    let timed f = if Obs.is_noop obs then Speed.time speed untraced f else f () in
    match timed (fun () -> job config ~obs ~rng ~n ~file ~payload_check) with
    | o, records, split ->
      (* The trace and its split are checked, then dropped, after the
         clock stops. *)
      let split_ok = split_agrees records split in
      if not (Obs.is_noop obs) then begin
        Outcome.absorb tr obs;
        traced_jobs := j :: !traced_jobs
      end;
      (* Every job on one input, traced or not, must give one output. *)
      let output = (digest o.Pipeline.signatures, o.Pipeline.metrics) in
      let same =
        match Hashtbl.find_opt references j with
        | None ->
          Hashtbl.add references j (o, output);
          true
        | Some (_, r) -> r = output
      in
      if not (same && split_ok) then incr failed
    | exception e ->
      Printf.printf "job on input %d failed: %s\n%!" j (Printexc.to_string e);
      incr failed
  in
  (* The warm-up: a small job on the first input, untimed, so that the
     timed jobs all run in a heap that has already held a whole trace. *)
  (let { file; payload_check; input_seed } = inputs.(0) in
   ignore
     (job config ~obs:Obs.noop ~rng:(Prng.create input_seed) ~n:(min n 40) ~file ~payload_check));
  (* An untraced run goes round the inputs; a traced run gives each input
     an untraced and a traced job in turn, so both see the same input and
     heap state. *)
  if p.Outcome.traced then
    Outcome.repeat p ~every:2 ~min_ops:2 (fun i ->
        job_on ~obs:(if i mod 2 = 0 then Obs.noop else obs) (i / 2 mod size.inputs))
  else
    Outcome.repeat p ~every:size.inputs ~min_ops:size.inputs (fun i ->
        job_on ~obs:Obs.noop (i mod size.inputs));
  let heap_mb = Outcome.heap_peak_mb () in
  let jobs = List.sort compare (Hashtbl.fold (fun j (o, _) acc -> (j, o) :: acc) references []) in
  let first =
    match jobs with (0, o) :: _ -> o | _ -> failwith "the first input's job did not complete"
  in
  (* Sanity floors on signature quality, far below what the paper's
     configuration reaches (~94% recall, ~3% false positives at N=500),
     so only a broken clustering or token stage trips them. *)
  let quality_ok (o : Pipeline.outcome) =
    o.Pipeline.metrics.Metrics.true_positive >= 0.3
    && o.Pipeline.metrics.Metrics.false_positive <= 0.1
  in
  let leaks_of j =
    let records = load inputs.(j).file in
    let leaks, benign = List.partition (fun r -> r.Trace.labels <> []) records in
    (packets_of leaks, packets_of benign)
  in
  let ok =
    List.for_all
      (fun (j, (o : Pipeline.outcome)) ->
        let leaks, benign = leaks_of j in
        let agrees =
          detection_agrees o (Array.append leaks benign) ~sensitive_total:(Array.length leaks)
        in
        Printf.printf "input %d: %d packets (%d leaks), %d signatures, recall %.4f, fp %.4f%s%s\n" j
          (Array.length leaks + Array.length benign) (Array.length leaks)
          (List.length o.Pipeline.signatures) o.Pipeline.metrics.Metrics.true_positive
          o.Pipeline.metrics.Metrics.false_positive
          (if quality_ok o then "" else "  [QUALITY BELOW FLOOR]")
          (if agrees then "" else "  [DETECTION DISAGREES WITH ORACLE]");
        agrees && quality_ok o)
      jobs
  in
  Printf.printf "%d jobs over %d inputs at N=%d (%d timed untraced, %d traced), %d failed\n%!"
    !attempted (List.length jobs) n (Speed.count untraced) (List.length !traced_jobs) !failed;
  let metrics, structure_ok =
    match !traced_jobs with
    | [] -> (Outcome.end_to_end_metrics ~speed ~setup ~heap_mb untraced, true)
    | traced ->
      let ops = float_of_int (List.length traced) in
      let outcome j = List.assoc j jobs in
      let mean f = List.fold_left (fun acc j -> acc +. f (outcome j)) 0. traced /. ops in
      let recall = mean (fun o -> o.Pipeline.metrics.Metrics.true_positive) in
      let fp = mean (fun o -> o.Pipeline.metrics.Metrics.false_positive) in
      let traced_pct =
        Outcome.trace_metrics tr ~untraced_s:(Outcome.mean (Speed.raw untraced))
          ~stages:
            [ ("http.trace.load_pct", [ "http.trace.load" ]);
              ("core.payload_check.split_pct", [ "payload_check.split" ]);
              ("core.pipeline.run_pct", [ "pipeline.run" ]);
              ("core.siggen.generate_pct", [ "siggen.generate" ]);
              ("core.siggen.cluster_pct", [ "siggen.cluster" ]);
              ("core.distance.matrix_pct", [ "distance.matrix" ]);
              ("core.clustering.sketch_pct", [ "clustering.sketch" ]);
              ("core.siggen.tokens_pct", [ "siggen.tokens" ]);
              ("core.detector.scan_pct", [ "detector.scan" ]) ]
      in
      let pair_metrics pairs ncd_s =
        [ ("core.distance.pairs", float_of_int pairs /. ops);
          ("core.distance.pairs_per_s", float_of_int pairs /. ncd_s) ]
      in
      let quality = [ ("core.detector.recall_pct", 100. *. recall); ("core.detector.fp_pct", 100. *. fp) ] in
      (* The traced job is the job with an active registry, so the cost of
         observability is the cost of tracing. *)
      let obs_overhead =
        [ ("obs.overhead_pct", List.assoc "trace.overhead_pct" traced_pct) ]
      in
      (match backend with
      | Clustering.Exact ->
        ( traced_pct @ obs_overhead @ quality
          @ pair_metrics (counter obs "leakdetect_distance_pairs_total")
              (Outcome.self_s tr "distance.matrix"),
          true )
      | Clustering.Sketch params ->
        let structures =
          List.map
            (fun j ->
              let suspicious, _ = leaks_of j in
              bucket_structure params
                (Sample.without_replacement (Prng.create inputs.(j).input_seed) n suspicious))
            traced
        in
        let sum f = List.fold_left (fun acc b -> acc + f b) 0 structures in
        let largest f = List.fold_left (fun acc b -> max acc (f b)) 0 structures in
        let pairs = sum (fun b -> b.pairs) in
        let total = List.length traced * (n * (n - 1) / 2) in
        (* The recomputed buckets must be the ones the traced jobs counted,
           and the workload must be large enough that the bucket cap bites:
           some LSH component over it, refined into buckets within it. *)
        let refined =
          largest (fun b -> b.largest_component) > params.Sketch.max_bucket
          && largest (fun b -> b.largest) <= params.Sketch.max_bucket
        in
        let same = sum (fun b -> b.count) = counter obs "leakdetect_cluster_buckets_total" in
        if not refined then
          Printf.printf "no LSH component exceeded the bucket cap of %d: refinement never ran\n"
            params.Sketch.max_bucket;
        if not same then Printf.printf "recomputed buckets differ from the traced jobs'\n";
        ( traced_pct @ obs_overhead @ quality
          (* In-bucket NCD matrices and linkage are siggen.cluster's own
             time under the sketch backend; linkage is a small part. *)
          @ pair_metrics pairs (Outcome.self_s tr "siggen.cluster")
          @ [ ("sketch.buckets", float_of_int (sum (fun b -> b.count)) /. ops);
              ("sketch.largest_bucket", float_of_int (largest (fun b -> b.largest)));
              ("sketch.largest_component", float_of_int (largest (fun b -> b.largest_component)));
              ( "sketch.pairs_avoided_pct",
                Outcome.pct (float_of_int (total - pairs)) (float_of_int total) ) ],
          refined && same ))
  in
  { Outcome.correct = !failed = 0 && ok && structure_ok;
    attempted = !attempted; failed = !failed; metrics;
    digest = digest first.Pipeline.signatures;
    notes =
      [ ("scale", Json.Float size.scale); ("n", Json.Int n);
        ("inputs", Json.Int (List.length jobs));
        ("untraced_jobs", Json.Int (Speed.count untraced));
        ("traced_jobs", Json.Int (List.length !traced_jobs)) ] }
