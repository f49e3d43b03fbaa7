(* What one benchmark run reports, and the metric tables every workload
   reports against.  Units here must match BENCHMARK.json; the smoke check
   ([ledger.exe smoke]) fails when they drift apart. *)

module Json = Leakdetect_util.Json
module Obs = Leakdetect_obs.Obs

type params = {
  seed : int;
  seconds : float;  (** Measured-phase budget. *)
  traced : bool;
  smoke : bool;  (** Tiny inputs, minimum repetitions: a functional check. *)
  speed : Speed.t;  (** The run's reference-kernel passes. *)
}

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  digest : int;
      (** CRC-32 of the workload's output (signature lines, verdict
          bitmap or final checksum); equal across commits at one seed. *)
  notes : (string * Json.t) list;  (** Sample counts and sizes, for [--out]. *)
}

(* Seen by a user of the system; measured with tracing off. *)
let end_to_end =
  [ ("setup_s", "s"); ("latency_p50_ms", "ms"); ("latency_p90_ms", "ms");
    ("ops_per_s", "1/s"); ("heap_peak_mb", "MB") ]

(* Single layers, from the traced run.  Every workload reports every one;
   a layer the workload never calls reads 0.  Stage shares are self time
   over the traced wall clock and, with trace.unaccounted_pct, sum to 100. *)
let per_layer =
  [ ("trace.wall_s", "s"); ("trace.unaccounted_pct", "%"); ("trace.overhead_pct", "%");
    ("obs.overhead_pct", "%");
    ("http.trace.load_pct", "%"); ("core.payload_check.split_pct", "%");
    ("core.pipeline.run_pct", "%"); ("core.siggen.generate_pct", "%");
    ("core.siggen.cluster_pct", "%"); ("core.distance.matrix_pct", "%");
    ("core.clustering.sketch_pct", "%"); ("core.siggen.tokens_pct", "%");
    ("core.detector.scan_pct", "%"); ("http.wire.parse_pct", "%");
    ("distrib.authority.publish_pct", "%"); ("distrib.relay.sync_pct", "%");
    ("distrib.delta_client.sync_pct", "%"); ("distrib.authority.recovery_pct", "%");
    ("core.distance.pairs", "count"); ("core.distance.pairs_per_s", "1/s");
    ("sketch.buckets", "count"); ("sketch.largest_bucket", "count");
    ("sketch.largest_component", "count"); ("sketch.pairs_avoided_pct", "%");
    ("core.detector.recall_pct", "%"); ("core.detector.fp_pct", "%");
    ("core.detector.alloc_bytes_per_pkt", "B");
    ("core.detector.normalize_overhead_pct", "%");
    ("normalize.lattice_rate_pct", "%"); ("normalize.useful_pct", "%");
    ("normalize.views_per_pkt", "count");
    ("distrib.authority.publish_growth", "ratio"); ("store.wal.bytes", "B");
    ("distrib.changelog.append_per_s", "1/s"); ("distrib.changelog.since_per_s", "1/s");
    ("distrib.changelog.checksum_at_per_s", "1/s");
    ("distrib.delta_client.delta_pct", "%"); ("distrib.sync_bytes", "B");
    ("distrib.relay.repairs", "count"); ("distrib.relay.repair_bytes", "B");
    ("distrib.relay.snapshot_bytes", "B") ]

(* Set up [k] inputs with [f], one per index, each timed into the
   returned ops: set-up time is the median time to prepare one input. *)
let setup_inputs speed k f =
  let setup = Speed.ops () in
  (Array.init k (fun j -> Speed.time speed setup (fun () -> f j)), setup)

(* Call [op] in groups of [every] calls (a round over the inputs, or a
   traced run's untraced/traced turns): at least [min_ops] calls, then
   another group whenever, at the mean group time so far, it would end
   within the measured-phase budget.  A run thus measures whole groups,
   and as many as fit unless the machine's speed changes by more than the
   slack the sizes leave.  Smoke runs stop as soon as they may. *)
let repeat ?(every = 1) params ~min_ops op =
  let start = Harness.now_ns () in
  let budget = if params.smoke then 0 else int_of_float (params.seconds *. 1e9) in
  let i = ref 0 in
  let another () =
    let elapsed = Harness.now_ns () - start in
    !i < min_ops || !i mod every <> 0 || elapsed + (elapsed / max 1 (!i / every)) <= budget
  in
  while another () do
    op !i;
    incr i
  done

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* The end-to-end metrics from the set-up and operation durations, scaled
   to the reference speed (Speed); [heap_mb] is {!heap_peak_mb} read when
   the measured phase ends, before any analysis allocates.  The durations
   as measured are printed beside them. *)
let end_to_end_metrics ~speed ~setup ~heap_mb ops =
  let latencies = Speed.calibrated speed ops and raw = Speed.raw ops in
  let ms xs p = 1000. *. Harness.percentile xs p in
  List.iter
    (fun (label, xs) ->
      Printf.printf "%s latency over %d samples: p50 %.6g ms, p90 %.6g ms, p99 %.6g ms, p99.9 %.6g ms\n"
        label (Array.length xs) (ms xs 50.) (ms xs 90.) (ms xs 99.) (ms xs 99.9))
    [ ("measured", raw); ("calibrated", latencies) ];
  Printf.printf "reference kernel: median %.1f us over %d passes (nominal %.1f us)\n"
    (Speed.reference_us speed) (Speed.passes speed) (Speed.nominal_ns /. 1e3);
  [ ("setup_s", Harness.median (Speed.calibrated speed setup));
    ("latency_p50_ms", ms latencies 50.); ("latency_p90_ms", ms latencies 90.);
    ("ops_per_s", float_of_int (Array.length latencies) /. Array.fold_left ( +. ) 0. latencies);
    ("heap_peak_mb", heap_mb) ]

let pct part whole = if whole > 0. then 100. *. part /. whole else 0.

(* Relative cost of [x] over the baseline [base], in percent. *)
let overhead_pct ~base x = pct (x -. base) base

let mean xs = Array.fold_left ( +. ) 0. xs /. float_of_int (max 1 (Array.length xs))

(* --- traced runs ------------------------------------------------------------ *)

(* A traced operation runs inside an "op" span of an active Obs registry;
   the layers under it add their own spans to that registry (Pipeline.run
   and everything it calls) or the workload wraps its calls into a layer.
   [absorb] folds the registry's completed span trees into self time per
   span name (a span's duration less its children's) and drops them, so
   a long traced run holds no trees.  The root spans' durations sum to
   the traced wall clock. *)
type trace = {
  self_ns : (string, int) Hashtbl.t;
  mutable wall_ns : int;
  mutable op_ns : int;
  mutable ops : int;
}

let trace () = { self_ns = Hashtbl.create 16; wall_ns = 0; op_ns = 0; ops = 0 }

let self_ns tr name = Option.value (Hashtbl.find_opt tr.self_ns name) ~default:0

let absorb tr obs =
  let rec walk span =
    let children = Obs.Span.children span in
    let child_ns = List.fold_left (fun acc c -> acc + Obs.Span.duration_ns c) 0 children in
    let name = Obs.Span.name span in
    Hashtbl.replace tr.self_ns name (self_ns tr name + Obs.Span.duration_ns span - child_ns);
    List.iter walk children
  in
  List.iter
    (fun root ->
      let d = Obs.Span.duration_ns root in
      tr.wall_ns <- tr.wall_ns + d;
      if Obs.Span.name root = "op" then begin
        tr.op_ns <- tr.op_ns + d;
        tr.ops <- tr.ops + 1
      end;
      walk root)
    (Obs.root_spans obs);
  Obs.reset_spans obs

let self_s tr name = float_of_int (self_ns tr name) /. 1e9

(* Trace bookkeeping and stage shares: [stages] maps each share metric to
   the spans whose self time it sums; time in any other span, the "op"
   roots' own included, is unaccounted.  [untraced_s] is the mean untraced
   operation, in seconds. *)
let trace_metrics tr ~stages ~untraced_s =
  let wall = float_of_int tr.wall_ns in
  let stage_ns spans = List.fold_left (fun acc span -> acc + self_ns tr span) 0 spans in
  let staged = List.fold_left (fun acc (_, spans) -> acc + stage_ns spans) 0 stages in
  [ ("trace.wall_s", wall /. 1e9);
    ("trace.unaccounted_pct", pct (wall -. float_of_int staged) wall);
    ( "trace.overhead_pct",
      overhead_pct ~base:untraced_s (float_of_int tr.op_ns /. 1e9 /. float_of_int tr.ops) ) ]
  @ List.map (fun (metric, spans) -> (metric, pct (float_of_int (stage_ns spans)) wall)) stages
