module Sample = Leakdetect_util.Sample
module Obs = Leakdetect_obs.Obs

let log_src = Logs.Src.create "leakdetect.pipeline" ~doc:"End-to-end evaluation pipeline"

module Log = (val Logs.src_log log_src)

module Config = Pipeline_config

type config = Pipeline_config.t = {
  components : Distance.components;
  compressor : Leakdetect_compress.Compressor.algorithm;
  content_metric : Distance.content_metric;
  registry : Leakdetect_net.Registry.t option;
  siggen : Siggen.config;
  clustering : Clustering.backend;
  pool : Leakdetect_parallel.Pool.t option;
  on_error : Config.on_error;
  sample_n : int;
  obs : Obs.t;
  normalize : Leakdetect_normalize.Normalize.t option;
}

let default_config = Config.default

type outcome = {
  sample_size : int;
  signatures : Signature.t list;
  n_clusters : int;
  metrics : Metrics.t;
}

let run_instrumented config ~rng ~n ~suspicious ~normal =
  let obs = config.obs and pool = config.pool in
  let sample = Sample.without_replacement rng n suspicious in
  let n = Array.length sample in
  Obs.Gauge.set
    (Obs.gauge obs ~help:"Suspicious packets sampled by the latest run."
       "leakdetect_pipeline_sample_size")
    n;
  let dist = Config.distance config in
  let gen = Siggen.generate ~config dist sample in
  let detector = Detector.create gen.Siggen.signatures in
  let normalize = config.normalize in
  let sensitive_detected =
    Detector.count_detected ?pool ~obs ?normalize detector suspicious
  in
  let normal_detected = Detector.count_detected ?pool ~obs ?normalize detector normal in
  let metrics =
    Metrics.compute
      {
        Metrics.n;
        sensitive_total = Array.length suspicious;
        sensitive_detected;
        normal_total = Array.length normal;
        normal_detected;
      }
  in
  Log.info (fun m -> m "%a" Metrics.pp metrics);
  {
    sample_size = n;
    signatures = gen.Siggen.signatures;
    n_clusters = List.length gen.Siggen.clusters;
    metrics;
  }

let run ?(config = Config.default) ?n ~rng ~suspicious ~normal () =
  let n = Option.value n ~default:config.sample_n in
  let obs = config.obs in
  if Obs.is_noop obs then run_instrumented config ~rng ~n ~suspicious ~normal
  else
    Obs.with_span obs "pipeline.run" @@ fun () ->
    let t0 = Obs.Clock.now_ns () in
    let outcome = run_instrumented config ~rng ~n ~suspicious ~normal in
    Obs.Counter.inc
      (Obs.counter obs ~help:"Completed end-to-end pipeline runs."
         "leakdetect_pipeline_runs_total");
    Obs.Histogram.observe
      (Obs.histogram obs ~help:"End-to-end pipeline run latency."
         ~buckets:Obs.duration_buckets "leakdetect_pipeline_run_seconds")
      (float_of_int (Obs.Clock.now_ns () - t0) /. 1e9);
    outcome
