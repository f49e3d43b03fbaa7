module Obs = Leakdetect_obs.Obs

type cut = Auto | Threshold of float | Count of int | Every_merge

type siggen = {
  linkage : Leakdetect_cluster.Agglomerative.linkage;
  cut : cut;
  min_token_len : int;
  min_specificity : int;
  mode : Signature.mode;
}

let default_siggen =
  {
    linkage = Leakdetect_cluster.Agglomerative.Group_average;
    cut = Auto;
    min_token_len = 3;
    min_specificity = 8;
    mode = Signature.Conjunction;
  }

type on_error = [ `Fail | `Skip ]

type t = {
  components : Distance.components;
  compressor : Leakdetect_compress.Compressor.algorithm;
  content_metric : Distance.content_metric;
  registry : Leakdetect_net.Registry.t option;
  siggen : siggen;
  clustering : Clustering.backend;
  pool : Leakdetect_parallel.Pool.t option;
  on_error : on_error;
  sample_n : int;
  obs : Obs.t;
  normalize : Leakdetect_normalize.Normalize.t option;
}

let default =
  {
    components = Distance.all_components;
    compressor = Leakdetect_compress.Compressor.Lz77;
    content_metric = Distance.Ncd;
    registry = None;
    siggen = default_siggen;
    clustering = Clustering.Exact;
    pool = None;
    on_error = `Fail;
    sample_n = 500;
    obs = Obs.noop;
    normalize = None;
  }

let with_clustering clustering t = { t with clustering }
let with_pool pool t = { t with pool }

let with_jobs ?obs jobs t = { t with pool = Leakdetect_parallel.Pool.warm ?obs jobs }
let with_obs obs t = { t with obs }
let with_normalize normalize t = { t with normalize }

let distance t =
  Distance.create ~components:t.components ~compressor:t.compressor
    ~content_metric:t.content_metric ?registry:t.registry ()
