module Dendrogram = Leakdetect_cluster.Dendrogram
module Agglomerative = Leakdetect_cluster.Agglomerative
module Tokens = Leakdetect_text.Tokens
module Packet = Leakdetect_http.Packet
module Obs = Leakdetect_obs.Obs

let log_src = Logs.Src.create "leakdetect.siggen" ~doc:"Signature generation"

module Log = (val Logs.src_log log_src)

type cut = Pipeline_config.cut = Auto | Threshold of float | Count of int | Every_merge

type config = Pipeline_config.siggen = {
  linkage : Agglomerative.linkage;
  cut : cut;
  min_token_len : int;
  min_specificity : int;
  mode : Signature.mode;
}

let default = Pipeline_config.default_siggen

type result = {
  signatures : Signature.t list;
  dendrogram : Dendrogram.t option;
  clusters : int list list;
  rejected : int;
  stats : Clustering.stats option;
}

let cut_threshold_value config dist =
  match config.cut with
  | Threshold v -> v
  | Auto | Count _ | Every_merge -> 0.25 *. Distance.max_possible dist

(* All internal subtrees, largest first, for the Every_merge policy. *)
let rec internal_subtrees = function
  | Dendrogram.Leaf _ -> []
  | Dendrogram.Node { left; right; _ } as node ->
    (node :: internal_subtrees left) @ internal_subtrees right

let generate ?(config = Pipeline_config.default) dist sample =
  let obs = config.Pipeline_config.obs in
  let sg = config.Pipeline_config.siggen in
  if Array.length sample = 0 then
    { signatures = []; dendrogram = None; clusters = []; rejected = 0; stats = None }
  else
    Obs.with_span obs "siggen.generate" @@ fun () ->
    let clustered =
      Obs.with_span obs "siggen.cluster" (fun () ->
          Clustering.run ?pool:config.Pipeline_config.pool ~obs
            ~backend:config.Pipeline_config.clustering ~linkage:sg.linkage dist
            sample)
    in
    let dendrogram = clustered.Clustering.dendrogram in
    let clusters =
      match dendrogram with
      | None -> []
      | Some tree ->
        let forest =
          match sg.cut with
          | Count k -> Dendrogram.cut_into k tree
          | Every_merge -> internal_subtrees tree
          | Auto | Threshold _ ->
            Dendrogram.cut ~threshold:(cut_threshold_value sg dist) tree
        in
        List.map Dendrogram.members forest
    in
    let next_id = ref 0 and rejected = ref 0 in
    let seen_tokens = Hashtbl.create 64 in
    let signatures =
      Obs.with_span obs "siggen.tokens" @@ fun () ->
      List.filter_map
        (fun members ->
          let contents =
            List.map (fun i -> Packet.content_string sample.(i)) members
          in
          let tokens = Tokens.extract ~min_len:sg.min_token_len contents in
          match tokens with
          | [] ->
            incr rejected;
            None
          | tokens ->
            let candidate =
              Signature.make ~id:!next_id ~mode:sg.mode
                ~cluster_size:(List.length members) tokens
            in
            if Signature.specificity candidate < sg.min_specificity then begin
              incr rejected;
              None
            end
            else if Hashtbl.mem seen_tokens tokens then begin
              (* Nested clusters can repeat a token list (Every_merge). *)
              incr rejected;
              None
            end
            else begin
              Hashtbl.add seen_tokens tokens ();
              incr next_id;
              Some candidate
            end)
        clusters
    in
    Obs.Counter.add
      (Obs.counter obs ~help:"Clusters produced by the dendrogram cut."
         "leakdetect_siggen_clusters_total")
      (List.length clusters);
    Obs.Counter.add
      (Obs.counter obs ~help:"Signatures by filter outcome."
         ~labels:[ ("status", "accepted") ]
         "leakdetect_siggen_signatures_total")
      (List.length signatures);
    Obs.Counter.add
      (Obs.counter obs ~help:"Signatures by filter outcome."
         ~labels:[ ("status", "rejected") ]
         "leakdetect_siggen_signatures_total")
      !rejected;
    Log.info (fun m ->
        m "sample of %d -> %d clusters, %d signatures (%d rejected) [%s/agglomerative-%s]"
          (Array.length sample) (List.length clusters) (List.length signatures)
          !rejected
          clustered.Clustering.stats.Clustering.backend
          (Agglomerative.linkage_name sg.linkage));
    List.iter
      (fun s -> Log.debug (fun m -> m "signature: %a" Signature.pp s))
      signatures;
    { signatures; dendrogram; clusters; rejected = !rejected;
      stats = Some clustered.Clustering.stats }
