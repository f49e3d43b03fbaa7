module Packet = Leakdetect_http.Packet
module Metrics = Leakdetect_core.Metrics
module Signature = Leakdetect_core.Signature
module Detector = Leakdetect_core.Detector
module Tokens = Leakdetect_text.Tokens

let metrics_of ~n ~suspicious ~normal ~count =
  Metrics.compute
    {
      Metrics.n;
      sensitive_total = Array.length suspicious;
      sensitive_detected = count suspicious;
      normal_total = Array.length normal;
      normal_detected = count normal;
    }

let exact ~sample ~suspicious ~normal =
  let known = Hashtbl.create (Array.length sample) in
  Array.iter (fun p -> Hashtbl.replace known (Packet.content_string p) ()) sample;
  let count arr =
    Array.fold_left
      (fun acc p -> if Hashtbl.mem known (Packet.content_string p) then acc + 1 else acc)
      0 arr
  in
  metrics_of ~n:(Array.length sample) ~suspicious ~normal ~count

let sample_substring ~sample ~suspicious ~normal =
  let signatures =
    Array.to_list sample
    |> List.mapi (fun i p ->
           Signature.make ~id:i ~mode:Signature.Conjunction ~cluster_size:1
             [ Packet.content_string p ])
  in
  let detector = Detector.create signatures in
  metrics_of ~n:(Array.length sample) ~suspicious ~normal
    ~count:(Detector.count_detected detector)

let signatures_of_partition ?(config = Leakdetect_core.Siggen.default) clusters =
  let next_id = ref 0 in
  List.filter_map
    (fun members ->
      match members with
      | [] -> None
      | members ->
        let contents = List.map Packet.content_string members in
        (match
           Tokens.extract ~min_len:config.Leakdetect_core.Siggen.min_token_len contents
         with
        | [] -> None
        | tokens ->
          let candidate =
            Signature.make ~id:!next_id ~mode:config.Leakdetect_core.Siggen.mode
              ~cluster_size:(List.length members) tokens
          in
          if Signature.specificity candidate < config.Leakdetect_core.Siggen.min_specificity
          then None
          else begin
            incr next_id;
            Some candidate
          end))
    clusters

let partition_metrics ?(config = Leakdetect_core.Siggen.default) ~n ~clusters
    ~suspicious ~normal () =
  let detector = Detector.create (signatures_of_partition ~config clusters) in
  metrics_of ~n ~suspicious ~normal ~count:(Detector.count_detected detector)

let random_cluster ~rng ?n_clusters ?(config = Leakdetect_core.Siggen.default)
    ~sample ~suspicious ~normal () =
  let n = Array.length sample in
  let k = match n_clusters with Some k -> max 1 k | None -> max 1 (n / 8) in
  (* Uniform random assignment of sample packets to k buckets. *)
  let buckets = Array.make k [] in
  Array.iter
    (fun p ->
      let b = Leakdetect_util.Prng.int rng k in
      buckets.(b) <- p :: buckets.(b))
    sample;
  partition_metrics ~config ~n ~clusters:(Array.to_list buckets) ~suspicious ~normal ()
