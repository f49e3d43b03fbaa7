module Packet = Leakdetect_http.Packet
module Tokens = Leakdetect_text.Tokens
module Aho_corasick = Leakdetect_text.Aho_corasick
module Sample = Leakdetect_util.Sample

type scored_token = { token : string; weight : float }
type t = { tokens : scored_token list; threshold : float }

let candidate_tokens ?(min_token_len = 3) clusters =
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun members ->
      Tokens.extract ~min_len:min_token_len (List.map Packet.content_string members))
    clusters
  |> List.filter (fun tok ->
         if Signature.is_boilerplate_token tok || Hashtbl.mem seen tok then false
         else begin
           Hashtbl.add seen tok ();
           true
         end)

type compiled = {
  sig_ : t;
  automaton : Aho_corasick.t option;
  weights : float array;
}

let compile sig_ =
  match sig_.tokens with
  | [] -> { sig_; automaton = None; weights = [||] }
  | tokens ->
    {
      sig_;
      automaton = Some (Aho_corasick.build (List.map (fun s -> s.token) tokens));
      weights = Array.of_list (List.map (fun s -> s.weight) tokens);
    }

let score c content =
  match c.automaton with
  | None -> 0.
  | Some automaton ->
    let matched = Aho_corasick.matched_set automaton content in
    let total = ref 0. in
    Array.iteri (fun i hit -> if hit then total := !total +. c.weights.(i)) matched;
    !total

let matches c packet = score c (Packet.content_string packet) >= c.sig_.threshold

let count_detected c packets =
  Array.fold_left (fun acc p -> if matches c p then acc + 1 else acc) 0 packets

let train ?(target_fp = 0.005) ~tokens ~suspicious ~benign () =
  let n_susp = Array.length suspicious and n_ben = Array.length benign in
  if n_susp = 0 || n_ben = 0 then
    invalid_arg "Bayes.train: empty training sample";
  let tokens = List.filter (fun t -> t <> "") tokens in
  let weighted =
    match tokens with
    | [] -> []
    | tokens ->
      let automaton = Aho_corasick.build tokens in
      let occurrences packets =
        let counts = Array.make (List.length tokens) 0 in
        Array.iter
          (fun p ->
            let m = Aho_corasick.matched_set automaton (Packet.content_string p) in
            Array.iteri (fun i hit -> if hit then counts.(i) <- counts.(i) + 1) m)
          packets;
        counts
      in
      let susp_counts = occurrences suspicious in
      let ben_counts = occurrences benign in
      List.mapi
        (fun i token ->
          (* Add-one smoothed log likelihood ratio. *)
          let p_susp =
            float_of_int (susp_counts.(i) + 1) /. float_of_int (n_susp + 2)
          in
          let p_ben = float_of_int (ben_counts.(i) + 1) /. float_of_int (n_ben + 2) in
          { token; weight = log (p_susp /. p_ben) })
        tokens
      |> List.filter (fun s -> s.weight > 0.)
  in
  (* Threshold: the lowest score flagging at most [target_fp] of the benign
     training sample.  Computed from the benign training scores. *)
  let provisional = compile { tokens = weighted; threshold = 0. } in
  let benign_scores =
    Array.map (fun p -> score provisional (Packet.content_string p)) benign
  in
  Array.sort (fun a b -> compare b a) benign_scores;
  let allowed = int_of_float (target_fp *. float_of_int n_ben) in
  let threshold =
    if Array.length benign_scores = 0 then epsilon_float
    else if allowed >= Array.length benign_scores then epsilon_float
    else benign_scores.(allowed) +. 1e-9
  in
  (* A threshold of 0 would flag token-free packets; keep it positive. *)
  let threshold = Float.max threshold 1e-9 in
  { tokens = weighted; threshold }

type outcome = { signature_ : t; n_tokens : int; metrics : Metrics.t }

let run ?(config = Pipeline_config.default) ?(target_fp = 0.005)
    ?(benign_train = 2000) ~rng ?n ~suspicious ~normal () =
  let n = Option.value n ~default:config.Pipeline_config.sample_n in
  Leakdetect_obs.Obs.with_span config.Pipeline_config.obs "bayes.run"
  @@ fun () ->
  let sample = Sample.without_replacement rng n suspicious in
  let n = Array.length sample in
  let dist = Pipeline_config.distance config in
  let gen = Siggen.generate ~config dist sample in
  let clusters =
    List.map
      (fun members -> List.map (fun i -> sample.(i)) members)
      gen.Siggen.clusters
  in
  let tokens =
    candidate_tokens
      ~min_token_len:config.Pipeline_config.siggen.Siggen.min_token_len clusters
  in
  let benign_sample = Sample.without_replacement rng benign_train normal in
  let trained = train ~target_fp ~tokens ~suspicious:sample ~benign:benign_sample () in
  let compiled = compile trained in
  let metrics =
    Metrics.compute
      {
        Metrics.n;
        sensitive_total = Array.length suspicious;
        sensitive_detected = count_detected compiled suspicious;
        normal_total = Array.length normal;
        normal_detected = count_detected compiled normal;
      }
  in
  { signature_ = trained; n_tokens = List.length trained.tokens; metrics }
