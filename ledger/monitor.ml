(* The handset's path (Fig. 3b of the paper), with evasion-robust matching
   on: raw HTTP/1.1 request bytes are parsed, projected onto the packet the
   signatures see, and checked against a signature set through the
   canonicalization lattice.

   The traffic is the whole generated trace plus one re-encoded copy of
   every leak, each copy made by one of the decodable mutators picked by a
   seeded PRNG: real leaks arrive re-encoded, and a benign packet or a
   re-encoded leak pays for the full lattice.  One operation is one
   packet, timed from bytes to verdict, in a closed loop; the detector,
   normalizer and scan scratch are built once in set-up, so everything is
   warm, and the lattice is never cached. *)

module Json = Leakdetect_util.Json
module Prng = Leakdetect_util.Prng
module Sample = Leakdetect_util.Sample
module Crc32 = Leakdetect_util.Crc32
module Packet = Leakdetect_http.Packet
module Trace = Leakdetect_http.Trace
module Request = Leakdetect_http.Request
module Headers = Leakdetect_http.Headers
module Wire = Leakdetect_http.Wire
module Generator = Leakdetect_android.Workload
module Pipeline = Leakdetect_core.Pipeline
module Config = Leakdetect_core.Pipeline_config
module Siggen = Leakdetect_core.Siggen
module Signature = Leakdetect_core.Signature
module Detector = Leakdetect_core.Detector
module Tokens = Leakdetect_text.Tokens
module Normalize = Leakdetect_normalize.Normalize
module Mutator = Leakdetect_adversary.Mutator
module Obs = Leakdetect_obs.Obs

type size = {
  scale : float;
  n : int;  (** Sample size the signature set is generated from. *)
  inputs : int;  (** Traces, each with its own signature set, per run. *)
}
type kind = Benign | Leak | Reencoded

type input = {
  raw : string array;  (** HTTP/1.1 request bytes, as the handset intercepts them. *)
  packets : Packet.t array;  (** What each request must parse back into. *)
  kinds : kind array;
  expected : bool array;  (** Oracle verdicts; only every 16th entry is set. *)
  detector : Detector.t;
  scratch : Detector.scratch;
  signatures : Signature.t list;
}

(* Print a packet as the request that produced it: the request line split
   back into method, target and version, plus Host and Cookie headers. *)
let request_of (p : Packet.t) =
  let c = p.Packet.content in
  let line = c.Packet.request_line in
  match (String.index_opt line ' ', String.rindex_opt line ' ') with
  | Some i, Some j when i < j -> (
    match Request.meth_of_string (String.sub line 0 i) with
    | None -> None
    | Some meth ->
      let target = String.sub line (i + 1) (j - i - 1) in
      let version = String.sub line (j + 1) (String.length line - j - 1) in
      let headers =
        Headers.of_list
          (("Host", p.Packet.dst.Packet.host)
          :: (if c.Packet.cookie = "" then [] else [ ("Cookie", c.Packet.cookie) ]))
      in
      Some (Request.make ~version ~headers ~body:c.Packet.body meth target))
  | _ -> None

let parse (p : Packet.t) raw =
  match Wire.parse raw with
  | Ok request -> Some (Packet.make ~dst:p.Packet.dst ~request)
  | Error _ -> None

(* A hit when some lattice text satisfies some signature's tokens: the
   semantics the detector's automaton and lattice must implement. *)
let oracle normalize signatures (p : Packet.t) =
  let texts = Normalize.texts normalize (Packet.content_string p) in
  List.exists
    (fun (s : Signature.t) ->
      let matches =
        match s.Signature.mode with
        | Signature.Conjunction -> Tokens.matches_all ~tokens:s.Signature.tokens
        | Signature.Ordered -> Tokens.matches_ordered ~tokens:s.Signature.tokens
      in
      List.exists matches texts)
    signatures

let decodable =
  Array.of_list (List.filter (fun m -> m.Mutator.class_ = Mutator.Decodable) Mutator.all)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let setup ~size ~seed =
  let ds = Generator.generate ~seed ~scale:size.scale () in
  let leaks, _ = Generator.split ds in
  let sample = Sample.without_replacement (Prng.create seed) size.n leaks in
  let config = Pipeline.Config.default in
  let signatures = (Siggen.generate ~config (Config.distance config) sample).Siggen.signatures in
  let rng = Prng.create (seed + 1) in
  let originals =
    Array.map
      (fun (r : Trace.record) -> (r.Trace.packet, if r.Trace.labels = [] then Benign else Leak))
      ds.Generator.records
  in
  let copies =
    Array.map
      (fun p ->
        let m = decodable.(Prng.int rng (Array.length decodable)) in
        (m.Mutator.apply rng p, Reencoded))
      leaks
  in
  let stream = Array.append originals copies in
  shuffle rng stream;
  let packets = Array.map fst stream in
  let raw =
    Array.map
      (fun p ->
        match request_of p with
        | Some r -> Wire.print r
        | None -> failwith ("unprintable request line: " ^ p.Packet.content.Packet.request_line))
      packets
  in
  Array.iteri
    (fun i p ->
      if parse p raw.(i) <> Some p then
        failwith (Printf.sprintf "packet %d does not survive Wire.print/Wire.parse" i))
    packets;
  let normalize = Normalize.create () in
  let expected =
    Array.mapi (fun i p -> i mod 16 = 0 && oracle normalize signatures p) packets
  in
  let detector = Detector.create signatures in
  { raw; packets; kinds = Array.map snd stream; expected; detector;
    scratch = Detector.scratch detector; signatures }

let run ~size (p : Outcome.params) =
  (* Several inputs per run, each its own trace and signature set, so that
     the run's medians average over traffic, not only over repetitions. *)
  let speed = p.Outcome.speed in
  let inputs, setup =
    Outcome.setup_inputs speed size.inputs (fun j -> setup ~size ~seed:((p.Outcome.seed * 64) + j))
  in
  let normalize = Normalize.create () in
  let obs_normalize = Normalize.create ~obs:(Obs.create ()) () in
  let trace_obs = if p.Outcome.traced then Obs.create () else Obs.noop in
  let tr = Outcome.trace () in
  let latencies = Speed.ops () and obs_latencies = Speed.ops () in
  let attempted = ref 0 and failed = ref 0 and passes = ref 0 in
  let verdicts = Array.map (fun input -> Bytes.make (Array.length input.packets) '0') inputs in
  let digests = Array.make (Array.length inputs) None and stable = ref true in
  let traced_inputs = ref [] in
  let pass obs input verdicts ~timed normalize =
    for i = 0 to Array.length input.packets - 1 do
      let packet, v =
        timed (fun () ->
            let packet =
              Obs.with_span obs "wire.parse" (fun () -> parse input.packets.(i) input.raw.(i))
            in
            ( packet,
              Obs.with_span obs "detector.scan" (fun () ->
                  match packet with
                  | Some pk ->
                    Detector.first_match_with ~normalize input.detector input.scratch pk <> None
                  | None -> false) ))
      in
      if not (packet = Some input.packets.(i) && (i mod 16 <> 0 || v = input.expected.(i))) then
        incr failed;
      Bytes.set verdicts i (if v then '1' else '0')
    done
  in
  (* An untraced run goes round the inputs; a traced run gives each input
     an untraced, a traced and an obs-active pass in turn; the obs-active
     pass gives the normalizer a live metrics registry.  Untraced, each
     packet is timed on its own, from bytes to verdict. *)
  Outcome.repeat p ~every:(if p.Outcome.traced then 3 else size.inputs)
    ~min_ops:(if p.Outcome.traced then 3 else 2 * size.inputs) (fun i ->
      let j = (if p.Outcome.traced then i / 3 else i) mod size.inputs in
      let input = inputs.(j) in
      attempted := !attempted + Array.length input.packets;
      incr passes;
      (match if p.Outcome.traced then i mod 3 else 0 with
      | 0 -> pass Obs.noop input verdicts.(j) normalize ~timed:(Speed.time speed latencies)
      | 1 ->
        traced_inputs := j :: !traced_inputs;
        pass trace_obs input verdicts.(j) normalize ~timed:(Obs.with_span trace_obs "op");
        Outcome.absorb tr trace_obs
      | _ -> pass Obs.noop input verdicts.(j) obs_normalize ~timed:(Speed.time speed obs_latencies));
      let d = Crc32.string (Bytes.to_string verdicts.(j)) in
      match digests.(j) with
      | None -> digests.(j) <- Some d
      | Some d' -> if d <> d' then stable := false);
  let heap_mb = Outcome.heap_peak_mb () in
  if not !stable then Printf.printf "verdicts differ between passes over one input\n%!";
  let covered = List.filter (fun j -> digests.(j) <> None) (List.init size.inputs Fun.id) in
  let count pred =
    List.fold_left
      (fun acc j ->
        let c = ref acc in
        Array.iteri
          (fun i k -> if pred k (Bytes.get verdicts.(j) i = '1') then incr c)
          inputs.(j).kinds;
        !c)
      0 covered
  in
  let leaks = count (fun k _ -> k <> Benign) and benign = count (fun k _ -> k = Benign) in
  let recall = Outcome.pct (float_of_int (count (fun k v -> k <> Benign && v))) (float_of_int leaks) in
  let fp = Outcome.pct (float_of_int (count (fun k v -> k = Benign && v))) (float_of_int benign) in
  List.iter
    (fun j ->
      let input = inputs.(j) in
      Printf.printf "input %d: %d packets (%d re-encoded leaks), %d signatures\n" j
        (Array.length input.packets)
        (Array.fold_left (fun acc k -> if k = Reencoded then acc + 1 else acc) 0 input.kinds)
        (List.length input.signatures))
    covered;
  Printf.printf "%d passes, %d packets: recall %.2f%%, fp %.2f%%, %d failed\n%!" !passes
    !attempted recall fp !failed;
  let metrics =
    if not p.Outcome.traced then Outcome.end_to_end_metrics ~speed ~setup ~heap_mb latencies
    else begin
      (* References, outside the stage sum, on the traced inputs' parsed
         packets: the raw scan alone, the scan with the lattice, and the
         lattice alone on the packets whose raw scan missed. *)
      let traced = List.sort_uniq compare !traced_inputs in
      let raw_s = ref 0. and scan_s = ref 0. and alloc = ref 0. and packets = ref 0 in
      let lattice_built = ref 0 and useful = ref 0 and views = ref 0 in
      List.iter
        (fun j ->
          let input = inputs.(j) in
          let sc = input.scratch and det = input.detector in
          packets := !packets + Array.length input.packets;
          let missed = Array.map (fun pk -> Detector.first_match_with det sc pk = None) input.packets in
          raw_s :=
            !raw_s
            +. snd
                 (Harness.time (fun () ->
                      Array.iter (fun pk -> ignore (Detector.first_match_with det sc pk)) input.packets));
          let a0 = Gc.allocated_bytes () in
          scan_s :=
            !scan_s
            +. snd
                 (Harness.time (fun () ->
                      Array.iter
                        (fun pk -> ignore (Detector.first_match_with ~normalize det sc pk))
                        input.packets));
          alloc := !alloc +. (Gc.allocated_bytes () -. a0);
          Array.iteri
            (fun i pk ->
              if missed.(i) then begin
                incr lattice_built;
                let l = Normalize.lattice normalize (Packet.content_string pk) in
                views := !views + List.length l.Normalize.derived;
                if Bytes.get verdicts.(j) i = '1' then incr useful
              end)
            input.packets)
        traced;
      let built = float_of_int !lattice_built in
      Outcome.trace_metrics tr ~untraced_s:(Outcome.mean (Speed.raw latencies))
        ~stages:[ ("http.wire.parse_pct", [ "wire.parse" ]); ("core.detector.scan_pct", [ "detector.scan" ]) ]
      @ [ ( "obs.overhead_pct",
            Outcome.overhead_pct ~base:(Harness.median (Speed.raw latencies))
              (Harness.median (Speed.raw obs_latencies)) ) ]
      @ [ ("core.detector.recall_pct", recall); ("core.detector.fp_pct", fp);
          ("core.detector.alloc_bytes_per_pkt", !alloc /. float_of_int !packets);
          ("core.detector.normalize_overhead_pct", Outcome.overhead_pct ~base:!raw_s !scan_s);
          ("normalize.lattice_rate_pct", Outcome.pct built (float_of_int !packets));
          ("normalize.useful_pct", Outcome.pct (float_of_int !useful) built);
          ("normalize.views_per_pkt", if built > 0. then float_of_int !views /. built else 0.) ]
    end
  in
  { Outcome.correct = !failed = 0 && !stable;
    attempted = !attempted; failed = !failed; metrics;
    digest = Option.get digests.(0);
    notes =
      [ ("scale", Json.Float size.scale); ("n", Json.Int size.n);
        ("inputs", Json.Int (List.length covered)); ("passes", Json.Int !passes);
        ("latency_samples", Json.Int (Speed.count latencies));
        ("obs_active_samples", Json.Int (Speed.count obs_latencies)) ] }
