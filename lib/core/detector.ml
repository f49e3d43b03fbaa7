module Packet = Leakdetect_http.Packet
module Wire = Leakdetect_http.Wire
module Aho_corasick = Leakdetect_text.Aho_corasick
module Normalize = Leakdetect_normalize.Normalize

(* One automaton over the distinct tokens of every signature: detection is
   a single pass per packet followed by per-signature set membership.
   Ordered signatures use the set test as a prefilter, then verify order
   with the compiled KMP matcher.

   The pass itself never materializes the packet's flattened content: the
   three fields are fed through the resumable matcher with the canonical
   ['\n'] separators in between, which scans the exact byte sequence of
   [Packet.content_string] without building it.  The string is only forced
   — lazily — when an ordered signature passes the set prefilter or the
   canonicalization lattice needs something to decode. *)

type entry = {
  signature : Signature.t;
  compiled : Signature.compiled;
  token_ids : int array;  (* indices into the automaton's pattern list *)
  ordered : bool;
}

type t = {
  entries : entry array;
  leads : int array;  (* entry i's first token id, -1 for a token-less entry *)
  automaton : Aho_corasick.t option;  (* None when there are no signatures *)
}

type detector = t

let create signatures =
  let token_index = Hashtbl.create 64 in
  let patterns = ref [] and n_patterns = ref 0 in
  let intern token =
    match Hashtbl.find_opt token_index token with
    | Some id -> id
    | None ->
      let id = !n_patterns in
      Hashtbl.add token_index token id;
      patterns := token :: !patterns;
      incr n_patterns;
      id
  in
  let entries =
    List.map
      (fun s ->
        {
          signature = s;
          compiled = Signature.compile s;
          token_ids = Array.of_list (List.map intern s.Signature.tokens);
          ordered = (s.Signature.mode = Signature.Ordered);
        })
      signatures
    |> Array.of_list
  in
  let automaton =
    if !n_patterns = 0 then None
    else Some (Aho_corasick.build (List.rev !patterns))
  in
  let leads =
    Array.map (fun e -> if e.token_ids = [||] then -1 else e.token_ids.(0)) entries
  in
  { entries; leads; automaton }

let signature_count t = Array.length t.entries

(* Closure-free token-set test: this runs once per entry per packet, so a
   per-call [Array.for_all] closure would dominate the scan's allocation. *)
let rec tokens_matched ids matched i n =
  i = n
  || (Array.unsafe_get matched (Array.unsafe_get ids i)
     && tokens_matched ids matched (i + 1) n)

(* [content] is forced only for ordered signatures whose token set already
   matched — the conjunction fast path never builds the string. *)
let entry_matches entry matched content =
  tokens_matched entry.token_ids matched 0 (Array.length entry.token_ids)
  && ((not entry.ordered) || Signature.matches_content entry.compiled (Lazy.force content))

(* Both lookup flavours run the automaton once over the content and then
   test entries against the matched set; [matched] may be a reused
   per-domain scratch buffer. *)
let first_entry t matched content =
  let leads = t.leads in
  let n = Array.length leads in
  let rec loop i =
    if i = n then None
    else
      (* Most entries fail on their first token; testing it from the flat
         [leads] array keeps those rejections to two loads. *)
      let lead = Array.unsafe_get leads i in
      if lead >= 0 && not (Array.unsafe_get matched lead) then loop (i + 1)
      else if entry_matches t.entries.(i) matched content then Some t.entries.(i).signature
      else loop (i + 1)
  in
  loop 0

(* --- reusable scan scratch ----------------------------------------------- *)

type scratch = {
  seen : bool array;  (* matched-token set, length = automaton pattern count *)
  mstate : Aho_corasick.Stream.state;
}

let scratch t =
  let n =
    match t.automaton with None -> 0 | Some a -> Aho_corasick.pattern_count a
  in
  { seen = Array.make n false; mstate = Aho_corasick.Stream.create () }

let sep = "\n"

(* Zero-copy scan of the packet's canonical content: feeding the three
   fields with the ['\n'] separators walks the automaton over the exact
   bytes of [Packet.content_string] without concatenating them. *)
let scan_packet_into automaton sc (p : Packet.t) =
  Array.fill sc.seen 0 (Array.length sc.seen) false;
  let st = sc.mstate in
  Aho_corasick.Stream.reset st;
  let c = p.Packet.content in
  Aho_corasick.Stream.feed_into automaton st sc.seen c.Packet.request_line;
  Aho_corasick.Stream.feed_into automaton st sc.seen sep;
  Aho_corasick.Stream.feed_into automaton st sc.seen c.Packet.cookie;
  Aho_corasick.Stream.feed_into automaton st sc.seen sep;
  Aho_corasick.Stream.feed_into automaton st sc.seen c.Packet.body

(* With a normalizer, the same shared automaton runs once per derived view;
   the raw content is always scanned first so legacy matches keep their
   attribution and the normalize-off path stays zero-copy. *)
let first_match_with ?normalize t sc packet =
  match t.automaton with
  | None -> None
  | Some automaton -> (
    scan_packet_into automaton sc packet;
    let content = lazy (Packet.content_string packet) in
    match first_entry t sc.seen content with
    | Some s -> Some (s, [])
    | None -> (
      match normalize with
      | None -> None
      | Some nz ->
        List.find_map
          (fun (v : Normalize.view) ->
            Aho_corasick.matched_set_into automaton sc.seen v.Normalize.text;
            Option.map
              (fun s -> (s, v.Normalize.steps))
              (first_entry t sc.seen (Lazy.from_val v.Normalize.text)))
          (Normalize.lattice nz (Lazy.force content)).Normalize.derived))

let detects_with ?normalize t sc packet =
  Option.is_some (first_match_with ?normalize t sc packet)

let first_match_normalized ?normalize t packet =
  match t.automaton with
  | None -> None
  | Some _ -> first_match_with ?normalize t (scratch t) packet

let first_match ?normalize t packet =
  Option.map fst (first_match_normalized ?normalize t packet)

let detects ?normalize t packet = Option.is_some (first_match ?normalize t packet)

module Pool = Leakdetect_parallel.Pool
module Obs = Leakdetect_obs.Obs

let record_scan obs ~packets ~hits ~elapsed_ns =
  if not (Obs.is_noop obs) then begin
    Obs.Counter.add
      (Obs.counter obs ~help:"Packets scanned by whole-trace detection."
         "leakdetect_detection_packets_total")
      packets;
    Obs.Counter.add
      (Obs.counter obs ~help:"Packets matching at least one signature."
         "leakdetect_detection_hits_total")
      hits;
    Obs.Histogram.observe
      (Obs.histogram obs ~help:"Whole-trace detection scan latency."
         ~buckets:Obs.duration_buckets "leakdetect_detection_seconds")
      (float_of_int elapsed_ns /. 1e9)
  end

let detect_bitmap_raw ?pool ?normalize t packets =
  match t.automaton with
  | None -> Array.make (Array.length packets) false
  | Some _ ->
    let out = Array.make (Array.length packets) false in
    (* The automaton, compiled matchers and normalizer are immutable after
       creation; each domain brings its own scratch, so the only shared
       writes are to index-owned slots of [out]. *)
    Pool.parallel_for_with ~pool
      ~init:(fun () -> scratch t)
      (Array.length packets)
      (fun sc i -> out.(i) <- detects_with ?normalize t sc packets.(i));
    out

let count_bitmap bitmap =
  Array.fold_left (fun acc hit -> if hit then acc + 1 else acc) 0 bitmap

let detect_bitmap ?pool ?(obs = Obs.noop) ?normalize t packets =
  if Obs.is_noop obs then detect_bitmap_raw ?pool ?normalize t packets
  else
    Obs.with_span obs "detector.scan" @@ fun () ->
    let t0 = Obs.Clock.now_ns () in
    let bitmap = detect_bitmap_raw ?pool ?normalize t packets in
    record_scan obs ~packets:(Array.length packets) ~hits:(count_bitmap bitmap)
      ~elapsed_ns:(Obs.Clock.now_ns () - t0);
    bitmap

let count_detected ?pool ?(obs = Obs.noop) ?normalize t packets =
  match (pool, Obs.is_noop obs) with
  | None, true ->
    (* One scratch for the whole trace: the sequential path reuses the
       shared automaton and matched-set buffer exactly like each parallel
       domain does, instead of allocating both per packet. *)
    let sc = scratch t in
    Array.fold_left
      (fun acc p -> if detects_with ?normalize t sc p then acc + 1 else acc)
      0 packets
  | None, false ->
    Obs.with_span obs "detector.scan" @@ fun () ->
    let t0 = Obs.Clock.now_ns () in
    let sc = scratch t in
    let hits =
      Array.fold_left
        (fun acc p -> if detects_with ?normalize t sc p then acc + 1 else acc)
        0 packets
    in
    record_scan obs ~packets:(Array.length packets) ~hits
      ~elapsed_ns:(Obs.Clock.now_ns () - t0);
    hits
  | Some _, _ -> count_bitmap (detect_bitmap ?pool ~obs ?normalize t packets)

(* --- streaming engine ----------------------------------------------------- *)

module Stream = struct
  type stats = { packets : int; bytes : int; hits : int }

  type t = {
    det : detector;
    pool : Pool.t option;
    normalize : Normalize.t option;
    (* Per-flow verification needs the whole content only when an ordered
       signature must check token order or the lattice must decode it. *)
    keep_content : bool;
    n_packets : int Atomic.t;
    n_bytes : int Atomic.t;
    n_hits : int Atomic.t;
  }

  let create ?pool ?normalize det =
    {
      det;
      pool;
      normalize;
      keep_content =
        normalize <> None || Array.exists (fun e -> e.ordered) det.entries;
      n_packets = Atomic.make 0;
      n_bytes = Atomic.make 0;
      n_hits = Atomic.make 0;
    }

  let stats t =
    {
      packets = Atomic.get t.n_packets;
      bytes = Atomic.get t.n_bytes;
      hits = Atomic.get t.n_hits;
    }

  type flow = {
    stream : t;
    sc : scratch;
    buf : Buffer.t;  (* fed bytes, kept only when [keep_content] *)
  }

  let open_flow stream =
    { stream; sc = scratch stream.det; buf = Buffer.create 64 }

  let reset_flow flow =
    Array.fill flow.sc.seen 0 (Array.length flow.sc.seen) false;
    Aho_corasick.Stream.reset flow.sc.mstate;
    Buffer.clear flow.buf

  let feed flow ?off ?len fragment =
    (match flow.stream.det.automaton with
    | None -> ()
    | Some automaton ->
      Aho_corasick.Stream.feed_into automaton flow.sc.mstate flow.sc.seen ?off ?len
        fragment);
    if flow.stream.keep_content then begin
      let off = Option.value off ~default:0 in
      let len = Option.value len ~default:(String.length fragment - off) in
      Buffer.add_substring flow.buf fragment off len
    end

  let feed_chunked flow ?limits raw =
    Wire.chunked_fragments ?limits raw (fun raw ~pos ~len ->
        feed flow ~off:pos ~len raw)

  let close flow =
    let stream = flow.stream in
    let result =
      match stream.det.automaton with
      | None -> None
      | Some automaton -> (
        let content = lazy (Buffer.contents flow.buf) in
        match first_entry stream.det flow.sc.seen content with
        | Some _ as hit -> hit
        | None -> (
          match stream.normalize with
          | None -> None
          | Some nz ->
            List.find_map
              (fun (v : Normalize.view) ->
                Aho_corasick.matched_set_into automaton flow.sc.seen v.Normalize.text;
                first_entry stream.det flow.sc.seen (Lazy.from_val v.Normalize.text))
              (Normalize.lattice nz (Lazy.force content)).Normalize.derived))
    in
    Atomic.incr stream.n_packets;
    ignore
      (Atomic.fetch_and_add stream.n_bytes
         (Aho_corasick.Stream.consumed flow.sc.mstate));
    if Option.is_some result then Atomic.incr stream.n_hits;
    reset_flow flow;
    result

  let content_bytes (p : Packet.t) =
    let c = p.Packet.content in
    String.length c.Packet.request_line + String.length c.Packet.cookie
    + String.length c.Packet.body + 2

  let detect_batch stream packets =
    let bitmap =
      detect_bitmap_raw ?pool:stream.pool ?normalize:stream.normalize stream.det
        packets
    in
    let bytes = ref 0 in
    Array.iter (fun p -> bytes := !bytes + content_bytes p) packets;
    ignore (Atomic.fetch_and_add stream.n_packets (Array.length packets));
    ignore (Atomic.fetch_and_add stream.n_bytes !bytes);
    ignore (Atomic.fetch_and_add stream.n_hits (count_bitmap bitmap));
    bitmap
end
