module Packet = Leakdetect_http.Packet
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

(* The automaton has run once over the content; test entries against the
   matched set in list order.  [matched] is a reused scratch buffer. *)
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

(* With a normalizer, the same shared automaton runs over each derived view
   as the lattice walk derives it, and the walk stops at the first view that
   matches; the raw content is always scanned first so legacy matches keep
   their attribution and the normalize-off path stays zero-copy. *)
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
        Normalize.find_view nz (Lazy.force content) (fun (v : Normalize.view) ->
            Aho_corasick.matched_set_into automaton sc.seen v.Normalize.text;
            Option.map
              (fun s -> (s, v.Normalize.steps))
              (first_entry t sc.seen (Lazy.from_val v.Normalize.text)))))

module Pool = Leakdetect_parallel.Pool
module Obs = Leakdetect_obs.Obs

let count_hits matches =
  Array.fold_left (fun acc m -> if Option.is_some m then acc + 1 else acc) 0 matches

let scan_all ?pool ?normalize t packets =
  let out = Array.make (Array.length packets) None in
  (* The automaton, compiled matchers and normalizer are immutable after
     creation; each domain brings its own scratch, so the only shared
     writes are to index-owned slots of [out]. *)
  Pool.parallel_for_with ~pool
    ~init:(fun () -> scratch t)
    (Array.length packets)
    (fun sc i -> out.(i) <- first_match_with ?normalize t sc packets.(i));
  out

let first_matches ?pool ?(obs = Obs.noop) ?normalize t packets =
  if Obs.is_noop obs then scan_all ?pool ?normalize t packets
  else
    Obs.with_span obs "detector.scan" @@ fun () ->
    let t0 = Obs.Clock.now_ns () in
    let matches = scan_all ?pool ?normalize t packets in
    Obs.Counter.add
      (Obs.counter obs ~help:"Packets scanned by whole-trace detection."
         "leakdetect_detection_packets_total")
      (Array.length packets);
    Obs.Counter.add
      (Obs.counter obs ~help:"Packets matching at least one signature."
         "leakdetect_detection_hits_total")
      (count_hits matches);
    Obs.Histogram.observe
      (Obs.histogram obs ~help:"Whole-trace detection scan latency."
         ~buckets:Obs.duration_buckets "leakdetect_detection_seconds")
      (float_of_int (Obs.Clock.now_ns () - t0) /. 1e9);
    matches

let detect_bitmap ?pool ?obs ?normalize t packets =
  Array.map Option.is_some (first_matches ?pool ?obs ?normalize t packets)

let count_detected ?pool ?obs ?normalize t packets =
  count_hits (first_matches ?pool ?obs ?normalize t packets)
