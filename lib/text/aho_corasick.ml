(* Aho-Corasick over byte classes with one flat transition table.

   A 256-entry class map sends every byte that occurs in some pattern to its
   own class (1, 2, ... in byte order) and every other byte to class 0, so a
   row of the goto function holds [n_classes] entries instead of 256.  All
   rows live in one [int array] and an entry is the target state's row
   offset ([state * n_classes]), so the next lookup is one add away.  States
   that report matches are numbered last: the scan loop is one class load,
   one table load and one comparison per byte, and the output table is
   consulted only past [first_reporting].

   A caseless automaton differs only in its class map: ['A'..'Z'] take the
   classes of ['a'..'z'], so scanning [s] walks exactly the states the exact
   automaton walks on [String.lowercase_ascii s]. *)

type t = {
  classes : int array;  (* byte -> class, 256 entries *)
  n_classes : int;
  delta : int array;  (* row offset + class -> target row offset *)
  first_reporting : int;  (* rows at or past this offset report matches *)
  out_start : int array;  (* reporting state k -> first index in [out_ids] *)
  out_ids : int array;  (* pattern ids reported at each state, in report order *)
  n_patterns : int;
}

(* The sparse trie the flat table is built from: one node per pattern
   prefix, edges as class-keyed association lists. *)
type trie_node = { mutable edges : (int * int) list; mutable own : int list }

let class_map ~caseless patterns =
  let present = Array.make 256 false in
  List.iter (String.iter (fun c -> present.(Char.code c) <- true)) patterns;
  let classes = Array.make 256 0 and n = ref 1 in
  for b = 0 to 255 do
    if present.(b) then begin
      classes.(b) <- !n;
      incr n
    end
  done;
  (* Pattern bytes are interned before folding, so an upper-case pattern
     byte keeps a class no text byte reaches — it can never match, exactly
     as it never occurs in lower-cased text. *)
  let text_classes = Array.copy classes in
  if caseless then
    for b = Char.code 'A' to Char.code 'Z' do
      text_classes.(b) <- classes.(b + 32)
    done;
  (classes, text_classes, !n)

let build_trie classes patterns =
  let nodes = ref [| { edges = []; own = [] } |] and n_nodes = ref 1 in
  let add_node () =
    if !n_nodes = Array.length !nodes then begin
      let grown = Array.make (2 * !n_nodes) { edges = []; own = [] } in
      Array.blit !nodes 0 grown 0 !n_nodes;
      nodes := grown
    end;
    !nodes.(!n_nodes) <- { edges = []; own = [] };
    incr n_nodes;
    !n_nodes - 1
  in
  List.iteri
    (fun id pattern ->
      let state = ref 0 in
      String.iter
        (fun c ->
          let cls = classes.(Char.code c) in
          let node = !nodes.(!state) in
          match List.assoc_opt cls node.edges with
          | Some next -> state := next
          | None ->
            let next = add_node () in
            node.edges <- (cls, next) :: node.edges;
            state := next)
        pattern;
      let final = !nodes.(!state) in
      final.own <- id :: final.own)
    patterns;
  (!nodes, !n_nodes)

let build ?(caseless = false) patterns =
  List.iter (fun p -> if p = "" then invalid_arg "Aho_corasick.build: empty pattern") patterns;
  let classes, text_classes, nc = class_map ~caseless patterns in
  let nodes, n_states = build_trie classes patterns in
  (* Failure links and outputs on the sparse trie, breadth-first: a state's
     failure target is strictly shallower, so its links and outputs are
     final before the state itself is reached. *)
  let goto s cls = List.assoc_opt cls nodes.(s).edges in
  let fail = Array.make n_states 0 and outputs = Array.make n_states [] in
  let bfs = Array.make n_states 0 and head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let s = bfs.(!head) in
    incr head;
    outputs.(s) <- nodes.(s).own @ outputs.(fail.(s));
    List.iter
      (fun (cls, child) ->
        let rec chase f =
          match goto f cls with Some g -> g | None -> if f = 0 then 0 else chase fail.(f)
        in
        if s <> 0 then fail.(child) <- chase fail.(s);
        bfs.(!tail) <- child;
        incr tail)
      nodes.(s).edges
  done;
  (* States that report nothing are numbered first (the root is 0), so a
     transition into a reporting state is one comparison in the scan. *)
  let n_plain = Array.fold_left (fun n o -> if o = [] then n + 1 else n) 0 outputs in
  let id = Array.make n_states 0 and plain = ref 0 and reporting = ref n_plain in
  Array.iter
    (fun s ->
      let next = if outputs.(s) = [] then plain else reporting in
      id.(s) <- !next;
      incr next)
    bfs;
  (* The flat table is filled in place in BFS order: a row starts as a copy
     of its failure state's (already complete) row and then takes the
     trie's own edges, so no dense per-node rows ever exist. *)
  let delta = Array.make (n_states * nc) 0 in
  Array.iter
    (fun s ->
      let row = id.(s) * nc in
      if s <> 0 then Array.blit delta (id.(fail.(s)) * nc) delta row nc;
      List.iter (fun (cls, child) -> delta.(row + cls) <- id.(child) * nc) nodes.(s).edges)
    bfs;
  let n_reporting = n_states - n_plain in
  let out_start = Array.make (n_reporting + 1) 0 in
  let by_id = Array.make n_reporting [] in
  Array.iteri (fun s o -> if o <> [] then by_id.(id.(s) - n_plain) <- o) outputs;
  Array.iteri (fun k o -> out_start.(k + 1) <- out_start.(k) + List.length o) by_id;
  let out_ids = Array.make out_start.(n_reporting) 0 in
  Array.iteri (fun k o -> List.iteri (fun i pid -> out_ids.(out_start.(k) + i) <- pid) o) by_id;
  { classes = text_classes; n_classes = nc; delta; first_reporting = n_plain * nc;
    out_start; out_ids; n_patterns = List.length patterns }

let pattern_count t = t.n_patterns

let check_slice name text off len =
  if off < 0 || len < 0 || off > String.length text - len then
    invalid_arg (name ^ ": slice out of bounds")

let mark t row seen =
  let k = (row - t.first_reporting) / t.n_classes in
  for i = t.out_start.(k) to t.out_start.(k + 1) - 1 do
    Array.unsafe_set seen (Array.unsafe_get t.out_ids i) true
  done

(* The scanning loop everything else is built on: runs the automaton from
   row [row0] over [len] bytes of [text] starting at [off], recording the
   ids of the patterns that occur into [seen], and returns the row reached
   — exactly the state a later fragment resumes from.  The goto function is
   total, so there is no failure chasing in here; the loop is the per-packet
   hot path of the detector and the payload check, kept closure-free. *)
let scan_seen t row0 ~off ~len text seen =
  let delta = t.delta and classes = t.classes and first = t.first_reporting in
  let row = ref row0 in
  for k = off to off + len - 1 do
    let next =
      Array.unsafe_get delta
        (!row + Array.unsafe_get classes (Char.code (String.unsafe_get text k)))
    in
    row := next;
    if next >= first then mark t next seen
  done;
  !row

let matched_set_into t seen text =
  if Array.length seen <> t.n_patterns then
    invalid_arg "Aho_corasick.matched_set_into: buffer size mismatch";
  Array.fill seen 0 (Array.length seen) false;
  ignore (scan_seen t 0 ~off:0 ~len:(String.length text) text seen)

module Stream = struct
  type state = { mutable row : int }

  let create () = { row = 0 }
  let reset st = st.row <- 0

  (* Two automata over the same bytes.  Each step's lookup depends on the
     previous step of its own automaton only, so interleaving the two walks
     overlaps their load latencies instead of paying them back to back. *)
  let scan_seen_pair a sa seen_a b sb seen_b ~off ~len text =
    let delta_a = a.delta and classes_a = a.classes and first_a = a.first_reporting in
    let delta_b = b.delta and classes_b = b.classes and first_b = b.first_reporting in
    let row_a = ref sa.row and row_b = ref sb.row in
    for k = off to off + len - 1 do
      let c = Char.code (String.unsafe_get text k) in
      let next_a = Array.unsafe_get delta_a (!row_a + Array.unsafe_get classes_a c) in
      let next_b = Array.unsafe_get delta_b (!row_b + Array.unsafe_get classes_b c) in
      row_a := next_a;
      row_b := next_b;
      if next_a >= first_a then mark a next_a seen_a;
      if next_b >= first_b then mark b next_b seen_b
    done;
    sa.row <- !row_a;
    sb.row <- !row_b

  (* Defaults resolved inline (not via a slice-returning helper) so the
     per-fragment hot path allocates no tuple. *)
  let feed_into t st seen ?off ?len text =
    if Array.length seen <> t.n_patterns then
      invalid_arg "Aho_corasick.Stream.feed_into: buffer size mismatch";
    let off = match off with None -> 0 | Some o -> o in
    let len = match len with None -> String.length text - off | Some l -> l in
    check_slice "Aho_corasick.Stream.feed_into" text off len;
    st.row <- scan_seen t st.row ~off ~len text seen

  let feed_pair_into a sa seen_a b sb seen_b ?off ?len text =
    if Array.length seen_a <> a.n_patterns || Array.length seen_b <> b.n_patterns then
      invalid_arg "Aho_corasick.Stream.feed_pair_into: buffer size mismatch";
    let off = match off with None -> 0 | Some o -> o in
    let len = match len with None -> String.length text - off | Some l -> l in
    check_slice "Aho_corasick.Stream.feed_pair_into" text off len;
    scan_seen_pair a sa seen_a b sb seen_b ~off ~len text
end

let matched_set t text =
  let seen = Array.make t.n_patterns false in
  ignore (scan_seen t 0 ~off:0 ~len:(String.length text) text seen);
  seen
