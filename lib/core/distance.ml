module Ipv4 = Leakdetect_net.Ipv4
module Domain = Leakdetect_net.Domain
module Packet = Leakdetect_http.Packet
module Compressor = Leakdetect_compress.Compressor
module Trigram = Leakdetect_text.Trigram

type components = {
  use_ip : bool;
  use_port : bool;
  use_host : bool;
  use_rline : bool;
  use_cookie : bool;
  use_body : bool;
}

let all_components =
  { use_ip = true; use_port = true; use_host = true;
    use_rline = true; use_cookie = true; use_body = true }

let destination_only =
  { all_components with use_rline = false; use_cookie = false; use_body = false }

let content_only =
  { all_components with use_ip = false; use_port = false; use_host = false }

type content_metric = Ncd | Trigram

type t = {
  comps : components;
  cache : Compressor.Cache.t;
  trigram_cache : Trigram.Cache.t;
  metric : content_metric;
  registry : Leakdetect_net.Registry.t option;
}

let create ?(components = all_components) ?(compressor = Compressor.Lz77)
    ?(content_metric = Ncd) ?registry () =
  {
    comps = components;
    cache = Compressor.Cache.create compressor;
    trigram_cache = Trigram.Cache.create ();
    metric = content_metric;
    registry;
  }

let components t = t.comps
let registry t = t.registry

let d_ip a b = 1. -. Ipv4.similarity a b

let d_ip_registry registry a b =
  match Leakdetect_net.Registry.same_organization registry a b with
  | Some true -> 0.
  | Some false -> 1.
  | None -> d_ip a b
let d_port a b = if a = b then 0. else 1.
let d_host a b = Domain.normalized_edit_distance a b

let ip_distance t a b =
  match t.registry with
  | Some registry -> d_ip_registry registry a b
  | None -> d_ip a b

let d_dst t (px : Packet.t) (py : Packet.t) =
  let dx = px.dst and dy = py.dst in
  let acc = ref 0. in
  if t.comps.use_ip then acc := !acc +. ip_distance t dx.Packet.ip dy.Packet.ip;
  if t.comps.use_port then acc := !acc +. d_port dx.Packet.port dy.Packet.port;
  if t.comps.use_host then acc := !acc +. d_host dx.Packet.host dy.Packet.host;
  !acc

let ncd t x y = Compressor.Cache.ncd t.cache x y

let content_distance t x y =
  match t.metric with
  | Ncd -> ncd t x y
  | Trigram -> Trigram.Cache.distance t.trigram_cache x y

let d_header t (px : Packet.t) (py : Packet.t) =
  let cx = px.content and cy = py.content in
  let acc = ref 0. in
  if t.comps.use_rline then
    acc := !acc +. content_distance t cx.Packet.request_line cy.Packet.request_line;
  if t.comps.use_cookie then
    acc := !acc +. content_distance t cx.Packet.cookie cy.Packet.cookie;
  if t.comps.use_body then acc := !acc +. content_distance t cx.Packet.body cy.Packet.body;
  !acc

let d_pkt t px py = d_dst t px py +. d_header t px py

module Pool = Leakdetect_parallel.Pool
module Obs = Leakdetect_obs.Obs
module Dist_matrix = Leakdetect_cluster.Dist_matrix
module Int_tbl = Hashtbl.Make (Int)

(* --- the interned sample view ---------------------------------------------

   A sample has few distinct hosts and field strings, so a matrix build
   interns them once: packets carry int ids, per-string quantities are
   computed once per id, and recurring per-pair results go through bounded
   per-domain memos.  Ids follow [String.compare] order, so id order is the
   string-level NCD's canonical pair order. *)

(* Bound on each per-domain memo, as on the string-level pair cache: a
   sketch build interns up to 50k packets, so no dense id×id table. *)
let memo_capacity = 16384

type view = {
  ctx : t;
  packets : Packet.t array;
  hosts : string array;  (* distinct lowercased hosts, by id *)
  host_ids : int array;  (* per packet *)
  contents : string array;  (* distinct strings of the enabled content fields *)
  fields : int array array;  (* per enabled field, in d_header order: ids per packet *)
  lens : int array;  (* C(s) per content id, under [Ncd] *)
  profiles : Trigram.profile array;  (* per content id, under [Trigram] *)
}

type scratch = {
  view : view;
  host_memo : float Int_tbl.t;
  concat_memo : int Int_tbl.t;
  mutable host_distances : int;
  mutable concats : int;
}

type view_stats = {
  strings : int;
  hosts : int;
  host_distances : int;
  concats : int;
}

(* Distinct values of [fields] over [packets] in [String.compare] order,
   and each field's per-packet ids into them. *)
let intern fields packets =
  let ids = Hashtbl.create 256 in
  Array.iter (fun f -> Array.iter (fun p -> Hashtbl.replace ids (f p) 0) packets) fields;
  let distinct = Array.of_seq (Hashtbl.to_seq_keys ids) in
  Array.sort String.compare distinct;
  Array.iteri (fun id s -> Hashtbl.replace ids s id) distinct;
  (distinct, Array.map (fun f -> Array.map (fun p -> Hashtbl.find ids (f p)) packets) fields)

let create_view ?pool t packets =
  let c = t.comps in
  (* d_host compares lowercased hosts, so hosts differing only in case
     share an id. *)
  let hosts, host_ids =
    if not c.use_host then ([||], [||])
    else
      let hosts, ids =
        intern [| (fun (p : Packet.t) -> String.lowercase_ascii p.dst.Packet.host) |] packets
      in
      (hosts, ids.(0))
  in
  let field on get = if on then [ (fun (p : Packet.t) -> get p.Packet.content) ] else [] in
  let contents, fields =
    intern
      (Array.of_list
         (field c.use_rline (fun x -> x.Packet.request_line)
         @ field c.use_cookie (fun x -> x.Packet.cookie)
         @ field c.use_body (fun x -> x.Packet.body)))
      packets
  in
  let lens, profiles =
    match t.metric with
    | Ncd ->
      (Pool.parallel_map_array ~pool
         (Compressor.length_bits (Compressor.Cache.algorithm t.cache)) contents, [||])
    | Trigram -> ([||], Pool.parallel_map_array ~pool Trigram.profile contents)
  in
  { ctx = t; packets; hosts; host_ids; contents; fields; lens; profiles }

let scratch view =
  { view; host_memo = Int_tbl.create 256; concat_memo = Int_tbl.create 1024;
    host_distances = 0; concats = 0 }

let remember tbl key v = if Int_tbl.length tbl < memo_capacity then Int_tbl.add tbl key v

(* d_host over host ids; d_host is symmetric and 0 on equal hosts. *)
let host_distance s a b =
  if a = b then 0.
  else begin
    let v = s.view in
    let lo = Int.min a b and hi = Int.max a b in
    let key = (lo * Array.length v.hosts) + hi in
    match Int_tbl.find_opt s.host_memo key with
    | Some d -> d
    | None ->
      s.host_distances <- s.host_distances + 1;
      let d = d_host v.hosts.(lo) v.hosts.(hi) in
      remember s.host_memo key d;
      d
  end

(* [Compressor.Cache.ncd] over content ids: id order is the canonical
   concatenation order. *)
let ncd_ids s a b =
  let v = s.view in
  if a = b && String.length v.contents.(a) = 0 then 0.
  else begin
    let lo = Int.min a b and hi = Int.max a b in
    let key = (lo * Array.length v.contents) + hi in
    let cxy =
      match Int_tbl.find_opt s.concat_memo key with
      | Some c -> c
      | None ->
        s.concats <- s.concats + 1;
        let c =
          Compressor.concat_length_bits (Compressor.Cache.algorithm v.ctx.cache)
            v.contents.(lo) v.contents.(hi)
        in
        remember s.concat_memo key c;
        c
    in
    Compressor.ncd_of_lengths ~cx:v.lens.(a) ~cy:v.lens.(b) ~cxy
  end

let pair s i j =
  let v = s.view in
  let c = v.ctx.comps in
  let dx = v.packets.(i).Packet.dst and dy = v.packets.(j).Packet.dst in
  let dst = ref 0. in
  if c.use_ip then dst := !dst +. ip_distance v.ctx dx.Packet.ip dy.Packet.ip;
  if c.use_port then dst := !dst +. d_port dx.Packet.port dy.Packet.port;
  if c.use_host then dst := !dst +. host_distance s v.host_ids.(i) v.host_ids.(j);
  let header = ref 0. in
  for f = 0 to Array.length v.fields - 1 do
    let ids = v.fields.(f) in
    let d =
      match v.ctx.metric with
      | Ncd -> ncd_ids s ids.(i) ids.(j)
      | Trigram -> Trigram.profile_distance v.profiles.(ids.(i)) v.profiles.(ids.(j))
    in
    header := !header +. d
  done;
  !dst +. !header

let with_view ?pool ?(obs = Obs.noop) t packets f =
  let view = create_view ?pool t packets in
  let lock = Mutex.create () and scratches = ref [] in
  let init () =
    let s = scratch view in
    Mutex.protect lock (fun () -> scratches := s :: !scratches);
    s
  in
  let result = f ~init in
  let sum get = List.fold_left (fun acc s -> acc + get s) 0 !scratches in
  let stats =
    { strings = Array.length view.contents; hosts = Array.length view.hosts;
      host_distances = sum (fun s -> s.host_distances); concats = sum (fun s -> s.concats) }
  in
  if not (Obs.is_noop obs) then begin
    Obs.Counter.add
      (Obs.counter obs ~help:"Host edit distances computed while building matrices."
         "leakdetect_distance_host_distances_total")
      stats.host_distances;
    Obs.Counter.add
      (Obs.counter obs ~help:"Concatenation lengths C(xy) computed while building matrices."
         "leakdetect_distance_concat_total")
      stats.concats
  end;
  (result, stats)

let build_matrix ?pool ~obs t packets =
  let n = Array.length packets in
  with_view ?pool ~obs t packets (fun ~init ->
      let m = Dist_matrix.create n in
      (* Row i owns a contiguous condensed range, so every cell is
         written exactly once; guided claiming hands out large row ranges
         first and shrinks toward the floor as the triangle drains. *)
      Pool.parallel_for_with ~pool ~init n (fun s i ->
          for j = i + 1 to n - 1 do
            Dist_matrix.set m i j (pair s i j)
          done);
      m)

let matrix_with_stats ?pool ?(obs = Obs.noop) t packets =
  if Obs.is_noop obs then build_matrix ?pool ~obs t packets
  else
    Obs.with_span obs "distance.matrix" @@ fun () ->
    let n = Array.length packets in
    let t0 = Obs.Clock.now_ns () in
    let built = build_matrix ?pool ~obs t packets in
    Obs.Histogram.observe
      (Obs.histogram obs ~help:"Distance-matrix build latency."
         ~buckets:Obs.duration_buckets "leakdetect_distance_matrix_seconds")
      (float_of_int (Obs.Clock.now_ns () - t0) /. 1e9);
    Obs.Counter.add
      (Obs.counter obs ~help:"Packet pairs compared while building matrices."
         "leakdetect_distance_pairs_total")
      (n * (n - 1) / 2);
    built

let matrix ?pool ?obs t packets = fst (matrix_with_stats ?pool ?obs t packets)

let max_possible t =
  let b flag = if flag then 1. else 0. in
  b t.comps.use_ip +. b t.comps.use_port +. b t.comps.use_host
  +. b t.comps.use_rline +. b t.comps.use_cookie +. b t.comps.use_body
