(* Differential tests for the interned distance matrix: every cell built
   over the interned sample view must equal the string-level [Distance.d_pkt]
   bit for bit, at any job count, for every component preset, both content
   metrics, every compressor, and with and without a registry. *)

module Distance = Leakdetect_core.Distance
module Clustering = Leakdetect_core.Clustering
module Compressor = Leakdetect_compress.Compressor
module Dist_matrix = Leakdetect_cluster.Dist_matrix
module Sketch = Leakdetect_sketch.Sketch
module Pool = Leakdetect_parallel.Pool
module Obs = Leakdetect_obs.Obs
module Packet = Leakdetect_http.Packet
module Ipv4 = Leakdetect_net.Ipv4
module Registry = Leakdetect_net.Registry

let qtest = QCheck_alcotest.to_alcotest
let ip s = Option.get (Ipv4.of_string s)

let mk ~ip:a ~port ~host ~rline ~cookie ~body =
  Packet.v ~ip:(ip a) ~port ~host ~request_line:rline ~cookie ~body

let registry =
  let r = Registry.register Registry.empty ~org:"google" ~base:(ip "74.125.0.0") ~prefix:16 in
  let r = Registry.register r ~org:"owner-a" ~base:(ip "10.0.0.0") ~prefix:24 in
  Registry.register r ~org:"other" ~base:(ip "10.0.1.0") ~prefix:24

(* --- generators ----------------------------------------------------------- *)

(* Small pools force repeats: the same host in several cases, empty and
   sub-trigram fields, and boilerplate shared across fields. *)
let hosts = [| "r.admob.com"; "R.AdMob.com"; "mm.admob.com"; "DATA.flurry.COM";
               "data.flurry.com"; "a.jp"; "" |]
let fields = [| ""; ""; "a"; "ab"; "GET /ad HTTP/1.1"; "uid=355021930123456";
                "Uid=355021930123456" |]
let ips = [| "10.0.0.1"; "10.0.1.9"; "74.125.1.2"; "74.125.200.9"; "1.2.3.4" |]

(* Fresh strings extend a pool value, so that pairs share material: their
   NCD lands inside (0, 1) and depends on the concatenation order. *)
let text_gen =
  QCheck.Gen.(
    map2 ( ^ ) (oneofa fields)
      (string_size ~gen:(oneof [ char_range 'a' 'f'; char_range 'A' 'C'; pure '=' ]) (0 -- 40)))

let pick pool = QCheck.Gen.(frequency [ (3, oneofa pool); (1, text_gen) ])

let packet_gen =
  QCheck.Gen.(
    map
      (fun ((a, port, host), (rline, cookie, body)) -> mk ~ip:a ~port ~host ~rline ~cookie ~body)
      (pair
         (triple (oneofa ips) (oneofl [ 80; 443 ]) (pick hosts))
         (triple (pick fields) (pick fields) (pick fields))))

let components_gen =
  QCheck.Gen.(
    frequency
      [ (3, oneofl [ Distance.all_components; Distance.destination_only; Distance.content_only ]);
        (2,
         map
           (fun ((use_ip, use_port, use_host), (use_rline, use_cookie, use_body)) ->
             { Distance.use_ip; use_port; use_host; use_rline; use_cookie; use_body })
           (pair (triple bool bool bool) (triple bool bool bool))) ])

type case = {
  components : Distance.components;
  metric : Distance.content_metric;
  compressor : Compressor.algorithm;
  with_registry : bool;
  packets : Packet.t array;
}

let case_gen =
  QCheck.Gen.(
    map
      (fun ((components, metric, compressor), (with_registry, packets)) ->
        { components; metric; compressor; with_registry; packets = Array.of_list packets })
      (pair
         (triple components_gen (oneofl [ Distance.Ncd; Distance.Trigram ])
            (oneofl [ Compressor.Lz77; Compressor.Lzw; Compressor.Huffman ]))
         (pair bool (list_size (0 -- 14) packet_gen))))

let print_case c =
  Printf.sprintf "%d packets, metric %s, compressor %s, registry %b"
    (Array.length c.packets)
    (match c.metric with Distance.Ncd -> "ncd" | Distance.Trigram -> "trigram")
    (Compressor.name c.compressor) c.with_registry

let context c =
  Distance.create ~components:c.components ~compressor:c.compressor ~content_metric:c.metric
    ?registry:(if c.with_registry then Some registry else None)
    ()

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Every cell against the string-level oracle, on a fresh context. *)
let matches_oracle c m =
  let oracle = context c in
  let n = Array.length c.packets in
  Dist_matrix.size m = n
  && begin
    let ok = ref true in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let expect = Distance.d_pkt oracle c.packets.(i) c.packets.(j) in
        if not (same_bits expect (Dist_matrix.get m i j)) then ok := false
      done
    done;
    !ok
  end

(* --- properties --------------------------------------------------------- *)

let prop_matrix_equals_oracle =
  QCheck.Test.make ~name:"interned matrix = string-level d_pkt, jobs=1 and jobs=4" ~count:150
    (QCheck.make ~print:print_case case_gen) (fun c ->
      let seq = Distance.matrix (context c) c.packets in
      let par = Fixtures.with_pool 4 (fun pool -> Distance.matrix ?pool (context c) c.packets) in
      matches_oracle c seq && matches_oracle c par)

(* The sketch backend's bucket builds: members of each bucket are compared
   through one view of the whole sample, buckets fanned across domains. *)
let prop_bucket_builds_equal_oracle =
  QCheck.Test.make ~name:"interned bucket builds = string-level d_pkt at jobs=4" ~count:80
    (QCheck.make ~print:print_case case_gen) (fun c ->
      let n = Array.length c.packets in
      (* Deterministic ragged buckets: index i lands in bucket (i * 7) mod k. *)
      let k = 1 + (n mod 4) in
      let groups =
        Array.init k (fun b -> Array.of_list (List.filter (fun i -> i * 7 mod k = b) (List.init n Fun.id)))
      in
      let built = Array.make k (Dist_matrix.create 0) in
      let (), _ =
        Fixtures.with_pool 4 (fun pool ->
            Distance.with_view ?pool (context c) c.packets (fun ~init ->
                Pool.parallel_for_with ~pool ~init k (fun s b ->
                    let members = groups.(b) in
                    built.(b) <-
                      Dist_matrix.build (Array.length members) (fun i j ->
                          Distance.pair s members.(i) members.(j)))))
      in
      let oracle = context c in
      Array.for_all Fun.id
        (Array.mapi
           (fun b members ->
             let ok = ref true in
             Array.iteri
               (fun i pi ->
                 Array.iteri
                   (fun j pj ->
                     if i < j then
                       let expect = Distance.d_pkt oracle c.packets.(pi) c.packets.(pj) in
                       if not (same_bits expect (Dist_matrix.get built.(b) i j)) then ok := false)
                   members)
               members;
             !ok)
           groups))

(* --- counts ------------------------------------------------------------- *)

let sample =
  let p host rline cookie = mk ~ip:"10.0.0.1" ~port:80 ~host ~rline ~cookie ~body:"" in
  [| p "r.admob.com" "GET /a HTTP/1.1" "";
     p "R.ADMOB.COM" "GET /a HTTP/1.1" "id=1";
     p "data.flurry.com" "GET /b HTTP/1.1" "";
     p "a.jp" "GET /a HTTP/1.1" "id=1";
     p "data.flurry.com" "GET /b HTTP/1.1" "id=2";
     p "r.admob.com" "GET /a HTTP/1.1" "" |]

(* Distinct canonical content pairs the string-level NCD would compress:
   what the view computes at jobs=1, one C(xy) each. *)
let distinct_concats packets =
  let seen = Hashtbl.create 64 in
  let n = Array.length packets in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      List.iter
        (fun f ->
          let x = f packets.(i).Packet.content and y = f packets.(j).Packet.content in
          if x <> "" || y <> "" then Hashtbl.replace seen (min x y, max x y) ())
        [ (fun c -> c.Packet.request_line); (fun c -> c.Packet.cookie);
          (fun c -> c.Packet.body) ]
    done
  done;
  Hashtbl.length seen

let test_view_counts () =
  let _, st = Distance.matrix_with_stats (Distance.create ()) sample in
  Alcotest.(check int) "hosts interned case-insensitively" 3 st.Distance.hosts;
  Alcotest.(check int) "one edit distance per distinct host pair" 3 st.Distance.host_distances;
  (* "", the two request lines, id=1, id=2 *)
  Alcotest.(check int) "distinct content strings" 5 st.Distance.strings;
  Alcotest.(check int) "one C(xy) per distinct content pair" (distinct_concats sample)
    st.Distance.concats;
  let _, tri =
    Distance.matrix_with_stats (Distance.create ~content_metric:Distance.Trigram ()) sample
  in
  Alcotest.(check int) "trigram compresses nothing" 0 tri.Distance.concats;
  let _, dst =
    Distance.matrix_with_stats (Distance.create ~components:Distance.destination_only ()) sample
  in
  Alcotest.(check int) "destination-only interns no content" 0 dst.Distance.strings

let counter obs family =
  List.fold_left
    (fun acc (s : Obs.sample) ->
      match s.Obs.value with
      | Obs.Counter_value v when s.Obs.family = family -> Some (v + Option.value acc ~default:0)
      | _ -> acc)
    None (Obs.samples obs)

let test_view_obs () =
  let obs = Obs.create () in
  let _, st = Distance.matrix_with_stats ~obs (Distance.create ()) sample in
  Alcotest.(check (option int)) "exact: host distances counted" (Some st.Distance.host_distances)
    (counter obs "leakdetect_distance_host_distances_total");
  Alcotest.(check (option int)) "exact: C(xy) counted" (Some st.Distance.concats)
    (counter obs "leakdetect_distance_concat_total");
  (* Sketch with a bucket cap of 2 forces several buckets, so the bucketed
     path (not the single-bucket exact shortcut) emits the counters. *)
  let obs = Obs.create () in
  let params = { Sketch.default with Sketch.max_bucket = 2 } in
  let r =
    Clustering.run ~obs ~backend:(Clustering.Sketch params) ~linkage:Leakdetect_cluster.Agglomerative.Group_average
      (Distance.create ()) sample
  in
  Alcotest.(check bool) "several buckets" true (r.Clustering.stats.Clustering.buckets > 1);
  Alcotest.(check bool) "sketch: host distances counted" true
    (counter obs "leakdetect_distance_host_distances_total" <> None);
  Alcotest.(check bool) "sketch: C(xy) counted" true
    (counter obs "leakdetect_distance_concat_total" <> None)

let test_empty_and_singleton () =
  let ctx = Distance.create () in
  Alcotest.(check int) "empty sample" 0 (Dist_matrix.size (Distance.matrix ctx [||]));
  let m, st = Distance.matrix_with_stats ctx [| sample.(0) |] in
  Alcotest.(check int) "one packet" 1 (Dist_matrix.size m);
  Alcotest.(check int) "no pairs, no work" 0 (st.Distance.host_distances + st.Distance.concats)

let suite =
  [
    ( "core.distance_view",
      [
        Alcotest.test_case "view counts" `Quick test_view_counts;
        Alcotest.test_case "view observability" `Quick test_view_obs;
        Alcotest.test_case "empty and singleton samples" `Quick test_empty_and_singleton;
        qtest prop_matrix_equals_oracle;
        qtest prop_bucket_builds_equal_oracle;
      ] );
  ]
