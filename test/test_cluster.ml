(* Tests for Leakdetect_cluster: distance matrix, dendrogram, agglomerative
   clustering with the paper's group-average linkage. *)

open Leakdetect_cluster

let qtest = QCheck_alcotest.to_alcotest

(* --- Dist_matrix --- *)

let test_matrix_basic () =
  let m = Dist_matrix.create 4 in
  Dist_matrix.set m 0 3 2.5;
  Alcotest.(check (float 1e-9)) "get" 2.5 (Dist_matrix.get m 0 3);
  Alcotest.(check (float 1e-9)) "symmetric" 2.5 (Dist_matrix.get m 3 0);
  Alcotest.(check (float 1e-9)) "diagonal" 0. (Dist_matrix.get m 2 2);
  Alcotest.(check int) "size" 4 (Dist_matrix.size m)

let test_matrix_build () =
  let m = Dist_matrix.build 5 (fun i j -> float_of_int (i + j)) in
  Alcotest.(check (float 1e-9)) "value" 7. (Dist_matrix.get m 3 4);
  Alcotest.(check (float 1e-9)) "max" 7. (Dist_matrix.max_value m);
  Alcotest.(check bool) "mean positive" true (Dist_matrix.mean_value m > 0.)

let test_matrix_errors () =
  let m = Dist_matrix.create 3 in
  Alcotest.check_raises "diagonal set"
    (Invalid_argument "Dist_matrix.set: diagonal is fixed at zero") (fun () ->
      Dist_matrix.set m 1 1 1.);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Dist_matrix: index out of range") (fun () ->
      ignore (Dist_matrix.get m 0 5))

let test_matrix_empty () =
  let m = Dist_matrix.create 0 in
  Alcotest.(check (float 1e-9)) "max of empty" 0. (Dist_matrix.max_value m);
  Alcotest.(check (float 1e-9)) "mean of empty" 0. (Dist_matrix.mean_value m)

(* --- Dendrogram --- *)

let sample_tree () =
  (* ((0 1)@1.0 (2 3)@2.0)@4.0 *)
  let a = Dendrogram.node (Dendrogram.Leaf 0) (Dendrogram.Leaf 1) 1.0 in
  let b = Dendrogram.node (Dendrogram.Leaf 2) (Dendrogram.Leaf 3) 2.0 in
  Dendrogram.node a b 4.0

let test_dendrogram_members () =
  let t = sample_tree () in
  Alcotest.(check (list int)) "members sorted" [ 0; 1; 2; 3 ] (Dendrogram.members t);
  Alcotest.(check int) "size" 4 (Dendrogram.size t);
  Alcotest.(check (float 1e-9)) "height" 4.0 (Dendrogram.height t)

let test_dendrogram_cut () =
  let t = sample_tree () in
  let clusters threshold =
    List.map Dendrogram.members (Dendrogram.cut ~threshold t)
  in
  Alcotest.(check (list (list int))) "cut below everything"
    [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] ] (clusters 0.5);
  Alcotest.(check (list (list int))) "cut between"
    [ [ 0; 1 ]; [ 2 ]; [ 3 ] ] (clusters 1.5);
  Alcotest.(check (list (list int))) "cut keeps both pairs"
    [ [ 0; 1 ]; [ 2; 3 ] ] (clusters 3.0);
  Alcotest.(check (list (list int))) "cut above root" [ [ 0; 1; 2; 3 ] ] (clusters 5.0)

let test_dendrogram_cut_into () =
  let t = sample_tree () in
  Alcotest.(check int) "k=1" 1 (List.length (Dendrogram.cut_into 1 t));
  Alcotest.(check int) "k=2" 2 (List.length (Dendrogram.cut_into 2 t));
  Alcotest.(check int) "k=4" 4 (List.length (Dendrogram.cut_into 4 t));
  (* over-asking stops at leaves *)
  Alcotest.(check int) "k=10" 4 (List.length (Dendrogram.cut_into 10 t))

let test_dendrogram_heights () =
  Alcotest.(check (list (float 1e-9))) "pre-order" [ 4.0; 1.0; 2.0 ]
    (Dendrogram.heights (sample_tree ()))

let test_dendrogram_newick () =
  Alcotest.(check string) "tree"
    "((0:1,1:1):3,(2:2,3:2):2);"
    (Dendrogram.to_newick (sample_tree ()));
  Alcotest.(check string) "single leaf" "0;" (Dendrogram.to_newick (Dendrogram.Leaf 0));
  Alcotest.(check string) "labels"
    "((a:1,b:1):3,(c:2,d:2):2);"
    (Dendrogram.to_newick
       ~label:(fun i -> String.make 1 (Char.chr (Char.code 'a' + i)))
       (sample_tree ()))

(* --- Agglomerative --- *)

(* Hand-checked example: 1-D points 0, 1, 5 under absolute distance.
   UPGMA: merge {0},{1} at 1.0; then d({0,1},{5}) = (5+4)/2 = 4.5. *)
let test_upgma_hand_computed () =
  let points = [| 0.; 1.; 5. |] in
  let m = Dist_matrix.build 3 (fun i j -> Float.abs (points.(i) -. points.(j))) in
  match Agglomerative.cluster m with
  | None -> Alcotest.fail "no tree"
  | Some tree ->
    Alcotest.(check (float 1e-9)) "root height" 4.5 (Dendrogram.height tree);
    (match tree with
    | Dendrogram.Node { left; right; _ } ->
      let sub = if Dendrogram.size left = 2 then left else right in
      Alcotest.(check (list int)) "first merge" [ 0; 1 ] (Dendrogram.members sub);
      Alcotest.(check (float 1e-9)) "first height" 1.0 (Dendrogram.height sub)
    | Dendrogram.Leaf _ -> Alcotest.fail "root is a leaf")

let test_linkage_differs () =
  (* Points 0,1,5,6: single links {0,1} to {5,6} at 4; complete at 6;
     group average at 5. *)
  let points = [| 0.; 1.; 5.; 6. |] in
  let m = Dist_matrix.build 4 (fun i j -> Float.abs (points.(i) -. points.(j))) in
  let root_height linkage =
    Dendrogram.height (Option.get (Agglomerative.cluster ~linkage m))
  in
  Alcotest.(check (float 1e-9)) "single" 4. (root_height Agglomerative.Single);
  Alcotest.(check (float 1e-9)) "complete" 6. (root_height Agglomerative.Complete);
  Alcotest.(check (float 1e-9)) "group average" 5. (root_height Agglomerative.Group_average)

let test_cluster_edge_cases () =
  Alcotest.(check bool) "empty" true (Agglomerative.cluster (Dist_matrix.create 0) = None);
  (match Agglomerative.cluster (Dist_matrix.create 1) with
  | Some (Dendrogram.Leaf 0) -> ()
  | _ -> Alcotest.fail "singleton should be Leaf 0");
  match Agglomerative.cluster (Dist_matrix.create 2) with
  | Some t -> Alcotest.(check int) "two points" 2 (Dendrogram.size t)
  | None -> Alcotest.fail "two points should cluster"

let random_matrix rng n =
  Dist_matrix.build n (fun _ _ -> Leakdetect_util.Prng.float rng)

(* Items 0 and 1 are 1 apart, every other pair 0.5.  The scan takes the
   lowest-index pair among ties: it merges {0,2}, then adds 3 (a 0.5
   tie), then 1 at 2/3.  Pairing {0,2} and {1,3} and joining them at 5/8
   is an equally valid group-average hierarchy, so the tie-break is part
   of what fixes the signatures (DESIGN.md §9). *)
let test_tie_order_pinned () =
  let m = Dist_matrix.build 4 (fun i j -> if i + j = 1 then 1. else 0.5) in
  let tree = Option.get (Agglomerative.cluster m) in
  Alcotest.(check (float 1e-9)) "root" (2. /. 3.) (Dendrogram.height tree);
  Alcotest.(check (list (float 1e-9))) "merge heights" [ 2. /. 3.; 0.5; 0.5 ]
    (Dendrogram.heights tree);
  Alcotest.(check (list (list int))) "clusters below the root"
    [ [ 0; 2; 3 ]; [ 1 ] ]
    (List.map Dendrogram.members (Dendrogram.cut ~threshold:0.6 tree))

(* Distances drawn from at most four values, like NCD matrices full of
   empty fields: most candidate merges tie. *)
let tied_matrix rng n =
  let values = [| 0.; 0.5; 0.75; 1. |] in
  let k = 1 + Leakdetect_util.Prng.int rng (Array.length values) in
  Dist_matrix.build n (fun _ _ -> values.(Leakdetect_util.Prng.int rng k))

(* Every merge sits at the linkage distance between its two children's
   leaves in the original matrix, and no merge sits below a child merge. *)
let consistent_hierarchy linkage m tree =
  let link a b =
    let ds = List.concat_map (fun i -> List.map (fun j -> Dist_matrix.get m i j) b) a in
    match linkage with
    | Agglomerative.Single -> List.fold_left Float.min infinity ds
    | Agglomerative.Complete -> List.fold_left Float.max neg_infinity ds
    | Agglomerative.Group_average ->
      List.fold_left ( +. ) 0. ds /. float_of_int (List.length ds)
  in
  let rec ok = function
    | Dendrogram.Leaf _ -> true
    | Dendrogram.Node { left; right; height; _ } ->
      Float.abs (height -. link (Dendrogram.members left) (Dendrogram.members right)) < 1e-9
      && Dendrogram.height left <= height +. 1e-9
      && Dendrogram.height right <= height +. 1e-9
      && ok left && ok right
  in
  ok tree

(* Ties everywhere: the hierarchy still covers every leaf once and each
   merge height is the linkage distance of its children. *)
let prop_tied linkage name =
  QCheck.Test.make ~count:200
    ~name:(Printf.sprintf "agglomerative on tied distances (%s)" name)
    QCheck.(pair (int_range 2 22) small_nat)
    (fun (n, seed) ->
      let m = tied_matrix (Leakdetect_util.Prng.create ((n * 97) + seed)) n in
      let tree = Option.get (Agglomerative.cluster ~linkage m) in
      Dendrogram.members tree = List.init n Fun.id && consistent_hierarchy linkage m tree)

let prop_leaves_preserved =
  QCheck.Test.make ~name:"clustering preserves all leaves" ~count:100
    QCheck.(int_range 1 25)
    (fun n ->
      let rng = Leakdetect_util.Prng.create n in
      match Agglomerative.cluster (random_matrix rng n) with
      | None -> false
      | Some tree -> Dendrogram.members tree = List.init n Fun.id)

let prop_merge_count =
  QCheck.Test.make ~name:"n items make n-1 merges" ~count:50
    QCheck.(int_range 2 20)
    (fun n ->
      let rng = Leakdetect_util.Prng.create (n * 7) in
      List.length (Agglomerative.merge_sequence (random_matrix rng n)) = n - 1)

let prop_group_average_monotone =
  (* Group-average linkage is reducible, so merge heights never decrease. *)
  QCheck.Test.make ~name:"group-average merge heights are monotone" ~count:100
    QCheck.(int_range 2 20)
    (fun n ->
      let rng = Leakdetect_util.Prng.create (n * 13) in
      let merges = Agglomerative.merge_sequence (random_matrix rng n) in
      let heights = List.map (fun (_, _, h) -> h) merges in
      let rec nondecreasing = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-9 && nondecreasing rest
        | _ -> true
      in
      nondecreasing heights)

let prop_single_below_complete =
  QCheck.Test.make ~name:"single-link root <= complete-link root" ~count:100
    QCheck.(int_range 2 18)
    (fun n ->
      let rng = Leakdetect_util.Prng.create (n * 31) in
      let m = random_matrix rng n in
      let h linkage = Dendrogram.height (Option.get (Agglomerative.cluster ~linkage m)) in
      h Agglomerative.Single <= h Agglomerative.Complete +. 1e-9)

(* --- Kmedoids --- *)

let two_blob_matrix () =
  (* Points 0,1,2 near zero; 3,4,5 near ten. *)
  let points = [| 0.; 0.5; 1.0; 10.; 10.5; 11. |] in
  Dist_matrix.build 6 (fun i j -> Float.abs (points.(i) -. points.(j)))

let test_kmedoids_two_blobs () =
  let rng = Leakdetect_util.Prng.create 1 in
  let r = Kmedoids.cluster ~rng ~k:2 (two_blob_matrix ()) in
  let groups = Kmedoids.clusters r in
  Alcotest.(check int) "two clusters" 2 (List.length groups);
  let sorted = List.sort compare groups in
  Alcotest.(check (list (list int))) "blob separation" [ [ 0; 1; 2 ]; [ 3; 4; 5 ] ] sorted;
  Alcotest.(check bool) "cost positive and small" true (r.Kmedoids.cost < 3.)

let test_kmedoids_k_clamped () =
  let rng = Leakdetect_util.Prng.create 2 in
  let m = Dist_matrix.build 3 (fun i j -> float_of_int (abs (i - j))) in
  let r = Kmedoids.cluster ~rng ~k:10 m in
  Alcotest.(check int) "k clamped to n" 3 (Array.length r.Kmedoids.medoids);
  Alcotest.(check (float 1e-9)) "zero cost when k = n" 0. r.Kmedoids.cost

let test_kmedoids_errors () =
  let rng = Leakdetect_util.Prng.create 3 in
  Alcotest.check_raises "k too small" (Invalid_argument "Kmedoids.cluster: k must be >= 1")
    (fun () -> ignore (Kmedoids.cluster ~rng ~k:0 (Dist_matrix.create 3)));
  Alcotest.check_raises "empty" (Invalid_argument "Kmedoids.cluster: empty matrix")
    (fun () -> ignore (Kmedoids.cluster ~rng ~k:1 (Dist_matrix.create 0)))

let prop_kmedoids_partition =
  QCheck.Test.make ~name:"kmedoids assignment is a partition" ~count:60
    QCheck.(pair (int_range 1 5) (int_range 1 18))
    (fun (k, n) ->
      let rng = Leakdetect_util.Prng.create ((k * 31) + n) in
      let m = random_matrix rng n in
      let r = Kmedoids.cluster ~rng ~k m in
      let members = List.concat (Kmedoids.clusters r) in
      List.sort compare members = List.init n Fun.id)

(* --- Dbscan --- *)

let test_dbscan_two_blobs () =
  let r = Dbscan.cluster ~eps:1.0 ~min_points:2 (two_blob_matrix ()) in
  Alcotest.(check (list (list int))) "blobs found"
    [ [ 0; 1; 2 ]; [ 3; 4; 5 ] ]
    (List.sort compare r.Dbscan.clusters);
  Alcotest.(check (list int)) "no noise" [] r.Dbscan.noise

let test_dbscan_noise () =
  (* An isolated point between the blobs becomes noise. *)
  let points = [| 0.; 0.5; 5.; 10.; 10.5 |] in
  let m = Dist_matrix.build 5 (fun i j -> Float.abs (points.(i) -. points.(j))) in
  let r = Dbscan.cluster ~eps:1.0 ~min_points:2 m in
  Alcotest.(check (list int)) "middle point is noise" [ 2 ] r.Dbscan.noise;
  Alcotest.(check int) "two clusters" 2 (List.length r.Dbscan.clusters)

let test_dbscan_all_noise () =
  let m = Dist_matrix.build 4 (fun _ _ -> 100.) in
  let r = Dbscan.cluster ~eps:1.0 ~min_points:2 m in
  Alcotest.(check (list (list int))) "no clusters" [] r.Dbscan.clusters;
  Alcotest.(check (list int)) "everything noise" [ 0; 1; 2; 3 ] r.Dbscan.noise

let test_dbscan_single_cluster () =
  let m = Dist_matrix.build 5 (fun _ _ -> 0.1) in
  let r = Dbscan.cluster ~eps:1.0 ~min_points:3 m in
  Alcotest.(check (list (list int))) "one cluster of all" [ [ 0; 1; 2; 3; 4 ] ]
    r.Dbscan.clusters

let prop_dbscan_partition =
  QCheck.Test.make ~name:"dbscan clusters + noise partition the items" ~count:80
    QCheck.(int_range 1 20)
    (fun n ->
      let rng = Leakdetect_util.Prng.create (n * 53) in
      let m = random_matrix rng n in
      let r = Dbscan.cluster ~eps:0.4 ~min_points:2 m in
      let members = List.concat r.Dbscan.clusters @ r.Dbscan.noise in
      List.sort compare members = List.init n Fun.id)

(* --- Cophenetic --- *)

let test_cophenetic_matrix () =
  let m = Cophenetic.matrix (sample_tree ()) in
  Alcotest.(check (float 1e-9)) "within first pair" 1.0 (Dist_matrix.get m 0 1);
  Alcotest.(check (float 1e-9)) "within second pair" 2.0 (Dist_matrix.get m 2 3);
  Alcotest.(check (float 1e-9)) "across" 4.0 (Dist_matrix.get m 0 3);
  Alcotest.(check (float 1e-9)) "across other" 4.0 (Dist_matrix.get m 1 2)

let test_cophenetic_self_correlation () =
  (* Correlating a tree against its own cophenetic matrix is exactly 1. *)
  let rng = Leakdetect_util.Prng.create 5 in
  let m = random_matrix rng 10 in
  let tree = Option.get (Agglomerative.cluster m) in
  let coph = Cophenetic.matrix tree in
  Alcotest.(check (float 1e-9)) "self correlation" 1. (Cophenetic.correlation coph tree)

let test_cophenetic_correlation_bounds () =
  let rng = Leakdetect_util.Prng.create 8 in
  for n = 3 to 12 do
    let m = random_matrix rng n in
    let tree = Option.get (Agglomerative.cluster m) in
    let c = Cophenetic.correlation m tree in
    if c < -1.0000001 || c > 1.0000001 then Alcotest.failf "correlation out of range: %f" c
  done

let test_cophenetic_bad_leaves () =
  let tree = Dendrogram.node (Dendrogram.Leaf 3) (Dendrogram.Leaf 7) 1. in
  Alcotest.check_raises "non-contiguous leaves"
    (Invalid_argument "Cophenetic.matrix: leaves must be 0..n-1") (fun () ->
      ignore (Cophenetic.matrix tree))

let test_linkage_names () =
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Agglomerative.linkage_name l) true
        (Agglomerative.linkage_of_name (Agglomerative.linkage_name l) = Some l))
    [ Agglomerative.Group_average; Agglomerative.Single; Agglomerative.Complete ];
  Alcotest.(check bool) "upgma alias" true
    (Agglomerative.linkage_of_name "upgma" = Some Agglomerative.Group_average)

(* --- Cluster (unified entry point) --- *)

let prop_run_matches_agglomerative =
  QCheck.Test.make ~count:40 ~name:"Cluster.run dispatches to Agglomerative verbatim"
    QCheck.(pair (int_range 1 24) (int_range 0 1000))
    (fun (n, seed) ->
      let m = random_matrix (Leakdetect_util.Prng.create seed) n in
      match (Cluster.run (Cluster.Agglomerative Agglomerative.Single) m,
             Agglomerative.cluster ~linkage:Agglomerative.Single m) with
      | Cluster.Hierarchy a, Some b -> a = b
      | _ -> false)

let prop_run_flat_clusters_partition =
  QCheck.Test.make ~count:40 ~name:"Cluster.flat_clusters partitions every algorithm"
    QCheck.(pair (int_range 1 20) (int_range 0 1000))
    (fun (n, seed) ->
      let m = random_matrix (Leakdetect_util.Prng.create seed) n in
      let covers algorithm threshold =
        let flat = Cluster.flat_clusters ~threshold (Cluster.run algorithm m) in
        List.sort compare (List.concat flat) = List.init n Fun.id
      in
      covers (Cluster.Agglomerative Agglomerative.Group_average) 0.4
      && covers (Cluster.Agglomerative Agglomerative.Complete) infinity
      && covers (Cluster.Kmedoids { k = 1 + (seed mod 4); seed }) infinity
      && covers (Cluster.Dbscan { eps = 0.3; min_points = 2 }) infinity)

let test_run_kmedoids_by_value () =
  let m = random_matrix (Leakdetect_util.Prng.create 5) 12 in
  let a = Cluster.run (Cluster.Kmedoids { k = 3; seed = 11 }) m in
  let b = Cluster.run (Cluster.Kmedoids { k = 3; seed = 11 }) m in
  Alcotest.(check bool) "same seed, same partition" true (a = b);
  match a with
  | Cluster.Partition { clusters; noise } ->
    Alcotest.(check int) "no noise from kmedoids" 0 (List.length noise);
    Alcotest.(check int) "three clusters" 3 (List.length clusters)
  | _ -> Alcotest.fail "expected a partition"

let test_run_empty_and_names () =
  Alcotest.(check bool) "empty matrix" true
    (Cluster.run Cluster.default (Dist_matrix.create 0) = Cluster.Empty);
  Alcotest.(check string) "default name" "agglomerative-group-average"
    (Cluster.name Cluster.default);
  Alcotest.(check bool) "hierarchical split" true
    (Cluster.is_hierarchical (Cluster.Agglomerative Agglomerative.Single)
    && not (Cluster.is_hierarchical (Cluster.Dbscan { eps = 1.; min_points = 2 })))

let test_run_dbscan_noise_singletons () =
  (* Two tight pairs plus one far outlier: flat_clusters must keep the
     outlier as a singleton, not drop it. *)
  let coords = [| 0.0; 0.05; 1.0; 1.05; 5.0 |] in
  let m = Dist_matrix.build 5 (fun i j -> Float.abs (coords.(i) -. coords.(j))) in
  let flat =
    Cluster.flat_clusters (Cluster.run (Cluster.Dbscan { eps = 0.2; min_points = 2 }) m)
  in
  Alcotest.(check (list (list int))) "noise appended as singleton"
    [ [ 0; 1 ]; [ 2; 3 ]; [ 4 ] ]
    (List.sort compare flat)

let suite =
  [
    ( "cluster.matrix",
      [
        Alcotest.test_case "basic" `Quick test_matrix_basic;
        Alcotest.test_case "build" `Quick test_matrix_build;
        Alcotest.test_case "errors" `Quick test_matrix_errors;
        Alcotest.test_case "empty" `Quick test_matrix_empty;
      ] );
    ( "cluster.dendrogram",
      [
        Alcotest.test_case "members/size/height" `Quick test_dendrogram_members;
        Alcotest.test_case "cut" `Quick test_dendrogram_cut;
        Alcotest.test_case "cut_into" `Quick test_dendrogram_cut_into;
        Alcotest.test_case "heights" `Quick test_dendrogram_heights;
        Alcotest.test_case "newick" `Quick test_dendrogram_newick;
      ] );
    ( "cluster.agglomerative",
      [
        Alcotest.test_case "UPGMA hand-computed" `Quick test_upgma_hand_computed;
        Alcotest.test_case "linkages differ as expected" `Quick test_linkage_differs;
        Alcotest.test_case "edge cases" `Quick test_cluster_edge_cases;
        Alcotest.test_case "linkage names" `Quick test_linkage_names;
        Alcotest.test_case "tie order pinned" `Quick test_tie_order_pinned;
        qtest prop_leaves_preserved;
        qtest prop_merge_count;
        qtest prop_group_average_monotone;
        qtest prop_single_below_complete;
        qtest (prop_tied Agglomerative.Group_average "group-average");
        qtest (prop_tied Agglomerative.Single "single");
        qtest (prop_tied Agglomerative.Complete "complete");
      ] );
    ( "cluster.kmedoids",
      [
        Alcotest.test_case "two blobs" `Quick test_kmedoids_two_blobs;
        Alcotest.test_case "k clamped" `Quick test_kmedoids_k_clamped;
        Alcotest.test_case "errors" `Quick test_kmedoids_errors;
        qtest prop_kmedoids_partition;
      ] );
    ( "cluster.dbscan",
      [
        Alcotest.test_case "two blobs" `Quick test_dbscan_two_blobs;
        Alcotest.test_case "noise" `Quick test_dbscan_noise;
        Alcotest.test_case "all noise" `Quick test_dbscan_all_noise;
        Alcotest.test_case "single cluster" `Quick test_dbscan_single_cluster;
        qtest prop_dbscan_partition;
      ] );
    ( "cluster.run",
      [
        Alcotest.test_case "kmedoids by value" `Quick test_run_kmedoids_by_value;
        Alcotest.test_case "empty + names" `Quick test_run_empty_and_names;
        Alcotest.test_case "dbscan noise singletons" `Quick test_run_dbscan_noise_singletons;
        qtest prop_run_matches_agglomerative;
        qtest prop_run_flat_clusters_partition;
      ] );
    ( "cluster.cophenetic",
      [
        Alcotest.test_case "matrix" `Quick test_cophenetic_matrix;
        Alcotest.test_case "self correlation" `Quick test_cophenetic_self_correlation;
        Alcotest.test_case "correlation bounds" `Quick test_cophenetic_correlation_bounds;
        Alcotest.test_case "bad leaves" `Quick test_cophenetic_bad_leaves;
      ] );
  ]
