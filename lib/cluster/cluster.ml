(* Unified entry point over the clustering algorithms.  Callers — the
   signature generator, the sketch-bucketed driver, the CLI — select an
   algorithm by value and get one result shape back, instead of binding to
   a specific module's signature. *)

module Prng = Leakdetect_util.Prng

type algorithm =
  | Agglomerative of Agglomerative.linkage
  | Kmedoids of { k : int; seed : int }
  | Dbscan of { eps : float; min_points : int }

let default = Agglomerative Agglomerative.Group_average

let is_hierarchical = function
  | Agglomerative _ -> true
  | Kmedoids _ | Dbscan _ -> false

let name = function
  | Agglomerative l -> "agglomerative-" ^ Agglomerative.linkage_name l
  | Kmedoids { k; _ } -> Printf.sprintf "kmedoids-%d" k
  | Dbscan { eps; min_points } -> Printf.sprintf "dbscan-%g-%d" eps min_points

type output =
  | Empty  (** zero items *)
  | Hierarchy of Dendrogram.t  (** agglomerative family *)
  | Partition of { clusters : int list list; noise : int list }
      (** partitional family; [noise] is non-empty only for DBSCAN *)

let run algorithm matrix =
  match algorithm with
  | Agglomerative linkage -> (
      match Agglomerative.cluster ~linkage matrix with
      | None -> Empty
      | Some d -> Hierarchy d)
  | Kmedoids { k; seed } ->
      if Dist_matrix.size matrix = 0 then Empty
      else begin
        let r = Kmedoids.cluster ~rng:(Prng.create seed) ~k matrix in
        Partition { clusters = Kmedoids.clusters r; noise = [] }
      end
  | Dbscan { eps; min_points } ->
      if Dist_matrix.size matrix = 0 then Empty
      else begin
        let r = Dbscan.cluster ~eps ~min_points matrix in
        Partition { clusters = r.Dbscan.clusters; noise = r.Dbscan.noise }
      end

(* Flatten any output to member lists under a cut threshold, the shape the
   signature generator consumes.  Noise items become singletons — a sparse
   packet still deserves its exact-match signature. *)
let flat_clusters ?(threshold = infinity) output =
  match output with
  | Empty -> []
  | Hierarchy d ->
      List.map Dendrogram.members (Dendrogram.cut ~threshold d)
  | Partition { clusters; noise } ->
      clusters @ List.map (fun i -> [ i ]) noise
