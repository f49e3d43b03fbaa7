type result = { medoids : int array; assignment : int array }

let assignment_cost m medoids =
  let n = Dist_matrix.size m in
  let assignment = Array.make n 0 in
  let cost = ref 0. in
  for i = 0 to n - 1 do
    let best = ref 0 and best_d = ref infinity in
    Array.iteri
      (fun mi medoid ->
        let d = Dist_matrix.get m i medoid in
        if d < !best_d then begin
          best := mi;
          best_d := d
        end)
      medoids;
    assignment.(i) <- !best;
    cost := !cost +. !best_d
  done;
  (assignment, !cost)

(* Greedy BUILD: first medoid minimizes total distance; each next medoid
   maximizes cost reduction. *)
let build m k =
  let n = Dist_matrix.size m in
  let chosen = ref [] in
  let current_d = Array.make n infinity in
  for _ = 1 to k do
    let best = ref (-1) and best_gain = ref neg_infinity in
    for cand = 0 to n - 1 do
      if not (List.mem cand !chosen) then begin
        let gain = ref 0. in
        for i = 0 to n - 1 do
          let d = Dist_matrix.get m i cand in
          if d < current_d.(i) then gain := !gain +. (current_d.(i) -. d)
        done;
        (* For the first medoid current_d is inf; use negative total. *)
        let gain =
          if !chosen = [] then
            -.Float.of_int 0 -. (let t = ref 0. in
                                 for i = 0 to n - 1 do t := !t +. Dist_matrix.get m i cand done;
                                 !t)
          else !gain
        in
        if gain > !best_gain then begin
          best_gain := gain;
          best := cand
        end
      end
    done;
    chosen := !best :: !chosen;
    for i = 0 to n - 1 do
      let d = Dist_matrix.get m i !best in
      if d < current_d.(i) then current_d.(i) <- d
    done
  done;
  Array.of_list (List.rev !chosen)

let cluster ~rng ~k ?(max_iterations = 30) m =
  ignore rng;
  let n = Dist_matrix.size m in
  if n = 0 then invalid_arg "Kmedoids.cluster: empty matrix";
  if k < 1 then invalid_arg "Kmedoids.cluster: k must be >= 1";
  let k = min k n in
  let medoids = ref (build m k) in
  let _, cost0 = assignment_cost m !medoids in
  let cost = ref cost0 in
  let improved = ref true in
  let iterations = ref 0 in
  while !improved && !iterations < max_iterations do
    improved := false;
    incr iterations;
    (* First-improvement SWAP. *)
    (try
       for mi = 0 to k - 1 do
         for cand = 0 to n - 1 do
           if not (Array.exists (Int.equal cand) !medoids) then begin
             let trial = Array.copy !medoids in
             trial.(mi) <- cand;
             let _, c = assignment_cost m trial in
             if c +. 1e-12 < !cost then begin
               medoids := trial;
               cost := c;
               improved := true;
               raise Exit
             end
           end
         done
       done
     with Exit -> ())
  done;
  let medoids = Array.copy !medoids in
  Array.sort compare medoids;
  let assignment, _ = assignment_cost m medoids in
  { medoids; assignment }

let clusters r =
  let buckets = Array.make (Array.length r.medoids) [] in
  Array.iteri (fun i mi -> buckets.(mi) <- i :: buckets.(mi)) r.assignment;
  Array.to_list (Array.map (List.sort compare) buckets)
