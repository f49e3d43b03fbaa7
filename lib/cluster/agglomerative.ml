type linkage = Group_average | Single | Complete

let linkage_name = function
  | Group_average -> "group-average"
  | Single -> "single"
  | Complete -> "complete"

let linkage_of_name = function
  | "group-average" | "average" | "upgma" -> Some Group_average
  | "single" -> Some Single
  | "complete" -> Some Complete
  | _ -> None

(* Lance-Williams coefficients: distance from cluster k to the merge of i
   and j, given d(k,i), d(k,j) and the cluster sizes. *)
let update linkage ~ni ~nj dki dkj =
  match linkage with
  | Group_average ->
    let ni = float_of_int ni and nj = float_of_int nj in
    ((ni *. dki) +. (nj *. dkj)) /. (ni +. nj)
  | Single -> Float.min dki dkj
  | Complete -> Float.max dki dkj

type state = {
  dist : float array array; (* full symmetric working copy *)
  active : bool array;
  sizes : int array;
  trees : Dendrogram.t option array;
  ids : int array; (* scipy-style cluster ids for merge_sequence *)
}

let init m =
  let n = Dist_matrix.size m in
  {
    dist = Array.init n (fun i -> Array.init n (fun j -> Dist_matrix.get m i j));
    active = Array.make n true;
    sizes = Array.make n 1;
    trees = Array.init n (fun i -> Some (Dendrogram.Leaf i));
    ids = Array.init n (fun i -> i);
  }

let nearest_pair st =
  let n = Array.length st.active in
  let best = ref None in
  for i = 0 to n - 1 do
    if st.active.(i) then
      for j = i + 1 to n - 1 do
        if st.active.(j) then
          match !best with
          | Some (_, _, d) when st.dist.(i).(j) >= d -> ()
          | _ -> best := Some (i, j, st.dist.(i).(j))
      done
  done;
  !best

let run linkage m =
  let n = Dist_matrix.size m in
  if n = 0 then (None, [])
  else begin
    let st = init m in
    let merges = ref [] in
    let next_id = ref n in
    let steps = n - 1 in
    for _ = 1 to steps do
      match nearest_pair st with
      | None -> assert false
      | Some (i, j, d) ->
        (* Merge j into slot i; deactivate j. *)
        let ti = Option.get st.trees.(i) and tj = Option.get st.trees.(j) in
        merges := (st.ids.(i), st.ids.(j), d) :: !merges;
        st.trees.(i) <- Some (Dendrogram.node ti tj d);
        st.trees.(j) <- None;
        st.ids.(i) <- !next_id;
        incr next_id;
        let ni = st.sizes.(i) and nj = st.sizes.(j) in
        st.sizes.(i) <- ni + nj;
        st.active.(j) <- false;
        for k = 0 to n - 1 do
          if st.active.(k) && k <> i then begin
            let dnew = update linkage ~ni ~nj st.dist.(k).(i) st.dist.(k).(j) in
            st.dist.(k).(i) <- dnew;
            st.dist.(i).(k) <- dnew
          end
        done
    done;
    let root =
      let rec find i = if st.active.(i) then st.trees.(i) else find (i + 1) in
      find 0
    in
    (root, List.rev !merges)
  end

let cluster ?(linkage = Group_average) m = fst (run linkage m)
