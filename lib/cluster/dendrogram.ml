type t =
  | Leaf of int
  | Node of { left : t; right : t; height : float; size : int }

let size = function Leaf _ -> 1 | Node { size; _ } -> size
let height = function Leaf _ -> 0. | Node { height; _ } -> height

let node left right height =
  Node { left; right; height; size = size left + size right }

let members t =
  let rec collect acc = function
    | Leaf i -> i :: acc
    | Node { left; right; _ } -> collect (collect acc left) right
  in
  List.sort compare (collect [] t)

let cut ~threshold t =
  let rec loop acc = function
    | Leaf _ as l -> l :: acc
    | Node { height; left; right; _ } as n ->
      if height <= threshold then n :: acc else loop (loop acc left) right
  in
  List.rev (loop [] t)

let cut_into k t =
  if k < 1 then invalid_arg "Dendrogram.cut_into: k must be >= 1";
  (* Repeatedly split the subtree with the highest merge. *)
  let rec loop forest =
    if List.length forest >= k then forest
    else
      let best =
        List.fold_left
          (fun acc t ->
            match (acc, t) with
            | None, Node _ -> Some t
            | Some b, Node _ when height t > height b -> Some t
            | _ -> acc)
          None forest
      in
      match best with
      | None -> forest (* only leaves remain *)
      | Some (Node { left; right; _ } as n) ->
        loop (left :: right :: List.filter (fun x -> x != n) forest)
      | Some (Leaf _) -> assert false
  in
  loop [ t ]

let rec pp ppf = function
  | Leaf i -> Format.fprintf ppf "%d" i
  | Node { left; right; height; _ } ->
    Format.fprintf ppf "@[<hov 1>(%a@ %a@ @@%.3f)@]" pp left pp right height

let to_newick ?(label = string_of_int) t =
  let buf = Buffer.create 128 in
  let rec walk parent_height node =
    let branch = parent_height -. height node in
    (match node with
    | Leaf i -> Buffer.add_string buf (label i)
    | Node { left; right; height; _ } ->
      Buffer.add_char buf '(';
      walk height left;
      Buffer.add_char buf ',';
      walk height right;
      Buffer.add_char buf ')');
    Buffer.add_string buf (Printf.sprintf ":%.6g" (Float.max branch 0.))
  in
  (match t with
  | Leaf i -> Buffer.add_string buf (label i)
  | Node { left; right; height; _ } ->
    Buffer.add_char buf '(';
    walk height left;
    Buffer.add_char buf ',';
    walk height right;
    Buffer.add_char buf ')');
  Buffer.add_char buf ';';
  Buffer.contents buf
