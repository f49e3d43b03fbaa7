module Int_map = Map.Make (Int)

type profile = { counts : int Int_map.t; norm : float }

let key s i =
  (Char.code s.[i] lsl 16) lor (Char.code s.[i + 1] lsl 8) lor Char.code s.[i + 2]

let profile s =
  let n = String.length s in
  let counts = ref Int_map.empty in
  for i = 0 to n - 3 do
    counts :=
      Int_map.update (key s i)
        (function None -> Some 1 | Some c -> Some (c + 1))
        !counts
  done;
  let norm =
    sqrt
      (Int_map.fold (fun _ c acc -> acc +. (float_of_int c *. float_of_int c)) !counts 0.)
  in
  { counts = !counts; norm }

let cardinality p = Int_map.cardinal p.counts

let cosine_similarity a b =
  if a.norm = 0. || b.norm = 0. then 0.
  else begin
    (* Iterate the smaller map. *)
    let small, large = if cardinality a <= cardinality b then (a, b) else (b, a) in
    let dot =
      Int_map.fold
        (fun k c acc ->
          match Int_map.find_opt k large.counts with
          | Some c' -> acc +. (float_of_int c *. float_of_int c')
          | None -> acc)
        small.counts 0.
    in
    dot /. (a.norm *. b.norm)
  end

let profile_distance px py =
  if px.norm = 0. && py.norm = 0. then 0.
  else if px.norm = 0. || py.norm = 0. then 1.
  else Float.max 0. (Float.min 1. (1. -. cosine_similarity px py))

let cosine_distance x y = profile_distance (profile x) (profile y)

module Cache = struct
  type t = (string, profile) Hashtbl.t

  let create () : t = Hashtbl.create 256

  let get t s =
    match Hashtbl.find_opt t s with
    | Some p -> p
    | None ->
      let p = profile s in
      Hashtbl.add t s p;
      p

  let distance t x y = profile_distance (get t x) (get t y)
end
