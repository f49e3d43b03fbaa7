let mean xs =
  if Array.length xs = 0 then 0.
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let mean_int xs = mean (Array.map float_of_int xs)

let max_int_arr xs =
  if Array.length xs = 0 then invalid_arg "Stats.max_int_arr: empty input";
  Array.fold_left max xs.(0) xs

let histogram xs =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun x -> Hashtbl.replace tbl x (1 + Option.value ~default:0 (Hashtbl.find_opt tbl x)))
    xs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

type cdf_point = { value : int; fraction : float }

let cdf xs =
  let total = Array.length xs in
  let _, points =
    List.fold_left
      (fun (cum, acc) (value, count) ->
        let cumulative = cum + count in
        let fraction =
          if total = 0 then 0. else float_of_int cumulative /. float_of_int total
        in
        (cumulative, { value; fraction } :: acc))
      (0, []) (histogram xs)
  in
  List.rev points
