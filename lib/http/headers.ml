type t = (string * string) list
(* Invariant: wire order preserved; lookups are case-insensitive. *)

let empty = []
let of_list l = l
let to_list t = t
let add t name value = t @ [ (name, value) ]

let same = Leakdetect_util.Strutil.equal_caseless

let remove t name = List.filter (fun (n, _) -> not (same n name)) t

let replace t name value =
  let rec loop replaced acc = function
    | [] -> List.rev (if replaced then acc else (name, value) :: acc)
    | (n, _) :: rest when same n name ->
      if replaced then loop true acc rest else loop true ((name, value) :: acc) rest
    | kv :: rest -> loop replaced (kv :: acc) rest
  in
  loop false [] t

let get t name = List.find_map (fun (n, v) -> if same n name then Some v else None) t
let mem t name = Option.is_some (get t name)
