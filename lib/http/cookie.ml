
let to_string pairs =
  String.concat "; "
    (List.map (fun (k, v) -> if v = "" then k else k ^ "=" ^ v) pairs)
