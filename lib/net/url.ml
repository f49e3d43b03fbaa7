let unreserved c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '-' || c = '_' || c = '.' || c = '~'

let percent_encode s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      if unreserved c then Buffer.add_char buf c
      else Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents buf

(* Digit value or -1, from a table: an escape allocates nothing. *)
let hex_val = Leakdetect_util.Hex.value

let percent_decode s =
  let n = String.length s in
  let buf = Buffer.create n in
  let rec loop i =
    if i = n then Some (Buffer.contents buf)
    else
      match s.[i] with
      | '%' ->
        if i + 2 >= n then None
        else (
          match (hex_val s.[i + 1], hex_val s.[i + 2]) with
          | hi, lo when hi >= 0 && lo >= 0 ->
            Buffer.add_char buf (Char.chr ((hi lsl 4) lor lo));
            loop (i + 3)
          | _ -> None)
      | '+' ->
        Buffer.add_char buf ' ';
        loop (i + 1)
      | c ->
        Buffer.add_char buf c;
        loop (i + 1)
  in
  loop 0

let percent_decode_strict s =
  let n = String.length s in
  let buf = Buffer.create n in
  let rec loop i =
    if i = n then Some (Buffer.contents buf)
    else
      match s.[i] with
      | '%' ->
        if i + 2 >= n then None
        else (
          match (hex_val s.[i + 1], hex_val s.[i + 2]) with
          | hi, lo when hi >= 0 && lo >= 0 ->
            Buffer.add_char buf (Char.chr ((hi lsl 4) lor lo));
            loop (i + 3)
          | _ -> None)
      | c ->
        Buffer.add_char buf c;
        loop (i + 1)
  in
  loop 0

let percent_decode_lenient s =
  let n = String.length s in
  let buf = Buffer.create n in
  let decoded = ref 0 in
  let rec loop i =
    if i = n then (Buffer.contents buf, !decoded)
    else
      match s.[i] with
      | '%' when i + 2 < n -> (
        match (hex_val s.[i + 1], hex_val s.[i + 2]) with
        | hi, lo when hi >= 0 && lo >= 0 ->
          Buffer.add_char buf (Char.chr ((hi lsl 4) lor lo));
          incr decoded;
          loop (i + 3)
        | _ ->
          Buffer.add_char buf '%';
          loop (i + 1))
      | c ->
        Buffer.add_char buf c;
        loop (i + 1)
  in
  loop 0

let encode_query params =
  String.concat "&"
    (List.map (fun (k, v) -> percent_encode k ^ "=" ^ percent_encode v) params)

let decode_query q =
  if q = "" then Some []
  else
    let decode_pair pair =
      match String.index_opt pair '=' with
      | None -> Option.map (fun k -> (k, "")) (percent_decode pair)
      | Some i -> (
        let k = String.sub pair 0 i in
        let v = String.sub pair (i + 1) (String.length pair - i - 1) in
        match (percent_decode k, percent_decode v) with
        | Some k, Some v -> Some (k, v)
        | _ -> None)
    in
    let pairs = String.split_on_char '&' q in
    let decoded = List.filter_map decode_pair pairs in
    if List.length decoded = List.length pairs then Some decoded else None

let split_path_query s =
  match String.index_opt s '?' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
