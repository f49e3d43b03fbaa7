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

type percent_mode = Strict | Lenient | Form

(* Digit value or -1, from a table: an escape allocates nothing. *)
let hex_val = Leakdetect_util.Hex.value

(* Index of the first byte at or after [i] that decoding may rewrite ('%',
   and '+' in form mode), or the length of [s]. *)
let rec next_special ~plus s i =
  if i >= String.length s then i
  else
    match String.unsafe_get s i with
    | '%' -> i
    | '+' when plus -> i
    | _ -> next_special ~plus s (i + 1)

(* The spans between escapes are blitted; nothing is copied until the first
   byte that may change, and an input nothing rewrote comes back as is. *)
let percent_decode mode s =
  let n = String.length s in
  let plus = mode = Form in
  let first = next_special ~plus s 0 in
  if first = n then Some s
  else begin
    let out = Bytes.create n in
    Bytes.blit_string s 0 out 0 first;
    let i = ref first and o = ref first and rewritten = ref 0 and ok = ref true in
    (* Invariant: [s.[!i]] is '%' or, in form mode, '+'. *)
    while !ok && !i < n do
      let at = !i in
      if String.unsafe_get s at = '+' then begin
        Bytes.unsafe_set out !o ' ';
        incr rewritten;
        i := at + 1
      end
      else begin
        let hi = if at + 2 < n then hex_val (String.unsafe_get s (at + 1)) else -1 in
        let lo = if hi >= 0 then hex_val (String.unsafe_get s (at + 2)) else -1 in
        if lo >= 0 then begin
          Bytes.unsafe_set out !o (Char.unsafe_chr ((hi lsl 4) lor lo));
          incr rewritten;
          i := at + 3
        end
        else if mode = Lenient then begin
          Bytes.unsafe_set out !o '%';
          i := at + 1
        end
        else ok := false
      end;
      if !ok then begin
        incr o;
        let j = next_special ~plus s !i in
        Bytes.blit_string s !i out !o (j - !i);
        o := !o + (j - !i);
        i := j
      end
    done;
    if not !ok then None
    else if !rewritten = 0 then Some s
    else if !o = n then Some (Bytes.unsafe_to_string out)
    else Some (Bytes.sub_string out 0 !o)
  end

let encode_query params =
  String.concat "&"
    (List.map (fun (k, v) -> percent_encode k ^ "=" ^ percent_encode v) params)

let decode_query q =
  if q = "" then Some []
  else
    let decode_pair pair =
      match String.index_opt pair '=' with
      | None -> Option.map (fun k -> (k, "")) (percent_decode Form pair)
      | Some i -> (
        let k = String.sub pair 0 i in
        let v = String.sub pair (i + 1) (String.length pair - i - 1) in
        match (percent_decode Form k, percent_decode Form v) with
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
