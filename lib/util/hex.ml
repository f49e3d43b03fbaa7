let digits = "0123456789abcdef"

let encode s =
  let n = String.length s in
  let out = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code s.[i] in
    Bytes.set out (2 * i) digits.[c lsr 4];
    Bytes.set out ((2 * i) + 1) digits.[c land 0xf]
  done;
  Bytes.unsafe_to_string out

(* Digit values by byte, 0xff for a non-digit: one load per character, no
   [option] to allocate. *)
let values =
  String.init 256 (fun i ->
      match Char.chr i with
      | '0' .. '9' as c -> Char.chr (Char.code c - Char.code '0')
      | 'a' .. 'f' as c -> Char.chr (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' as c -> Char.chr (Char.code c - Char.code 'A' + 10)
      | _ -> '\xff')

let value c = match String.unsafe_get values (Char.code c) with '\xff' -> -1 | v -> Char.code v
let is_digit c = String.unsafe_get values (Char.code c) <> '\xff'

let decode_into buf s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Hex.decode_into";
  len mod 2 = 0
  &&
  let mark = Buffer.length buf in
  let i = ref pos and ok = ref true in
  while !ok && !i < pos + len do
    let hi = value (String.unsafe_get s !i) and lo = value (String.unsafe_get s (!i + 1)) in
    if hi < 0 || lo < 0 then ok := false
    else Buffer.add_char buf (Char.unsafe_chr ((hi lsl 4) lor lo));
    i := !i + 2
  done;
  if not !ok then Buffer.truncate buf mark;
  !ok

let is_hex s = String.length s > 0 && String.for_all is_digit s

(* The guard keeps [v * 16 + d] within [max_int] before each shift, so an
   over-long size reads as -1 instead of wrapping negative. *)
let int_of_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Hex.int_of_sub";
  let v = ref (if len = 0 then -1 else 0) and i = ref pos in
  while !v >= 0 && !i < pos + len do
    let d = value (String.unsafe_get s !i) in
    v := if d < 0 || !v > (max_int - d) lsr 4 then -1 else (!v lsl 4) lor d;
    incr i
  done;
  !v
