let alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
let alphabet_url = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_"

let encode_with ~alphabet ~pad s =
  let n = String.length s in
  let out = Buffer.create ((n + 2) / 3 * 4) in
  let emit_group b0 b1 b2 count =
    let triple = (b0 lsl 16) lor (b1 lsl 8) lor b2 in
    Buffer.add_char out alphabet.[(triple lsr 18) land 0x3f];
    Buffer.add_char out alphabet.[(triple lsr 12) land 0x3f];
    if count > 1 then Buffer.add_char out alphabet.[(triple lsr 6) land 0x3f]
    else if pad then Buffer.add_char out '=';
    if count > 2 then Buffer.add_char out alphabet.[triple land 0x3f]
    else if pad then Buffer.add_char out '='
  in
  let i = ref 0 in
  while !i + 3 <= n do
    emit_group (Char.code s.[!i]) (Char.code s.[!i + 1]) (Char.code s.[!i + 2]) 3;
    i := !i + 3
  done;
  (match n - !i with
  | 1 -> emit_group (Char.code s.[!i]) 0 0 1
  | 2 -> emit_group (Char.code s.[!i]) (Char.code s.[!i + 1]) 0 2
  | _ -> ());
  Buffer.contents out

let encode s = encode_with ~alphabet ~pad:true s
let encode_url s = encode_with ~alphabet:alphabet_url ~pad:false s

(* Digit values by byte, over both alphabets ('+'/'-' are 62, '/'/'_' 63),
   0xff for any other byte: one load per character, no [option] to
   allocate. *)
let values =
  String.init 256 (fun i ->
      match Char.chr i with
      | 'A' .. 'Z' as c -> Char.chr (Char.code c - Char.code 'A')
      | 'a' .. 'z' as c -> Char.chr (Char.code c - Char.code 'a' + 26)
      | '0' .. '9' as c -> Char.chr (Char.code c - Char.code '0' + 52)
      | '+' | '-' -> '\062'
      | '/' | '_' -> '\063'
      | _ -> '\xff')

let value s i = Char.code (String.unsafe_get values (Char.code (String.unsafe_get s i)))

(* Both alphabets share the first 62 digits; the last two decide which one
   an input is written in.  Mixing them is rejected: no real encoder emits
   both, so a mixed string is noise, not data.  The whole input is
   validated before the first byte is appended. *)
let decode_into buf s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Base64.decode_into";
  let stop = pos + len in
  let pad =
    if len >= 1 && s.[stop - 1] = '=' then if len >= 2 && s.[stop - 2] = '=' then 2 else 1
    else 0
  in
  let core = len - pad in
  let valid_length =
    (pad = 0 && core mod 4 <> 1) || (pad > 0 && (core + pad) mod 4 = 0 && core mod 4 >= 2)
  in
  if not valid_length then false
  else if core = 0 then pad = 0
  else begin
    let std = ref false and url = ref false and ok = ref true in
    for i = pos to pos + core - 1 do
      match String.unsafe_get s i with
      | '+' | '/' -> std := true
      | '-' | '_' -> url := true
      | _ -> if value s i = 0xff then ok := false
    done;
    !ok && not (!std && !url)
    && begin
      let i = ref pos and last = pos + core in
      while !i + 4 <= last do
        let triple =
          (value s !i lsl 18) lor (value s (!i + 1) lsl 12) lor (value s (!i + 2) lsl 6)
          lor value s (!i + 3)
        in
        Buffer.add_char buf (Char.unsafe_chr ((triple lsr 16) land 0xff));
        Buffer.add_char buf (Char.unsafe_chr ((triple lsr 8) land 0xff));
        Buffer.add_char buf (Char.unsafe_chr (triple land 0xff));
        i := !i + 4
      done;
      (match last - !i with
      | 2 ->
        Buffer.add_char buf
          (Char.unsafe_chr (((value s !i lsl 2) lor (value s (!i + 1) lsr 4)) land 0xff))
      | 3 ->
        Buffer.add_char buf
          (Char.unsafe_chr (((value s !i lsl 2) lor (value s (!i + 1) lsr 4)) land 0xff));
        Buffer.add_char buf
          (Char.unsafe_chr (((value s (!i + 1) lsl 4) lor (value s (!i + 2) lsr 2)) land 0xff))
      | _ -> ());
      true
    end
  end

let decode s =
  let buf = Buffer.create (String.length s / 4 * 3 + 2) in
  if decode_into buf s ~pos:0 ~len:(String.length s) then Some (Buffer.contents buf) else None
