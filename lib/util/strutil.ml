let find_from s ~pos ~stop sub =
  let m = String.length sub in
  if m = 0 then invalid_arg "Strutil: empty separator";
  if pos < 0 || stop > String.length s then invalid_arg "Strutil.find_from";
  (* Bytes are compared in place: no substring is ever taken, and the
     loops allocate nothing. *)
  let c0 = sub.[0] and last = stop - m in
  let i = ref pos and found = ref (-1) in
  while !found < 0 && !i <= last do
    if String.unsafe_get s !i = c0 then begin
      let k = ref 1 in
      while !k < m && String.unsafe_get s (!i + !k) = String.unsafe_get sub !k do incr k done;
      if !k = m then found := !i
    end;
    incr i
  done;
  !found

let index_in s ~pos ~stop c =
  if pos < 0 || stop > String.length s then invalid_arg "Strutil.index_in";
  let i = ref pos in
  while !i < stop && String.unsafe_get s !i <> c do incr i done;
  if !i < stop then !i else -1

let equal_caseless a b =
  let n = String.length a in
  n = String.length b
  &&
  let i = ref 0 in
  while !i < n && Char.lowercase_ascii a.[!i] = Char.lowercase_ascii b.[!i] do incr i done;
  !i = n

let chop_prefix ~prefix s =
  let lp = String.length prefix in
  if String.length s >= lp && String.sub s 0 lp = prefix then
    Some (String.sub s lp (String.length s - lp))
  else None

let chop_suffix ~suffix s =
  let ls = String.length suffix and l = String.length s in
  if l >= ls && String.sub s (l - ls) ls = suffix then
    Some (String.sub s 0 (l - ls))
  else None

let trim_spaces s =
  let n = String.length s in
  let is_sp c = c = ' ' || c = '\t' in
  let i = ref 0 and j = ref (n - 1) in
  while !i < n && is_sp s.[!i] do incr i done;
  while !j >= !i && is_sp s.[!j] do decr j done;
  String.sub s !i (!j - !i + 1)

let take n s = if String.length s <= n then s else String.sub s 0 (max n 0)

let repeat s n =
  let buf = Buffer.create (String.length s * max n 0) in
  for _ = 1 to n do Buffer.add_string buf s done;
  Buffer.contents buf

let common_prefix_len a b =
  let n = min (String.length a) (String.length b) in
  let rec loop i = if i < n && a.[i] = b.[i] then loop (i + 1) else i in
  loop 0

let is_printable_ascii s =
  String.for_all (fun c -> c >= '\x20' && c <= '\x7e') s

let truncate_middle width s =
  if String.length s <= width then s
  else if width <= 3 then String.sub s 0 (max width 0)
  else
    let keep = width - 3 in
    let left = (keep + 1) / 2 and right = keep / 2 in
    String.sub s 0 left ^ "..." ^ String.sub s (String.length s - right) right
