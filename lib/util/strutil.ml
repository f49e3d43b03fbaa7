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

let truncate_middle width s =
  if String.length s <= width then s
  else if width <= 3 then String.sub s 0 (max width 0)
  else
    let keep = width - 3 in
    let left = (keep + 1) / 2 and right = keep / 2 in
    String.sub s 0 left ^ "..." ^ String.sub s (String.length s - right) right

let add_int buf n =
  let rec digits n =
    if n >= 10 then digits (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))
  in
  if n >= 0 then digits n
  else if n = min_int then Buffer.add_string buf (string_of_int n)
  else begin
    Buffer.add_char buf '-';
    digits (-n)
  end
