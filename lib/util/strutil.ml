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
