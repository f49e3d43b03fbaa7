type t = int

let max_addr = (1 lsl 32) - 1

let of_int v =
  if v < 0 || v > max_addr then invalid_arg "Ipv4.of_int: out of range";
  v

let to_int t = t

let of_octets a b c d =
  let check o = if o < 0 || o > 255 then invalid_arg "Ipv4.of_octets: bad octet" in
  check a;
  check b;
  check c;
  check d;
  (a lsl 24) lor (b lsl 16) lor (c lsl 8) lor d

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
    let parse o =
      match int_of_string_opt o with
      | Some v when v >= 0 && v <= 255 && String.length o <= 3 && o <> "" -> Some v
      | _ -> None
    in
    match (parse a, parse b, parse c, parse d) with
    | Some a, Some b, Some c, Some d -> Some (of_octets a b c d)
    | _ -> None)
  | _ -> None

let to_string t =
  Printf.sprintf "%d.%d.%d.%d" ((t lsr 24) land 0xff) ((t lsr 16) land 0xff)
    ((t lsr 8) land 0xff) (t land 0xff)

let lmatch a b =
  let diff = a lxor b in
  if diff = 0 then 32
  else
    (* Index of the highest set bit of a 32-bit value. *)
    let rec scan bit count = if diff land (1 lsl bit) <> 0 then count else scan (bit - 1) (count + 1) in
    scan 31 0

let similarity a b = float_of_int (lmatch a b) /. 32.
