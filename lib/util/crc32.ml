(* Reflected CRC-32 with the IEEE polynomial, one 256-entry table. *)

let poly = 0xEDB88320

let table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then poly lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

(* The state is the bit-inverted running remainder, so [update] composes and
   [value] is a pure read. *)
type t = int

let init = 0xFFFFFFFF

let update_in table acc get pos len =
  let acc = ref acc in
  for i = pos to pos + len - 1 do
    acc := table.((!acc lxor Char.code (get i)) land 0xff) lxor (!acc lsr 8)
  done;
  !acc

let check_slice ~what ~length ~pos ~len =
  if pos < 0 || len < 0 || pos + len > length then
    invalid_arg (Printf.sprintf "Crc32.%s: slice [%d, %d) out of bounds" what pos (pos + len))

let update t ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  check_slice ~what:"update" ~length:(String.length s) ~pos ~len;
  update_in (Lazy.force table) t (String.unsafe_get s) pos len

let value t = t lxor 0xFFFFFFFF
let string s = value (update init s)

let bytes ?(pos = 0) ?len b =
  let len = match len with Some l -> l | None -> Bytes.length b - pos in
  check_slice ~what:"bytes" ~length:(Bytes.length b) ~pos ~len;
  value (update_in (Lazy.force table) init (Bytes.unsafe_get b) pos len)

(* --- combining checksums of adjacent strings ---

   zlib >= 1.2.12's method: CRC-32 is affine over GF(2), so
   crc (a ^ b) = crc a * x^(8 |b|) + crc b  (mod the polynomial).
   Polynomials are 32-bit words in the table's reflected order: bit 31
   is x^0, bit 0 is x^31. *)

(* a * b mod the polynomial. *)
let multmodp a b =
  let rec go a b p =
    if a = 0 then p
    else
      go
        ((a lsl 1) land 0xFFFFFFFF)
        (if b land 1 = 1 then (b lsr 1) lxor poly else b lsr 1)
        (if a land 0x80000000 <> 0 then p lxor b else p)
  in
  go a b 0

(* x2n.(k) = x^(2^k) mod the polynomial. *)
let x2n =
  let t = Array.make 32 0 in
  t.(0) <- 1 lsl 30;
  for k = 1 to 31 do
    t.(k) <- multmodp t.(k - 1) t.(k - 1)
  done;
  t

(* x^(n * 2^k) mod the polynomial. *)
let x2nmodp n k =
  let rec go n k p =
    if n = 0 then p
    else go (n lsr 1) (k + 1) (if n land 1 = 1 then multmodp x2n.(k land 31) p else p)
  in
  go n k (1 lsl 31)

(* bytes_shift.(j).(b) = x^(8 b 256^j), the shift past b * 256^j zero
   bytes: the shift past any length below 4 GiB is one product per
   non-zero byte of the length rather than one per set bit. *)
let bytes_shift =
  lazy
    (Array.init 4 (fun j ->
         let step = x2n.(3 + (8 * j)) in
         let t = Array.make 256 (1 lsl 31) in
         for b = 1 to 255 do
           t.(b) <- multmodp t.(b - 1) step
         done;
         t))

(* x^(8 n) mod the polynomial. *)
let shift n =
  let bytes_shift = Lazy.force bytes_shift in
  let rec go n j p =
    if n = 0 then p
    else
      let b = n land 0xff in
      let p =
        if b = 0 then p
        else if j < 4 then multmodp p bytes_shift.(j).(b)
        else multmodp p (x2nmodp b (3 + (8 * j)))
      in
      go (n lsr 8) (j + 1) p
  in
  go n 0 (1 lsl 31)

let combine crc1 crc2 len2 =
  if len2 < 0 then invalid_arg "Crc32.combine: negative length";
  if crc1 = 0 || len2 = 0 then crc1 lxor crc2
  else multmodp (shift len2) crc1 lxor crc2

let to_hex v = Printf.sprintf "%08x" (v land 0xFFFFFFFF)
