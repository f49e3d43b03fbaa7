(* Reflected CRC-32 with the IEEE polynomial, one 256-entry table. *)

let poly = 0xEDB88320

let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then poly lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

(* The state is the bit-inverted running remainder, so [update] composes and
   [value] is a pure read. *)
type t = int

let init = 0xFFFFFFFF

let update t ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg
      (Printf.sprintf "Crc32.update: slice [%d, %d) out of bounds" pos (pos + len));
  let acc = ref t in
  for i = pos to pos + len - 1 do
    acc :=
      Array.unsafe_get table ((!acc lxor Char.code (String.unsafe_get s i)) land 0xff)
      lxor (!acc lsr 8)
  done;
  !acc

let value t = t lxor 0xFFFFFFFF
let string s = value (update init s)

(* --- combining checksums of adjacent strings ---

   zlib >= 1.2.12's method: CRC-32 is affine over GF(2), so
   crc (a ^ b) = crc a * x^(8 |b|) + crc b  (mod the polynomial).
   Polynomials are 32-bit words in the table's reflected order: bit 31
   is x^0, bit 0 is x^31. *)

(* p * x mod the polynomial: x^31 (bit 0) falls off the end and folds
   back in as the polynomial. *)
let mulx p = if p land 1 = 1 then (p lsr 1) lxor poly else p lsr 1

(* mulx4.(n) = n * x^4 for a word with only its low nibble (x^28..x^31)
   set; the rest of a word shifts by x^4 without reduction. *)
let mulx4 = Array.init 16 (fun n -> mulx (mulx (mulx (mulx n))))

(* a * b mod the polynomial, a nibble of [a] at a time by Horner's rule
   from its highest-degree nibble (bits 0-3): p <- p * x^4 + q * b, where
   [q], of degree < 4, indexes the 16 multiples of [b]. *)
let multmodp a b =
  let b1 = mulx b in
  let b2 = mulx b1 in
  let b3 = mulx b2 in
  (* Nibble bit 0 is x^3 of [q], bit 3 is x^0. *)
  let m =
    [| 0; b3; b2; b3 lxor b2; b1; b1 lxor b3; b1 lxor b2; b1 lxor b2 lxor b3;
       b; b lxor b3; b lxor b2; b lxor b2 lxor b3; b lxor b1; b lxor b1 lxor b3;
       b lxor b1 lxor b2; b lxor b1 lxor b2 lxor b3 |]
  in
  let p = ref 0 in
  for j = 0 to 7 do
    p :=
      (!p lsr 4)
      lxor Array.unsafe_get mulx4 (!p land 0xf)
      lxor Array.unsafe_get m ((a lsr (4 * j)) land 0xf)
  done;
  !p

(* x^0, the product's identity. *)
let one = 1 lsl 31

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
  go n k one

(* bytes_shift.(j).(b) = x^(8 b 256^j), the shift past b * 256^j zero
   bytes: the shift past any length below 4 GiB is one product per
   non-zero byte of the length rather than one per set bit. *)
let bytes_shift =
  lazy
    (Array.init 4 (fun j ->
         let step = x2n.(3 + (8 * j)) in
         let t = Array.make 256 one in
         for b = 1 to 255 do
           t.(b) <- multmodp t.(b - 1) step
         done;
         t))

(* x^(8 n) mod the polynomial.  A product by [one] is its other factor,
   so the first factor is taken as it is: a length below 64 KiB costs at
   most one product. *)
let shift n =
  let bytes_shift = Lazy.force bytes_shift in
  let rec go n j p =
    if n = 0 then p
    else
      let b = n land 0xff in
      let p =
        if b = 0 then p
        else
          let f = if j < 4 then bytes_shift.(j).(b) else x2nmodp b (3 + (8 * j)) in
          if p = one then f else multmodp p f
      in
      go (n lsr 8) (j + 1) p
  in
  go n 0 one

let combine crc1 crc2 len2 =
  if len2 < 0 then invalid_arg "Crc32.combine: negative length";
  if crc1 = 0 || len2 = 0 then crc1 lxor crc2
  else multmodp (shift len2) crc1 lxor crc2

let to_hex v = Printf.sprintf "%08x" (v land 0xFFFFFFFF)
