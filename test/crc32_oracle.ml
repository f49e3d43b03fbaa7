(* Reference GF(2) arithmetic for [Leakdetect_util.Crc32.combine]: the
   original bit-at-a-time product (32 conditional shifts), kept as the
   differential-test oracle for the nibble-table kernel, and zlib's plain
   square-and-multiply shift, which uses no per-byte table.  Only the
   values matter here, not the speed. *)

let poly = 0xEDB88320

(* a * b mod the polynomial; bit 31 is x^0, bit 0 is x^31. *)
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

(* x^(n * 2^k) mod the polynomial, one product per set bit of [n]. *)
let x2nmodp n k =
  let rec go n k p =
    if n = 0 then p
    else go (n lsr 1) (k + 1) (if n land 1 = 1 then multmodp x2n.(k land 31) p else p)
  in
  go n k (1 lsl 31)

let combine crc1 crc2 len2 = multmodp (x2nmodp len2 3) crc1 lxor crc2
