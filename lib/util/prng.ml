type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

(* SplitMix64, used only to expand the user seed into xoshiro state. *)
let splitmix64 state =
  let ( +% ) = Int64.add and ( *% ) = Int64.mul in
  let ( ^^ ) = Int64.logxor and ( >>> ) = Int64.shift_right_logical in
  state := !state +% 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = (z ^^ (z >>> 30)) *% 0xBF58476D1CE4E5B9L in
  let z = (z ^^ (z >>> 27)) *% 0x94D049BB133111EBL in
  z ^^ (z >>> 31)

let create seed =
  let st = ref (Int64.of_int seed) in
  let s0 = splitmix64 st in
  let s1 = splitmix64 st in
  let s2 = splitmix64 st in
  let s3 = splitmix64 st in
  { s0; s1; s2; s3 }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let int64 t =
  let ( *% ) = Int64.mul and ( ^^ ) = Int64.logxor in
  let result = Int64.mul (rotl (t.s1 *% 5L) 7) 9L in
  let tmp = Int64.shift_left t.s1 17 in
  t.s2 <- t.s2 ^^ t.s0;
  t.s3 <- t.s3 ^^ t.s1;
  t.s1 <- t.s1 ^^ t.s2;
  t.s0 <- t.s0 ^^ t.s3;
  t.s2 <- t.s2 ^^ tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  let st = ref (int64 t) in
  let s0 = splitmix64 st in
  let s1 = splitmix64 st in
  let s2 = splitmix64 st in
  let s3 = splitmix64 st in
  { s0; s1; s2; s3 }

let bits30 t = Int64.to_int (Int64.shift_right_logical (int64 t) 34)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  if bound <= 1 lsl 30 then begin
    (* Rejection sampling over 30 bits keeps the draw unbiased. *)
    let mask_draws () =
      let rec loop () =
        let r = bits30 t in
        if r >= (1 lsl 30) / bound * bound then loop () else r mod bound
      in
      loop ()
    in
    mask_draws ()
  end
  else
    (* Large bounds: fold 60 bits; bias is negligible for simulation use. *)
    let hi = bits30 t and lo = bits30 t in
    ((hi lsl 30) lor lo) mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t =
  (* 53 uniform bits scaled to [0,1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  float_of_int bits *. 0x1p-53

let bool t = Int64.compare (Int64.logand (int64 t) 1L) 0L <> 0
let chance t p = float t < p

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Prng.pick: empty array";
  arr.(int t (Array.length arr))
