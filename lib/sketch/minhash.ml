(* 64-bit minhash.  Each of the [hashes] slots carries an independent
   permutation proxy: a SplitMix64-style finalizer keyed by one Prng draw.
   The signature slot is the minimum keyed hash over the shingle set, so
   P[slot_a = slot_b] equals the Jaccard similarity of the two sets and the
   fraction of agreeing slots is an unbiased estimator with variance
   J(1-J)/hashes. *)

module Prng = Leakdetect_util.Prng

type t = { keys : int64 array }

let create ~hashes ~seed =
  if hashes < 1 then invalid_arg "Minhash.create: hashes must be >= 1";
  let rng = Prng.create seed in
  (* One raw 64-bit draw per slot; equal seeds give equal key vectors, which
     is the whole determinism story for sketch mode. *)
  { keys = Array.init hashes (fun _ -> Prng.int64 rng) }

(* SplitMix64 finalizer — a strong 64-bit mixer, bijective, so distinct
   shingles never collide within a slot.  Inlined into the signature loop
   so its argument and result stay unboxed. *)
let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Sentinel for the empty shingle set: no shingle can hash to it after
   mixing with overwhelming probability, and two empty payloads agree on
   every slot (Jaccard 1 by convention, matching Shingle.jaccard). *)
let empty_slot = Int64.max_int

(* Each slot is the unsigned minimum of the keyed hashes, found in a plain
   loop over a local ref, which ocamlopt keeps unboxed (a closure over the
   ref would box every candidate).  Flipping the top bit turns unsigned
   order into signed order, so the comparison is one signed [<].  The
   running minimum starts at [empty_slot], flipped: a slot whose every hash
   has its top bit set (unsigned above [Int64.max_int]) keeps
   [Int64.max_int], as an unsigned minimum started there must. *)
let signature t shingles =
  let k = Array.length t.keys in
  let sig_ = Array.make k empty_slot in
  let m = Array.length shingles in
  if m > 0 then
    for slot = 0 to k - 1 do
      let key = t.keys.(slot) in
      let best = ref (Int64.logxor empty_slot Int64.min_int) in
      for j = 0 to m - 1 do
        let h = mix64 (Int64.logxor (Int64.of_int shingles.(j)) key) in
        let flipped = Int64.logxor h Int64.min_int in
        if flipped < !best then best := flipped
      done;
      sig_.(slot) <- Int64.logxor !best Int64.min_int
    done;
  sig_

let estimate a b =
  let k = Array.length a in
  if k <> Array.length b then invalid_arg "Minhash.estimate: signature widths differ";
  if k = 0 then 0.
  else begin
    let agree = ref 0 in
    for i = 0 to k - 1 do
      if Int64.equal a.(i) b.(i) then incr agree
    done;
    float_of_int !agree /. float_of_int k
  end
