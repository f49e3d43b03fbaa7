(* Byte n-gram shingling.  A payload becomes the set of hashes of its
   overlapping n-byte windows; Jaccard similarity over those sets is the
   resemblance measure minhash estimates.  Hashes are FNV-1a 64-bit
   masked to their low 62 bits, a non-negative OCaml int — a collision
   only merges two shingles, which perturbs the estimated similarity by
   O(1/|set|).

   The hash runs in native int, not [Int64]: xor and multiplication carry
   nothing from high bits down to low bits, so the low 62 bits of the
   63-bit native computation are the low 62 bits of the 64-bit one, and
   nothing is boxed.  The offset basis is the 64-bit one cut to those low
   62 bits. *)

let fnv_offset = 0x0bf29ce484222325
let fnv_prime = 0x100000001b3
let mask62 = 0x3fffffffffffffff

let fnv1a s ~off ~len =
  let h = ref fnv_offset in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code s.[i]) * fnv_prime
  done;
  !h land mask62

let swap (a : int array) i j =
  let t = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- t

let insertion_sort (a : int array) lo hi =
  for i = lo + 1 to hi do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done

let heap_sort (a : int array) lo hi =
  let n = hi - lo + 1 in
  let rec sift root len =
    let child = (2 * root) + 1 in
    if child < len then begin
      let child =
        if child + 1 < len && a.(lo + child) < a.(lo + child + 1) then child + 1 else child
      in
      if a.(lo + root) < a.(lo + child) then begin
        swap a (lo + root) (lo + child);
        sift child len
      end
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    swap a lo (lo + last);
    sift 0 last
  done

(* In-place ascending sort of [a.(lo..hi)], specialised to int so that a
   comparison is one instruction and not a closure call: median-of-three
   quicksort over Hoare partitions (balanced on runs of equal keys),
   insertion sort below 16 elements, and heapsort once [depth] levels are
   spent, so no payload can drive it quadratic. *)
let rec intro_sort (a : int array) lo hi depth =
  if hi - lo < 16 then insertion_sort a lo hi
  else if depth = 0 then heap_sort a lo hi
  else begin
    let mid = lo + ((hi - lo) / 2) in
    if a.(mid) < a.(lo) then swap a mid lo;
    if a.(hi) < a.(mid) then begin
      swap a hi mid;
      if a.(mid) < a.(lo) then swap a mid lo
    end;
    let pivot = a.(mid) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while pivot < a.(!j) do decr j done;
      if !i <= !j then begin
        swap a !i !j;
        incr i;
        decr j
      end
    done;
    intro_sort a lo !j (depth - 1);
    intro_sort a !i hi (depth - 1)
  end

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

let set ?(n = 4) s =
  if n < 1 then invalid_arg "Shingle.set: n must be >= 1";
  let len = String.length s in
  if len = 0 then [||]
  else if len <= n then [| fnv1a s ~off:0 ~len |]
  else begin
    (* Every window's hash, sorted in place, then uniqued in place: the
       sorted distinct prefix is the set. *)
    let windows = len - n + 1 in
    let a = Array.make windows 0 in
    for i = 0 to windows - 1 do
      a.(i) <- fnv1a s ~off:i ~len:n
    done;
    intro_sort a 0 (windows - 1) (2 * log2 windows);
    let distinct = ref 1 in
    for i = 1 to windows - 1 do
      if a.(i) <> a.(!distinct - 1) then begin
        a.(!distinct) <- a.(i);
        incr distinct
      end
    done;
    if !distinct = windows then a else Array.sub a 0 !distinct
  end

(* Exact Jaccard over two sorted shingle sets, by merge. *)
let jaccard a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 && lb = 0 then 1.
  else begin
    let i = ref 0 and j = ref 0 and inter = ref 0 in
    while !i < la && !j < lb do
      let c = compare a.(!i) b.(!j) in
      if c = 0 then begin
        incr inter;
        incr i;
        incr j
      end
      else if c < 0 then incr i
      else incr j
    done;
    let union = la + lb - !inter in
    float_of_int !inter /. float_of_int union
  end
