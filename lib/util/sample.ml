let shuffle rng arr =
  for i = Array.length arr - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let without_replacement rng n arr =
  if n < 0 then invalid_arg "Sample.without_replacement: negative n";
  let len = Array.length arr in
  let n = min n len in
  if n = 0 then [||]
  else begin
    (* Partial Fisher-Yates on a copy: only the first n slots are needed. *)
    let a = Array.copy arr in
    for i = 0 to n - 1 do
      let j = i + Prng.int rng (len - i) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    Array.sub a 0 n
  end

let weighted_index rng w =
  let total = Array.fold_left ( +. ) 0. w in
  if Array.length w = 0 || total <= 0. then
    invalid_arg "Sample.weighted_index: empty or non-positive weights";
  let target = Prng.float rng *. total in
  let rec loop i acc =
    if i = Array.length w - 1 then i
    else
      let acc = acc +. w.(i) in
      if target < acc then i else loop (i + 1) acc
  in
  loop 0 0.

let zipf_weights ~n ~s =
  if n <= 0 then invalid_arg "Sample.zipf_weights: n must be positive";
  Array.init n (fun i -> 1. /. Float.pow (float_of_int (i + 1)) s)

let gaussian rng =
  (* Box-Muller; guard against log 0. *)
  let u1 = Float.max 1e-300 (Prng.float rng) in
  let u2 = Prng.float rng in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

let lognormal rng ~mu ~sigma = exp (mu +. (sigma *. gaussian rng))

let poisson rng mean =
  if mean <= 0. then invalid_arg "Sample.poisson: mean must be positive";
  if mean < 30. then begin
    let limit = exp (-.mean) in
    let rec loop k p =
      let p = p *. Prng.float rng in
      if p <= limit then k else loop (k + 1) p
    in
    loop 0 1.
  end
  else
    (* Normal approximation is ample for workload sizing. *)
    max 0 (int_of_float (Float.round (mean +. (sqrt mean *. gaussian rng))))
