type t = { n : int; cells : float array }

let npairs n = n * (n - 1) / 2

let create n =
  if n < 0 then invalid_arg "Dist_matrix.create: negative size";
  { n; cells = Array.make (max (npairs n) 1) 0. }

let index t i j =
  let i, j = if i < j then (i, j) else (j, i) in
  if i < 0 || j >= t.n then invalid_arg "Dist_matrix: index out of range";
  (i * t.n) - (i * (i + 1) / 2) + (j - i - 1)

let size t = t.n

let get t i j = if i = j then 0. else t.cells.(index t i j)

let set t i j v =
  if i = j then invalid_arg "Dist_matrix.set: diagonal is fixed at zero";
  t.cells.(index t i j) <- v

let build ?pool n f =
  let t = create n in
  (* Row i owns the contiguous condensed-index range for j > i, so rows can
     be filled from different domains without overlap.  Chunk 1: row cost
     shrinks linearly with i, and the atomic hand-off rebalances that. *)
  Leakdetect_parallel.Pool.parallel_for ~pool ~chunk:1 n (fun i ->
      for j = i + 1 to n - 1 do
        set t i j (f i j)
      done);
  t
