let distance a b =
  (* Keep the shorter string as the row to bound memory. *)
  let a, b = if String.length a <= String.length b then (a, b) else (b, a) in
  let m = String.length a and n = String.length b in
  if m = 0 then n
  else begin
    let prev = Array.init (m + 1) (fun i -> i) in
    let cur = Array.make (m + 1) 0 in
    for j = 1 to n do
      cur.(0) <- j;
      for i = 1 to m do
        let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
        cur.(i) <- min (min (cur.(i - 1) + 1) (prev.(i) + 1)) (prev.(i - 1) + cost)
      done;
      Array.blit cur 0 prev 0 (m + 1)
    done;
    prev.(m)
  end

let normalized a b =
  let la = String.length a and lb = String.length b in
  if la = 0 && lb = 0 then 0.
  else float_of_int (distance a b) /. float_of_int (max la lb)
