let failure_function needle =
  let m = String.length needle in
  let f = Array.make (max m 1) 0 in
  let k = ref 0 in
  for i = 1 to m - 1 do
    while !k > 0 && needle.[!k] <> needle.[i] do
      k := f.(!k - 1)
    done;
    if needle.[!k] = needle.[i] then incr k;
    f.(i) <- !k
  done;
  f

type compiled = { needle : string; fail : int array }

let compile needle = { needle; fail = failure_function needle }
let compiled_needle c = c.needle

let find { needle; fail } ?(from = 0) hay =
  let m = String.length needle and n = String.length hay in
  let from = max from 0 in
  if m = 0 then if from <= n then Some (min from n) else None
  else if from + m > n then None
  else begin
    let k = ref 0 in
    let result = ref None in
    (try
       for i = from to n - 1 do
         while !k > 0 && needle.[!k] <> hay.[i] do
           k := fail.(!k - 1)
         done;
         if needle.[!k] = hay.[i] then incr k;
         if !k = m then begin
           result := Some (i - m + 1);
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

let matches c hay = Option.is_some (find c hay)
let index ?from ~needle hay = find (compile needle) ?from hay
let contains ~needle hay = Option.is_some (index ~needle hay)
