(* Reference sketch prefilter: the original boxed-[Int64] kernels of
   [Leakdetect_sketch], kept verbatim as the differential-test oracle for
   the unboxed ones.  [Shingle.set] hashes every window with boxed FNV-1a
   and dedups through a [Hashtbl]; [Minhash.signature] folds a closure
   over a captured [Int64] ref; [Lsh.band_key] steps a closure over
   another; [all_identical] compares boxed arrays with polymorphic [=].
   [bucket] is the whole driver (banding, refinement, rescue) over these
   kernels, sequential; rescue scores with the library's unchanged
   [Minhash.estimate].  Only its output matters here, not its speed. *)

module Prng = Leakdetect_util.Prng
module Sketch = Leakdetect_sketch.Sketch

(* --- Shingle.set --- *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv1a64 s ~off ~len =
  let h = ref fnv_offset in
  for i = off to off + len - 1 do
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) fnv_prime
  done;
  !h

let to_positive_int h = Int64.to_int (Int64.logand h 0x3fffffffffffffffL)

let shingle_set ?(n = 4) s =
  if n < 1 then invalid_arg "Shingle.set: n must be >= 1";
  let len = String.length s in
  if len = 0 then [||]
  else if len <= n then [| to_positive_int (fnv1a64 s ~off:0 ~len) |]
  else begin
    let windows = len - n + 1 in
    let seen = Hashtbl.create (min windows 1024) in
    for i = 0 to windows - 1 do
      let h = to_positive_int (fnv1a64 s ~off:i ~len:n) in
      if not (Hashtbl.mem seen h) then Hashtbl.add seen h ()
    done;
    let out = Array.make (Hashtbl.length seen) 0 in
    let i = ref 0 in
    Hashtbl.iter
      (fun h () ->
        out.(!i) <- h;
        incr i)
      seen;
    Array.sort compare out;
    out
  end

(* --- Minhash --- *)

type minhash = { keys : int64 array }

let minhash_create ~hashes ~seed =
  if hashes < 1 then invalid_arg "Minhash.create: hashes must be >= 1";
  let rng = Prng.create seed in
  { keys = Array.init hashes (fun _ -> Prng.int64 rng) }

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let empty_slot = Int64.max_int

let signature t shingles =
  let k = Array.length t.keys in
  let sig_ = Array.make k empty_slot in
  if Array.length shingles > 0 then
    for slot = 0 to k - 1 do
      let key = t.keys.(slot) in
      let best = ref Int64.max_int in
      Array.iter
        (fun sh ->
          let h = mix64 (Int64.logxor (Int64.of_int sh) key) in
          if Int64.unsigned_compare h !best < 0 then best := h)
        shingles;
      sig_.(slot) <- !best
    done;
  sig_

(* --- Lsh.buckets --- *)

let find parent i =
  let i = ref i in
  while parent.(!i) <> !i do
    parent.(!i) <- parent.(parent.(!i));
    i := parent.(!i)
  done;
  !i

let union parent a b =
  let ra = find parent a and rb = find parent b in
  if ra < rb then parent.(rb) <- ra else if rb < ra then parent.(ra) <- rb

let band_key ~band sig_ ~off ~rows =
  let h = ref (Int64.add 0xcbf29ce484222325L (Int64.of_int band)) in
  let step v = h := Int64.mul (Int64.logxor !h v) 0x100000001b3L in
  for r = off to off + rows - 1 do
    step sig_.(r)
  done;
  Int64.to_int (Int64.logand !h 0x3fffffffffffffffL)

let lsh_buckets ~bands ~rows sigs =
  if bands < 1 then invalid_arg "Lsh.buckets: bands must be >= 1";
  if rows < 1 then invalid_arg "Lsh.buckets: rows must be >= 1";
  let n = Array.length sigs in
  Array.iter
    (fun s ->
      if Array.length s < bands * rows then
        invalid_arg "Lsh.buckets: signature narrower than bands * rows")
    sigs;
  let parent = Array.init n (fun i -> i) in
  let table = Hashtbl.create (max 16 n) in
  for band = 0 to bands - 1 do
    Hashtbl.reset table;
    let off = band * rows in
    for i = 0 to n - 1 do
      let key = band_key ~band sigs.(i) ~off ~rows in
      match Hashtbl.find_opt table key with
      | None -> Hashtbl.add table key i
      | Some first -> union parent i first
    done
  done;
  let members = Hashtbl.create (max 16 n) in
  for i = n - 1 downto 0 do
    let r = find parent i in
    let tl = Option.value (Hashtbl.find_opt members r) ~default:[] in
    Hashtbl.replace members r (i :: tl)
  done;
  let roots = ref [] in
  for i = n - 1 downto 0 do
    if parent.(i) = i then roots := i :: !roots
  done;
  List.map (fun r -> Hashtbl.find members r) !roots

(* --- Sketch.signatures and Sketch.bucket --- *)

let signatures (p : Sketch.params) payloads =
  let mh = minhash_create ~hashes:p.Sketch.hashes ~seed:p.Sketch.seed in
  Array.map (fun payload -> signature mh (shingle_set ~n:p.Sketch.shingle_len payload)) payloads

let slice ~max_bucket members len =
  let arr = Array.of_list members in
  let slices = ref [] in
  let off = ref 0 in
  while !off < len do
    let take = min max_bucket (len - !off) in
    slices := Array.to_list (Array.sub arr !off take) :: !slices;
    off := !off + take
  done;
  List.rev !slices

let all_identical sigs idx =
  let first = sigs.(idx.(0)) in
  Array.for_all (fun i -> sigs.(i) = first) idx

let rec refine ~hashes ~max_bucket ~rows sigs members =
  let len = List.length members in
  if len <= max_bucket then [ members ]
  else begin
    let idx = Array.of_list members in
    if rows >= hashes || all_identical sigs idx then slice ~max_bucket members len
    else begin
      let rows = min hashes (rows + 1) in
      let bands = max 1 (hashes / rows) in
      let sub = Array.map (fun i -> sigs.(i)) idx in
      match lsh_buckets ~bands ~rows sub with
      | [ _ ] -> refine ~hashes ~max_bucket ~rows sigs members
      | groups ->
        List.concat_map
          (fun g ->
            refine ~hashes ~max_bucket ~rows sigs (List.map (fun j -> idx.(j)) g))
          groups
    end
  end

let split_oversized ~hashes ~max_bucket ~rows sigs groups =
  List.concat_map (fun members -> refine ~hashes ~max_bucket ~rows sigs members) groups

let rescue ~hashes ~max_bucket ~rows sigs buckets =
  let rows' = max 1 (rows / 2) in
  if rows' >= rows then buckets
  else begin
    let n = Array.length sigs in
    let bucket_of = Array.make n (-1) in
    List.iteri (fun bi members -> List.iter (fun i -> bucket_of.(i) <- bi) members) buckets;
    let sizes = Array.of_list (List.map List.length buckets) in
    let bands' = max 1 (hashes / rows') in
    let permissive = lsh_buckets ~bands:bands' ~rows:rows' sigs in
    List.iter
      (fun group ->
        let singles, anchored =
          List.partition (fun i -> sizes.(bucket_of.(i)) = 1) group
        in
        if singles <> [] then begin
          let move i target =
            sizes.(bucket_of.(i)) <- sizes.(bucket_of.(i)) - 1;
            bucket_of.(i) <- target;
            sizes.(target) <- sizes.(target) + 1
          in
          match anchored with
          | _ :: _ ->
            let reps =
              List.fold_left
                (fun acc a ->
                  if List.mem_assoc bucket_of.(a) acc then acc
                  else (bucket_of.(a), a) :: acc)
                [] anchored
              |> List.rev
            in
            List.iter
              (fun s ->
                let best = ref None in
                List.iter
                  (fun (b, rep) ->
                    if sizes.(b) < max_bucket then begin
                      let e = Leakdetect_sketch.Minhash.estimate sigs.(s) sigs.(rep) in
                      match !best with
                      | Some (_, be) when be >= e -> ()
                      | _ -> best := Some (b, e)
                    end)
                  reps;
                match !best with Some (b, _) -> move s b | None -> ())
              singles
          | [] -> (
            match singles with
            | [] -> ()
            | first :: rest ->
              let target = ref bucket_of.(first) in
              List.iter
                (fun s ->
                  if sizes.(!target) >= max_bucket then target := bucket_of.(s)
                  else move s !target)
                rest)
        end)
      permissive;
    let members = Hashtbl.create (max 16 n) in
    for i = n - 1 downto 0 do
      let b = bucket_of.(i) in
      Hashtbl.replace members b (i :: Option.value (Hashtbl.find_opt members b) ~default:[])
    done;
    Hashtbl.fold (fun _ ms acc -> ms :: acc) members []
    |> List.sort (fun a b -> compare (List.hd a) (List.hd b))
  end

let bucket (p : Sketch.params) payloads =
  let sigs = signatures p payloads in
  let groups = lsh_buckets ~bands:p.Sketch.bands ~rows:p.Sketch.rows sigs in
  split_oversized ~hashes:p.Sketch.hashes ~max_bucket:p.Sketch.max_bucket ~rows:p.Sketch.rows
    sigs groups
  |> rescue ~hashes:p.Sketch.hashes ~max_bucket:p.Sketch.max_bucket ~rows:p.Sketch.rows sigs
