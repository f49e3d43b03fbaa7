(* Banded locality-sensitive hashing over minhash signatures.

   Signatures are cut into [bands] bands of [rows] slots; two items become
   candidates when any band hashes identically, which happens with
   probability 1 - (1 - s^rows)^bands for Jaccard similarity s.  Candidate
   pairs are closed transitively with a union-find so each item lands in
   exactly one bucket, and bucket order / member order are index-ascending —
   the output is a pure function of the signature array. *)

let threshold ~bands ~rows =
  (1. /. float_of_int bands) ** (1. /. float_of_int rows)

(* Union-find with path halving; union links the larger root under the
   smaller so the representative is always the least member index. *)
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

(* FNV-1a over the band's slots, seeded per band so equal slot values in
   different bands never alias into the same table key.  The running hash
   is a local ref in a plain loop, so it stays unboxed. *)
let band_key ~band sig_ ~off ~rows =
  let h = ref (Int64.add 0xcbf29ce484222325L (Int64.of_int band)) in
  for r = off to off + rows - 1 do
    h := Int64.mul (Int64.logxor !h sig_.(r)) 0x100000001b3L
  done;
  Int64.to_int (Int64.logand !h 0x3fffffffffffffffL)

let buckets ~bands ~rows sigs =
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
  (* Emit components grouped by root.  Roots are least members by the union
     rule, so listing roots ascending yields buckets in first-member order;
     building member lists by downward scan keeps members ascending. *)
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
