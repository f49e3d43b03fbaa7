module Signature = Leakdetect_core.Signature
module Signature_io = Leakdetect_core.Signature_io
module Crc32 = Leakdetect_util.Crc32

(* A (crc, length) pair packed into one int: the CRC in the low 32 bits,
   the byte length above it. *)
let pack crc len = (len lsl 32) lor crc
let pcrc p = p land 0xFFFFFFFF
let plen p = p lsr 32

(* An AVL tree keyed by signature id.  [line] is the packed checksum of
   the member's piece ["\n" ^ to_line s]; [sub] that of the subtree's
   U-form, the concatenation of its pieces in id order.  Nodes hold only
   ints besides the signature: no strings.

   [sub] is computed on first read and memoized ([dirty] until then), so
   a batch of changes — a delta applied before one verification —
   recomputes each node on their union of paths once, and nodes a later
   rotation discards are never computed at all.  The write is a pure
   cache fill: any reader computes the same value. *)
type t =
  | Empty
  | Node of {
      l : t;
      s : Signature.t;
      line : int;
      r : t;
      h : int;
      mutable sub : int;
    }

let dirty = -1
let empty = Empty
let height = function Empty -> 0 | Node n -> n.h

let newline = Crc32.update Crc32.init "\n"

let piece s =
  let line = Signature_io.to_line s in
  pack (Crc32.value (Crc32.update newline line)) (String.length line + 1)

let append a b = pack (Crc32.combine (pcrc a) (pcrc b) (plen b)) (plen a + plen b)

let rec sub = function
  | Empty -> 0
  | Node n ->
    if n.sub = dirty then n.sub <- append (append (sub n.l) n.line) (sub n.r);
    n.sub

let create l s line r =
  let hl = height l and hr = height r in
  Node { l; s; line; r; h = (if hl >= hr then hl + 1 else hr + 1); sub = dirty }

let bal l s line r =
  let hl = height l and hr = height r in
  if hl > hr + 2 then
    match l with
    | Node { l = ll; s = ls; line = lline; r = lr; _ } -> (
      if height ll >= height lr then create ll ls lline (create lr s line r)
      else
        match lr with
        | Node { l = lrl; s = lrs; line = lrline; r = lrr; _ } ->
          create (create ll ls lline lrl) lrs lrline (create lrr s line r)
        | Empty -> assert false)
    | Empty -> assert false
  else if hr > hl + 2 then
    match r with
    | Node { l = rl; s = rs; line = rline; r = rr; _ } -> (
      if height rr >= height rl then create (create l s line rl) rs rline rr
      else
        match rl with
        | Node { l = rll; s = rls; line = rlline; r = rlr; _ } ->
          create (create l s line rll) rls rlline (create rlr rs rline rr)
        | Empty -> assert false)
    | Empty -> assert false
  else create l s line r

let add s t =
  let id = s.Signature.id and line = piece s in
  let rec go = function
    | Empty -> create Empty s line Empty
    | Node { l; s = s'; line = line'; r; _ } ->
      let c = compare id s'.Signature.id in
      if c = 0 then create l s line r
      else if c < 0 then bal (go l) s' line' r
      else bal l s' line' (go r)
  in
  go t

let rec remove_min = function
  | Node { l = Empty; r; _ } -> r
  | Node { l; s; line; r; _ } -> bal (remove_min l) s line r
  | Empty -> assert false

let rec min_node = function
  | Node { l = Empty; s; line; _ } -> (s, line)
  | Node { l; _ } -> min_node l
  | Empty -> assert false

let merge a b =
  match (a, b) with
  | Empty, t | t, Empty -> t
  | _ ->
    let s, line = min_node b in
    bal a s line (remove_min b)

let rec remove id = function
  | Empty -> Empty
  | Node { l; s; line; r; _ } as t ->
    let c = compare id s.Signature.id in
    if c = 0 then merge l r
    else if c < 0 then
      let l' = remove id l in
      if l' == l then t else bal l' s line r
    else
      let r' = remove id r in
      if r' == r then t else bal l s line r'

let rec find id = function
  | Empty -> None
  | Node { l; s; r; _ } ->
    let c = compare id s.Signature.id in
    if c = 0 then Some s else find id (if c < 0 then l else r)

let rec fold f t acc =
  match t with
  | Empty -> acc
  | Node { l; s; r; _ } -> fold f r (f s (fold f l acc))

let to_list t =
  let rec go t acc =
    match t with Empty -> acc | Node { l; s; r; _ } -> go l (s :: go r acc)
  in
  go t []

let of_list set =
  let sorted =
    Array.of_list
      (List.stable_sort (fun a b -> compare a.Signature.id b.Signature.id) set)
  in
  let n = Array.length sorted in
  let rec dup i =
    if i >= n then None
    else if sorted.(i).Signature.id = sorted.(i - 1).Signature.id then
      Some sorted.(i).Signature.id
    else dup (i + 1)
  in
  match dup 1 with
  | Some id -> Error (`Duplicate_id id)
  | None ->
    (* Halving [lo, hi) gives subtree heights that differ by at most one. *)
    let rec build lo hi =
      if lo >= hi then Empty
      else
        let mid = (lo + hi) / 2 in
        let s = sorted.(mid) in
        create (build lo mid) s (piece s) (build (mid + 1) hi)
    in
    Ok (build 0 n)

(* canonical = U without its leading "\n"; combine is linear in its
   second argument, so xoring in the newline's contribution strips it. *)
let nl_crc = Crc32.value newline

let checksum t =
  let u = sub t in
  if plen u = 0 then 0 else Crc32.combine nl_crc (pcrc u) (plen u - 1)

let canonical_length t = max 0 (plen (sub t) - 1)

(* version ^ "\n" ^ canonical = version ^ U for a non-empty set. *)
let wire_checksum ~version t =
  let v = Crc32.update Crc32.init (string_of_int version) in
  let u = sub t in
  if plen u = 0 then Crc32.value (Crc32.update v "\n")
  else Crc32.combine (Crc32.value v) (pcrc u) (plen u)
