(* Parameter surface and driver composition for the minhash/LSH prefilter.

   [bucket] is the one call the clustering backend needs: payloads in,
   disjoint index buckets out, deterministic for a given [params] no matter
   the pool size (signatures are pure per-payload and written to owned
   slots; bucketing is a pure function of the signature array). *)

module Pool = Leakdetect_parallel.Pool

type params = {
  shingle_len : int;  (** n-gram width over payload bytes *)
  hashes : int;  (** minhash signature width *)
  bands : int;  (** LSH bands; bands * rows <= hashes *)
  rows : int;  (** slots per band *)
  seed : int;  (** seeds the minhash key vector *)
  max_bucket : int;  (** cap on exact-clustering bucket size *)
}

let default =
  { shingle_len = 4; hashes = 128; bands = 32; rows = 4; seed = 0x5eed; max_bucket = 256 }

let validate p =
  if p.shingle_len < 1 then Error "shingle_len must be >= 1"
  else if p.hashes < 1 then Error "hashes must be >= 1"
  else if p.bands < 1 then Error "bands must be >= 1"
  else if p.rows < 1 then Error "rows must be >= 1"
  else if p.bands * p.rows > p.hashes then Error "bands * rows must not exceed hashes"
  else if p.max_bucket < 2 then Error "max_bucket must be >= 2"
  else Ok ()

let check p =
  match validate p with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Sketch: " ^ msg)

let threshold p = Lsh.threshold ~bands:p.bands ~rows:p.rows

let signatures ?pool p payloads =
  check p;
  let mh = Minhash.create ~hashes:p.hashes ~seed:p.seed in
  Pool.parallel_map_array ~pool
    (fun payload -> Minhash.signature mh (Shingle.set ~n:p.shingle_len payload))
    payloads

(* Oversized connected components would put the O(m^2) exact phase right
   back: a corpus of near-identical payloads is one giant component, and
   low-threshold parameters chain loosely related families together.
   Cutting such a component into arbitrary consecutive slices scatters true
   clusters across buckets and costs recall, so [refine] instead re-runs
   LSH over just the component's members with progressively stricter
   banding — fewer, wider bands raise the collision threshold
   (1/bands)^(1/rows) toward 1 — reusing the minhash signatures already
   computed.  Only a group that is still oversized at bands = 1, i.e. whose
   signatures agree on every hash, falls back to consecutive slices; its
   members are near-duplicates of one another, so any slice clusters the
   same way.  Members stay index-ascending throughout, so the result is a
   pure function of the signature array. *)
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

let same_signature a b =
  let k = Array.length a in
  k = Array.length b
  &&
  let i = ref 0 in
  while !i < k && Int64.equal a.(!i) b.(!i) do incr i done;
  !i = k

let all_identical sigs idx =
  let first = sigs.(idx.(0)) in
  Array.for_all (fun i -> same_signature sigs.(i) first) idx

let rec refine ~hashes ~max_bucket ~rows sigs members =
  let len = List.length members in
  if len <= max_bucket then [ members ]
  else begin
    let idx = Array.of_list members in
    if rows >= hashes || all_identical sigs idx then
      (* Signatures agree on every hash (or no stricter banding exists):
         the members are near-duplicates, so any slice clusters alike. *)
      slice ~max_bucket members len
    else begin
      (* One row more per level — the gentlest strictness step the band
         layout allows, so a component just past the cap splits along its
         weakest links instead of shattering. *)
      let rows = min hashes (rows + 1) in
      let bands = max 1 (hashes / rows) in
      let sub = Array.map (fun i -> sigs.(i)) idx in
      match Lsh.buckets ~bands ~rows sub with
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

(* A member stranded alone costs recall out of proportion to its size: a
   singleton bucket becomes a singleton cluster whose signature is the
   verbatim payload, matching nothing else.  Re-run LSH once at half the
   rows (a much lower collision threshold) and let each stranded singleton
   rejoin a colliding bucket that still has room; groups made only of
   singletons coalesce with each other, capped at [max_bucket].  The
   in-bucket exact-NCD phase is the safety net: a spuriously attached
   member just ends up cut into its own cluster, exactly where it started,
   so rescue can only add pair work, never wrong merges. *)
let rescue ~hashes ~max_bucket ~rows sigs buckets =
  let rows' = max 1 (rows / 2) in
  if rows' >= rows then buckets
  else begin
    let n = Array.length sigs in
    let bucket_of = Array.make n (-1) in
    List.iteri (fun bi members -> List.iter (fun i -> bucket_of.(i) <- bi) members) buckets;
    let sizes = Array.of_list (List.map List.length buckets) in
    let bands' = max 1 (hashes / rows') in
    let permissive = Lsh.buckets ~bands:bands' ~rows:rows' sigs in
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
            (* The permissive pass casts a wide net, so "first collision"
               would regularly name the wrong family.  Pick each
               singleton's target by minhash agreement against one
               representative per colliding bucket (ties and equal
               estimates keep the earliest bucket). *)
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
                      let e = Minhash.estimate sigs.(s) sigs.(rep) in
                      match !best with
                      | Some (_, be) when be >= e -> ()
                      | _ -> best := Some (b, e)
                    end)
                  reps;
                match !best with Some (b, _) -> move s b | None -> ())
              singles
          | [] ->
            (* A family of loners: coalesce into the first singleton's
               bucket, opening a fresh accumulator whenever one fills. *)
            (match singles with
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

let bucket ?pool p payloads =
  check p;
  let sigs = signatures ?pool p payloads in
  let groups = Lsh.buckets ~bands:p.bands ~rows:p.rows sigs in
  split_oversized ~hashes:p.hashes ~max_bucket:p.max_bucket ~rows:p.rows sigs groups
  |> rescue ~hashes:p.hashes ~max_bucket:p.max_bucket ~rows:p.rows sigs
