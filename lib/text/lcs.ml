(* Rolling (polynomial) hash of every length-[len] window of [s].  The base
   is odd and the modulus is the native 63-bit int wraparound; collisions are
   possible but harmless because callers verify candidates exactly. *)
let window_hashes s len =
  let base = 1000003 in
  let n = String.length s in
  if len <= 0 || len > n then []
  else begin
    (* base^(len-1) for removing the outgoing character. *)
    let top = ref 1 in
    for _ = 2 to len do top := !top * base done;
    let h = ref 0 in
    for i = 0 to len - 1 do h := (!h * base) + Char.code s.[i] done;
    let out = ref [ (!h, 0) ] in
    for i = len to n - 1 do
      h := ((!h - (Char.code s.[i - len] * !top)) * base) + Char.code s.[i];
      out := (!h, i - len + 1) :: !out
    done;
    !out
  end

module Int_map = Map.Make (Int)

(* Is there a substring of length [len] common to all strings?  Returns a
   verified witness. *)
let common_of_length strings len =
  match strings with
  | [] -> None
  | first :: rest ->
    (* Candidate windows of the first string, keyed by hash. *)
    let candidates =
      List.fold_left
        (fun acc (h, pos) ->
          Int_map.update h
            (function None -> Some [ pos ] | Some l -> Some (pos :: l))
            acc)
        Int_map.empty (window_hashes first len)
    in
    let surviving =
      List.fold_left
        (fun cands s ->
          if Int_map.is_empty cands then cands
          else begin
            let seen = Hashtbl.create 256 in
            List.iter (fun (h, _) -> Hashtbl.replace seen h ()) (window_hashes s len);
            Int_map.filter (fun h _ -> Hashtbl.mem seen h) cands
          end)
        candidates rest
    in
    (* Hash survival is necessary but not sufficient: verify exactly. *)
    let verify pos =
      let w = String.sub first pos len in
      if List.for_all (fun s -> Search.contains ~needle:w s) rest then Some w
      else None
    in
    Int_map.fold
      (fun _ positions acc ->
        match acc with
        | Some _ -> acc
        | None -> List.find_map verify positions)
      surviving None

let of_set strings =
  match strings with
  | [] -> ""
  | _ when List.exists (fun s -> String.length s = 0) strings -> ""
  | strings ->
    let shortest = List.fold_left (fun m s -> min m (String.length s)) max_int strings in
    (* Binary search on the answer length: if a common substring of length L
       exists, one of every shorter length exists too. *)
    let best = ref "" in
    let lo = ref 1 and hi = ref shortest in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      match common_of_length strings mid with
      | Some w ->
        best := w;
        lo := mid + 1
      | None -> hi := mid - 1
    done;
    !best
