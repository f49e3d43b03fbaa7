module Crc32 = Leakdetect_util.Crc32

type t = {
  epoch : int;
  origins : string list; (* sorted, distinct *)
  weights : (string * int) list; (* sorted by origin; every weight >= 1 *)
  proximity : ((string * string) * int) list; (* (node, origin) -> distance *)
}

let validate ?(weights = []) ?(proximity = []) ~epoch ~origins () =
  if epoch < 0 then Error "Shard_map: negative epoch"
  else if origins = [] then Error "Shard_map: no origins"
  else if List.exists (fun o -> not (Protocol.id_ok o)) origins then
    Error "Shard_map: invalid origin id"
  else
    let sorted = List.sort_uniq compare origins in
    if List.length sorted <> List.length origins then
      Error "Shard_map: duplicate origin id"
    else if List.exists (fun (_, w) -> w < 1) weights then
      Error "Shard_map: weight < 1"
    else if List.exists (fun (o, _) -> not (List.mem o sorted)) weights then
      Error "Shard_map: weight for unknown origin"
    else if
      List.length (List.sort_uniq compare (List.map fst weights))
      <> List.length weights
    then Error "Shard_map: duplicate weight entry"
    else if
      (* Proximity targets need not be origins: the table also records
         relay-to-relay distances for gossip peer preference. *)
      List.exists
        (fun ((node, target), d) ->
          d < 0 || (not (Protocol.id_ok node)) || not (Protocol.id_ok target))
        proximity
    then Error "Shard_map: bad proximity entry"
    else if
      List.length (List.sort_uniq compare (List.map fst proximity))
      <> List.length proximity
    then Error "Shard_map: duplicate proximity entry"
    else
      Ok
        {
          epoch;
          origins = sorted;
          weights = List.sort compare (List.filter (fun (_, w) -> w <> 1) weights);
          proximity = List.sort compare proximity;
        }

let create ?(weights = []) ?(proximity = []) ~epoch ~origins () =
  validate ~weights
    ~proximity:(List.map (fun (n, o, d) -> ((n, o), d)) proximity)
    ~epoch ~origins ()

let epoch t = t.epoch

let weight t ~origin =
  match List.assoc_opt origin t.weights with Some w -> w | None -> 1

let distance t ~node ~origin = List.assoc_opt (node, origin) t.proximity

(* The HRW score of an (origin, tenant) pair.  Two independent CRCs over
   differently-framed inputs give 62 well-mixed bits; the origin name
   breaks the (astronomically unlikely) remaining ties so every node
   still agrees.  Deliberately epoch-independent: advancing the epoch
   with the same origin set moves nothing. *)
let raw_score ~origin ~tenant =
  let a = Crc32.string (origin ^ "\x00" ^ tenant) in
  let b = Crc32.string (tenant ^ "\x01" ^ origin) in
  (a lsl 30) lxor b (* stays within a 63-bit int, so always non-negative *)

(* Weighted rendezvous (Mosharaf/Thaler): map the raw score into a
   uniform h in (0,1) and score -w / ln h.  Monotone in h, so at equal
   weights the winner is exactly the raw-score argmax; a weight-w origin
   wins a w-proportional share of tenants. *)
let weighted_score ~weight ~origin ~tenant =
  let h = (float_of_int (raw_score ~origin ~tenant) +. 1.) /. 0x1p62 in
  -.float_of_int weight /. log h

let owner t ~tenant =
  match t.origins with
  | [] -> assert false (* create rejects empty origin lists *)
  | first :: rest ->
    if t.weights = [] then begin
      (* Homogeneous weights: integer HRW, bit-exact with the unweighted
         maps journaled before weights existed. *)
      let best = ref first
      and best_score = ref (raw_score ~origin:first ~tenant) in
      List.iter
        (fun origin ->
          let s = raw_score ~origin ~tenant in
          if s > !best_score || (s = !best_score && origin > !best) then begin
            best := origin;
            best_score := s
          end)
        rest;
      !best
    end
    else begin
      let score origin =
        weighted_score ~weight:(weight t ~origin) ~origin ~tenant
      in
      let best = ref first and best_score = ref (score first) in
      List.iter
        (fun origin ->
          let s = score origin in
          if s > !best_score || (s = !best_score && origin > !best) then begin
            best := origin;
            best_score := s
          end)
        rest;
      !best
    end

let advance ?weights ?proximity t ~origins =
  let weights =
    match weights with Some w -> w | None -> t.weights
  in
  let proximity =
    match proximity with
    | Some p -> List.map (fun (n, o, d) -> ((n, o), d)) p
    | None -> t.proximity
  in
  (* Carried-over entries naming origins that left the set are dropped
     rather than rejected: shrinking the fleet must not need a manual
     weight edit.  Proximity entries whose target was never an origin
     (relay-to-relay distances) are kept as-is. *)
  let weights = List.filter (fun (o, _) -> List.mem o origins) weights in
  let proximity =
    List.map (fun ((n, o), d) -> (n, o, d))
      (List.filter
         (fun ((_, o), _) ->
           List.mem o origins || not (List.mem o t.origins))
         proximity)
  in
  validate ~weights
    ~proximity:(List.map (fun (n, o, d) -> ((n, o), d)) proximity)
    ~epoch:(t.epoch + 1) ~origins ()

let moved ~before ~after ~tenants =
  List.filter_map
    (fun tenant ->
      let from_ = owner before ~tenant and to_ = owner after ~tenant in
      if from_ = to_ then None else Some (tenant, from_, to_))
    tenants

(* Codec: [epoch TAB origin[=weight],... [TAB node>origin=dist;...]].
   Weight-1 and empty-proximity fields are omitted, so maps without the
   new attributes print byte-identically to the pre-weight format and
   old journal lines parse unchanged. *)

let to_line t =
  let origin_field o =
    match weight t ~origin:o with 1 -> o | w -> Printf.sprintf "%s=%d" o w
  in
  let base =
    Printf.sprintf "%d\t%s" t.epoch
      (String.concat "," (List.map origin_field t.origins))
  in
  if t.proximity = [] then base
  else
    base ^ "\t"
    ^ String.concat ";"
        (List.map
           (fun ((n, o), d) -> Printf.sprintf "%s>%s=%d" n o d)
           t.proximity)

let parse_origin_field field =
  match String.index_opt field '=' with
  | None -> Ok (field, 1)
  | Some i -> (
    let name = String.sub field 0 i in
    let w = String.sub field (i + 1) (String.length field - i - 1) in
    match int_of_string_opt w with
    | Some w when w >= 1 -> Ok (name, w)
    | _ -> Error (Printf.sprintf "Shard_map: bad weight %S" field))

let parse_proximity_field field =
  match (String.index_opt field '>', String.index_opt field '=') with
  | Some i, Some j when i < j -> (
    let node = String.sub field 0 i in
    let origin = String.sub field (i + 1) (j - i - 1) in
    let d = String.sub field (j + 1) (String.length field - j - 1) in
    match int_of_string_opt d with
    | Some d when d >= 0 -> Ok ((node, origin), d)
    | _ -> Error (Printf.sprintf "Shard_map: bad proximity %S" field))
  | _ -> Error (Printf.sprintf "Shard_map: bad proximity %S" field)

let rec collect f acc = function
  | [] -> Ok (List.rev acc)
  | x :: rest -> (
    match f x with
    | Ok v -> collect f (v :: acc) rest
    | Error _ as e -> e)

let of_line line =
  match String.split_on_char '\t' line with
  | [ epoch; origins ] | [ epoch; origins; "" ] -> (
    match int_of_string_opt epoch with
    | None -> Error (Printf.sprintf "Shard_map: bad epoch %S" epoch)
    | Some epoch -> (
      match
        collect parse_origin_field [] (String.split_on_char ',' origins)
      with
      | Error _ as e -> e
      | Ok pairs ->
        create ~weights:pairs ~epoch ~origins:(List.map fst pairs) ()))
  | [ epoch; origins; proximity ] -> (
    match int_of_string_opt epoch with
    | None -> Error (Printf.sprintf "Shard_map: bad epoch %S" epoch)
    | Some epoch -> (
      match
        collect parse_origin_field [] (String.split_on_char ',' origins)
      with
      | Error _ as e -> e
      | Ok pairs -> (
        match
          collect parse_proximity_field []
            (String.split_on_char ';' proximity)
        with
        | Error _ as e -> e
        | Ok prox ->
          match
            validate ~weights:pairs
              ~proximity:prox ~epoch ~origins:(List.map fst pairs) ()
          with
          | Ok _ as ok -> ok
          | Error _ as e -> e)))
  | _ -> Error (Printf.sprintf "Shard_map: bad line %S" line)
