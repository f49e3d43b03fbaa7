module Signature = Leakdetect_core.Signature
module Signature_io = Leakdetect_core.Signature_io
module Leak_error = Leakdetect_util.Leak_error
module Strutil = Leakdetect_util.Strutil

type change = Add of Signature.t | Retire of int

type entry = { version : int; change : change }

let entry_to_line e =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (match e.change with Add _ -> "a\t" | Retire _ -> "r\t");
  Strutil.add_int buf e.version;
  Buffer.add_char buf '\t';
  (match e.change with
  | Add s -> Signature_io.add_line buf s
  | Retire id -> Strutil.add_int buf id);
  Buffer.contents buf

let entry_of_line line =
  let bad () = Error (Printf.sprintf "bad changelog line %S" line) in
  match String.index_opt line '\t' with
  | None -> bad ()
  | Some i -> (
    match String.index_from_opt line (i + 1) '\t' with
    | None -> bad ()
    | Some j -> (
      let tag = String.sub line 0 i in
      let version = String.sub line (i + 1) (j - i - 1) in
      let payload = String.sub line (j + 1) (String.length line - j - 1) in
      match int_of_string_opt version with
      | None -> Error (Printf.sprintf "bad changelog version %S" version)
      | Some version when version <= 0 ->
        Error (Printf.sprintf "non-positive changelog version %d" version)
      | Some version -> (
        match tag with
        | "a" -> (
          match Signature_io.of_line payload with
          | Ok s -> Ok { version; change = Add s }
          | Error e ->
            Error ("bad changelog signature: " ^ Leak_error.to_string e))
        | "r" -> (
          match int_of_string_opt payload with
          | Some id when id >= 0 -> Ok { version; change = Retire id }
          | _ -> Error (Printf.sprintf "bad retire id %S" payload))
        | _ -> Error (Printf.sprintf "unknown changelog tag %S" tag))))

(* Sets are id-ascending lists; all updates preserve the invariant. *)

let apply_change set change =
  match change with
  | Add s ->
    let id = s.Signature.id in
    let rec ins = function
      | [] -> [ s ]
      | x :: rest when x.Signature.id < id -> x :: ins rest
      | x :: rest when x.Signature.id = id -> s :: rest
      | rest -> s :: rest
    in
    ins set
  | Retire id -> List.filter (fun x -> x.Signature.id <> id) set

let apply set = function
  | Add s -> Sigset.add s set
  | Retire id -> Sigset.remove id set

(* [apply] for an entry whose wire line is at hand: an [Add]'s signature
   line follows the second tab, and the set checksums it in place. *)
let apply_line set change line =
  match change with
  | Add s -> Sigset.add_encoded s ~line ~pos:(String.index_from line 2 '\t' + 1) set
  | Retire id -> Sigset.remove id set

(* The retained history is indexed by version: [entries.(i)] is the entry
   at version [base_version + 1 + i], [lines.(i)] its [entry_to_line],
   encoded once when it was appended, and [sums.(i)] the canonical-set CRC
   it produced, for [i < count]; the sum at [base_version] is the base
   set's own.  The arrays grow by doubling. *)
type t = {
  mutable base_version : int;
  mutable base : Sigset.t;
  mutable entries : entry array;
  mutable lines : string array;
  mutable sums : int array;
  mutable count : int;
  mutable set : Sigset.t;  (* current *)
  mutable next_id : int;
}

let no_entry = { version = 0; change = Retire 0 }

let create () =
  {
    base_version = 0;
    base = Sigset.empty;
    entries = [||];
    lines = [||];
    sums = [||];
    count = 0;
    set = Sigset.empty;
    next_id = 0;
  }

let version t = t.base_version + t.count
let horizon t = t.base_version
let next_id t = t.next_id
let current t = Sigset.to_list t.set
let current_set t = t.set
let current_checksum t = Sigset.checksum t.set
let wire_checksum t = Sigset.wire_checksum ~version:(version t) t.set

let checksum_at t v =
  if v = t.base_version then Some (Sigset.checksum t.base)
  else if v > t.base_version && v <= version t then
    Some t.sums.(v - t.base_version - 1)
  else None

let entries t = Array.to_list (Array.sub t.entries 0 t.count)
let base t = Sigset.to_list t.base

let note_id t = function
  | Add s -> t.next_id <- max t.next_id (s.Signature.id + 1)
  | Retire _ -> ()

(* Record [entry], whose wire line is [line], at version [version t + 1]. *)
let push t entry line =
  if t.count = Array.length t.entries then begin
    let cap = max 16 (2 * t.count) in
    let entries = Array.make cap no_entry
    and lines = Array.make cap ""
    and sums = Array.make cap 0 in
    Array.blit t.entries 0 entries 0 t.count;
    Array.blit t.lines 0 lines 0 t.count;
    Array.blit t.sums 0 sums 0 t.count;
    t.entries <- entries;
    t.lines <- lines;
    t.sums <- sums
  end;
  t.set <- apply_line t.set entry.change line;
  note_id t entry.change;
  t.entries.(t.count) <- entry;
  t.lines.(t.count) <- line;
  t.sums.(t.count) <- Sigset.checksum t.set;
  t.count <- t.count + 1

let append_encoded t change ~line =
  let entry = { version = version t + 1; change } in
  push t entry line;
  entry

let append t change =
  append_encoded t change
    ~line:(entry_to_line { version = version t + 1; change })

let replay t entries =
  let rec go = function
    | [] -> Ok ()
    | (e : entry) :: rest ->
      if e.version <> version t + 1 then
        Error
          (Printf.sprintf "changelog: entry version %d after %d" e.version
             (version t))
      else begin
        ignore (append t e.change);
        go rest
      end
  in
  go entries

let of_set ~version set =
  if version < 0 then invalid_arg "Changelog.of_set: negative version";
  let next_id = Sigset.fold (fun s n -> max n (s.Signature.id + 1)) set 0 in
  { (create ()) with base_version = version; base = set; set; next_id }

let restore ~base_version ~base ~next_id ~entries =
  if base_version < 0 then Error "restore: negative base version"
  else if next_id < 0 then Error "restore: negative next id"
  else
    match Sigset.of_list base with
    | Error (`Duplicate_id id) ->
      Error (Printf.sprintf "restore: duplicate signature id %d in base" id)
    | Ok set ->
      let t = of_set ~version:base_version set in
      t.next_id <- max t.next_id next_id;
      Result.map (fun () -> t) (replay t entries)

let truncate t ~version:v =
  let t' = of_set ~version:t.base_version t.base in
  for i = 0 to min (v - t.base_version) t.count - 1 do
    push t' t.entries.(i) t.lines.(i)
  done;
  t'

let since t v =
  if v < t.base_version || v > version t then None
  else
    let rec collect i acc =
      if i < v - t.base_version then acc
      else collect (i - 1) (t.entries.(i) :: acc)
    in
    Some (collect (t.count - 1) [])

let since_lines t v =
  if v < t.base_version || v > version t then None
  else
    let i = v - t.base_version in
    Some (Array.to_list (Array.sub t.lines i (t.count - i)))

(* Checkpoints ascend from the first retained version in [interval]
   steps; the head is always the last checkpoint, so a digest is never
   empty and a head-only probe is [digest ~since:max_int].  Only sums
   still retained (>= horizon) are emitted — a divergence below the
   horizon is not localizable and the caller falls back to a snapshot. *)
let digest t ~since ~interval =
  if interval < 1 then invalid_arg "Changelog.digest: interval < 1";
  let head = version t in
  let sum v = Option.get (checksum_at t v) in
  (* [interval >= head - v] rather than [v + interval >= head]: the
     interval comes from a query string and the sum may overflow. *)
  let rec collect v acc =
    if v >= head then acc
    else
      let acc = (v, sum v) :: acc in
      if interval >= head - v then acc else collect (v + interval) acc
  in
  List.rev_append (collect (max since t.base_version) []) [ (head, sum head) ]

let compact t ~keep =
  let keep = max 0 (min keep t.count) in
  let fold_n = t.count - keep in
  if fold_n > 0 then begin
    for i = 0 to fold_n - 1 do
      t.base <- apply_line t.base t.entries.(i).change t.lines.(i)
    done;
    Array.blit t.entries fold_n t.entries 0 keep;
    Array.blit t.lines fold_n t.lines 0 keep;
    Array.blit t.sums fold_n t.sums 0 keep;
    Array.fill t.entries keep fold_n no_entry;
    Array.fill t.lines keep fold_n "";
    t.base_version <- t.base_version + fold_n;
    t.count <- keep
  end
