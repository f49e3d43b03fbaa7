module Http = Leakdetect_http
module Signature = Leakdetect_core.Signature
module Signature_io = Leakdetect_core.Signature_io
module Leak_error = Leakdetect_util.Leak_error
module Crc32 = Leakdetect_util.Crc32
module Wal = Leakdetect_store.Wal
module Snapshot = Leakdetect_store.Snapshot
module Obs = Leakdetect_obs.Obs

let id_ok s =
  let n = String.length s in
  n > 0 && n <= 64
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '.' || c = '_' || c = ':' || c = '-')
       s

let check_id what s =
  if not (id_ok s) then
    invalid_arg (Printf.sprintf "Authority: bad %s id %S" what s)

type config = { k : int; reporter_cap : int; compact_keep : int }

let default_config = { k = 3; reporter_cap = 16; compact_keep = 64 }

(* --- per-tenant state --- *)

type candidate = {
  exemplar : Signature.t;  (* first-received form; id/cluster_size ignored *)
  reporters : (string, unit) Hashtbl.t;
}

type tenant_state = {
  name : string;
  log : Changelog.t;
  candidates : (string, candidate) Hashtbl.t;  (* key -> candidate *)
  pending : (string, int) Hashtbl.t;  (* reporter -> live memberships *)
  published : (string, int) Hashtbl.t;  (* key -> live signatures with it *)
}

(* A candidate's identity is its mode plus token list: the reporter-local
   id and cluster size are not part of it. *)
let key_of (s : Signature.t) =
  Signature_io.to_line
    (Signature.make ~id:0 ~mode:s.Signature.mode ~cluster_size:0
       s.Signature.tokens)

let add_published ts s =
  let key = key_of s in
  Hashtbl.replace ts.published key
    (1 + Option.value ~default:0 (Hashtbl.find_opt ts.published key))

let remove_published ts s =
  let key = key_of s in
  match Hashtbl.find_opt ts.published key with
  | Some n when n > 1 -> Hashtbl.replace ts.published key (n - 1)
  | Some _ -> Hashtbl.remove ts.published key
  | None -> ()

let tenant_of_log name log =
  let ts =
    {
      name;
      log;
      candidates = Hashtbl.create 16;
      pending = Hashtbl.create 16;
      published = Hashtbl.create 64;
    }
  in
  List.iter (add_published ts) (Changelog.current log);
  ts

let fresh_tenant name = tenant_of_log name (Changelog.create ())

(* --- journal entries --- *)

type jentry =
  | Change of { tenant : string; entry : Changelog.entry }
  | Report of { tenant : string; reporter : string; signature : Signature.t }
  | Adopt of { tenant : string; payload : string }
      (* A folded tenant section (see the snapshot codec) taken over from
         another origin during a rebalance.  WAL frames are length-
         prefixed, so the embedded newlines are safe. *)
  | Release of { tenant : string; at : int }
      (* Tenant handed off at version [at]; the version gates replay the
         same way Change versions do. *)
  | Shard of { self : string; line : string }
      (* The shard map (Shard_map line codec) this origin serves under,
         plus its own id — installing a map is a journaled transition. *)

let jentry_to_payload = function
  | Change { tenant; entry } ->
    Printf.sprintf "change\t%s\t%s" tenant (Changelog.entry_to_line entry)
  | Report { tenant; reporter; signature } ->
    Printf.sprintf "report\t%s\t%s\t%s" tenant reporter
      (Signature_io.to_line signature)
  | Adopt { tenant; payload } -> Printf.sprintf "adopt\t%s\t%s" tenant payload
  | Release { tenant; at } -> Printf.sprintf "release\t%s\t%d" tenant at
  | Shard { self; line } -> Printf.sprintf "shard\t%s\t%s" self line

let split1 s =
  match String.index_opt s '\t' with
  | None -> None
  | Some i ->
    Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let jentry_of_payload payload =
  match split1 payload with
  | Some ("change", rest) -> (
    match split1 rest with
    | Some (tenant, line) when id_ok tenant -> (
      match Changelog.entry_of_line line with
      | Ok entry -> Ok (Change { tenant; entry })
      | Error e -> Error e)
    | _ -> Error "change entry: bad tenant")
  | Some ("report", rest) -> (
    match split1 rest with
    | Some (tenant, rest) when id_ok tenant -> (
      match split1 rest with
      | Some (reporter, line) when id_ok reporter -> (
        match Signature_io.of_line line with
        | Ok signature -> Ok (Report { tenant; reporter; signature })
        | Error e -> Error ("report entry: " ^ Leak_error.to_string e))
      | _ -> Error "report entry: bad reporter")
    | _ -> Error "report entry: bad tenant")
  | Some ("adopt", rest) -> (
    match split1 rest with
    | Some (tenant, payload) when id_ok tenant -> Ok (Adopt { tenant; payload })
    | _ -> Error "adopt entry: bad tenant")
  | Some ("release", rest) -> (
    match split1 rest with
    | Some (tenant, at) when id_ok tenant -> (
      match int_of_string_opt at with
      | Some at when at >= 0 -> Ok (Release { tenant; at })
      | _ -> Error "release entry: bad version")
    | _ -> Error "release entry: bad tenant")
  | Some ("shard", rest) -> (
    match split1 rest with
    | Some (self, line) when id_ok self -> Ok (Shard { self; line })
    | _ -> Error "shard entry: bad self id")
  | Some (tag, _) -> Error (Printf.sprintf "unknown journal tag %S" tag)
  | None -> Error "empty journal entry"

(* --- the authority --- *)

type promotion = {
  tenant : string;
  signature : Signature.t;
  reporters : int;
  at_version : int;
}

exception Crashed of string

type t = {
  config : config;
  obs : Obs.t;
  tenants : (string, tenant_state) Hashtbl.t;
  dir : string option;
  mutable writer : Wal.writer option;
  mutable rev_promotions : promotion list;
  mutable shard : (string * Shard_map.t) option;  (* self id, map *)
}

let config t = t.config

let wal_path ~dir = Filename.concat dir "journal.log"
let snapshot_path ~dir = Filename.concat dir "snapshot"

let tenant_names t =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.tenants [])

let tenants = tenant_names

let lookup t tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some ts -> ts
  | None ->
    let ts = fresh_tenant tenant in
    Hashtbl.replace t.tenants tenant ts;
    ts

let version t ~tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some ts -> Changelog.version ts.log
  | None -> 0

let signatures t ~tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some ts -> Changelog.current ts.log
  | None -> []

let checksum t ~tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some ts -> Changelog.current_checksum ts.log
  | None -> Sigset.checksum Sigset.empty

let checksum_at t ~tenant ~version =
  match Hashtbl.find_opt t.tenants tenant with
  | Some ts -> Changelog.checksum_at ts.log version
  | None -> if version = 0 then Some (Sigset.checksum Sigset.empty) else None

let horizon t ~tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some ts -> Changelog.horizon ts.log
  | None -> 0

let changelog_entries t ~tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some ts -> Changelog.entries ts.log
  | None -> []

let wal_size t = match t.writer with Some w -> Wal.size w | None -> 0
let promotions t = List.rev t.rev_promotions

let is_published t ~tenant signature =
  match Hashtbl.find_opt t.tenants tenant with
  | Some ts -> Hashtbl.mem ts.published (key_of signature)
  | None -> false

let pending_candidates t ~tenant =
  match Hashtbl.find_opt t.tenants tenant with
  | Some ts -> Hashtbl.length ts.candidates
  | None -> 0

(* --- obs --- *)

let count t ?labels name help =
  Obs.Counter.inc (Obs.counter t.obs ?labels ~help name)

let set_version_gauge t ts =
  Obs.Gauge.set
    (Obs.gauge t.obs ~help:"Per-tenant changelog head version."
       ~labels:[ ("tenant", ts.name) ]
       "leakdetect_authority_version")
    (Changelog.version ts.log)

(* --- journaling and application --- *)

let journal t jentry =
  match t.writer with
  | None -> ()
  | Some w ->
    Wal.append w (jentry_to_payload jentry);
    if not (Obs.is_noop t.obs) then
      count t "leakdetect_authority_journal_appends_total"
        "Entries appended to the authority journal."

let in_published_set ts key = Hashtbl.mem ts.published key

let decr_pending ts reporter =
  match Hashtbl.find_opt ts.pending reporter with
  | Some n when n > 1 -> Hashtbl.replace ts.pending reporter (n - 1)
  | Some _ -> Hashtbl.remove ts.pending reporter
  | None -> ()

let pending_of ts reporter =
  Option.value ~default:0 (Hashtbl.find_opt ts.pending reporter)

(* Apply one changelog change to a tenant (in-memory), keeping the
   published-key index in step.  An [Add] clears any pending candidate
   with the same identity: whether it arrived by publish or by promotion,
   the signature is now published and the tally is spent. *)
let apply_change ts change =
  let id =
    match change with
    | Changelog.Add s -> s.Signature.id
    | Changelog.Retire id -> id
  in
  Option.iter (remove_published ts)
    (Sigset.find id (Changelog.current_set ts.log));
  let entry = Changelog.append ts.log change in
  (match change with
  | Changelog.Add s -> (
    add_published ts s;
    let key = key_of s in
    match Hashtbl.find_opt ts.candidates key with
    | Some cand ->
      Hashtbl.iter (fun r () -> decr_pending ts r) cand.reporters;
      Hashtbl.remove ts.candidates key
    | None -> ())
  | Changelog.Retire _ -> ());
  entry

(* One committed change: journal first (flush-as-commit), then apply. *)
let commit_change t ts change =
  let version = Changelog.version ts.log + 1 in
  journal t (Change { tenant = ts.name; entry = { Changelog.version; change } });
  let entry = apply_change ts change in
  if not (Obs.is_noop t.obs) then begin
    count t
      ~labels:
        [ ("kind", match change with Changelog.Add _ -> "add" | _ -> "retire") ]
      "leakdetect_authority_changes_total"
      "Changelog entries committed, by kind.";
    set_version_gauge t ts
  end;
  entry

let promote t ts (cand : candidate) =
  let n_reporters = Hashtbl.length cand.reporters in
  let s = cand.exemplar in
  let promoted =
    Signature.make ~id:(Changelog.next_id ts.log) ~mode:s.Signature.mode
      ~cluster_size:n_reporters s.Signature.tokens
  in
  let entry = commit_change t ts (Changelog.Add promoted) in
  t.rev_promotions <-
    {
      tenant = ts.name;
      signature = promoted;
      reporters = n_reporters;
      at_version = entry.Changelog.version;
    }
    :: t.rev_promotions;
  count t "leakdetect_authority_promotions_total"
    "Candidates promoted to a published set.";
  entry.Changelog.version

(* Tally a report (shared by the live path and journal replay; admission
   control — caps, duplicate checks — happens before the journal write, so
   replay applies unconditionally but stays idempotent). *)
let apply_report ts ~reporter signature =
  let key = key_of signature in
  if in_published_set ts key then ()
  else
    let cand =
      match Hashtbl.find_opt ts.candidates key with
      | Some c -> c
      | None ->
        let c = { exemplar = signature; reporters = Hashtbl.create 4 } in
        Hashtbl.replace ts.candidates key c;
        c
    in
    if not (Hashtbl.mem cand.reporters reporter) then begin
      Hashtbl.replace cand.reporters reporter ();
      Hashtbl.replace ts.pending reporter (pending_of ts reporter + 1)
    end

(* --- snapshot codec --- *)

let cand_lines_of ts =
  let cands =
    List.sort compare
      (Hashtbl.fold (fun k c acc -> (k, c) :: acc) ts.candidates [])
  in
  List.map
    (fun (_, (c : candidate)) ->
      let reporters =
        List.sort compare
          (Hashtbl.fold (fun r () acc -> r :: acc) c.reporters [])
      in
      Printf.sprintf "cand\t%s\t%s"
        (String.concat "," reporters)
        (Signature_io.to_line c.exemplar))
    cands

(* One tenant as lines: the section form shared by the snapshot and the
   adopt transfer.  [folded] collapses the changelog to its head — base =
   current set at base_version = head, no entries — which is how a tenant
   travels between origins: the new owner continues at head + 1 and serves
   lagging clients snapshots. *)
let tenant_section ?(folded = false) ts =
  let base_version, base, entries =
    if folded then (Changelog.version ts.log, Changelog.current ts.log, [])
    else (Changelog.horizon ts.log, Changelog.base ts.log, Changelog.entries ts.log)
  in
  let cands = cand_lines_of ts in
  (Printf.sprintf "tenant\t%s\t%d\t%d\t%d\t%d\t%d" ts.name base_version
     (Changelog.next_id ts.log)
     (List.length base) (List.length entries) (List.length cands))
  :: List.map Signature_io.to_line base
  @ List.map Changelog.entry_to_line entries
  @ cands

let snapshot_payload t =
  let names = tenant_names t in
  String.concat "\n"
    ((Printf.sprintf "authority\t%d" (List.length names))
    :: List.concat_map
         (fun name -> tenant_section (Hashtbl.find t.tenants name))
         names)

let take n lines =
  let rec loop n acc = function
    | rest when n = 0 -> Some (List.rev acc, rest)
    | [] -> None
    | line :: rest -> loop (n - 1) (line :: acc) rest
  in
  loop n [] lines

let parse_sig_lines lines =
  let rec loop acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match Signature_io.of_line line with
      | Ok s -> loop (s :: acc) rest
      | Error e -> Error ("snapshot signature: " ^ Leak_error.to_string e))
  in
  loop [] lines

let parse_entry_lines lines =
  let rec loop acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match Changelog.entry_of_line line with
      | Ok e -> loop (e :: acc) rest
      | Error e -> Error e)
  in
  loop [] lines

let parse_tenant_section header rest =
  let ( let* ) = Result.bind in
  match String.split_on_char '\t' header with
  | [ "tenant"; name; base_version; next_id; nbase; nentries; ncands ]
    when id_ok name -> (
    match
      ( int_of_string_opt base_version,
        int_of_string_opt next_id,
        int_of_string_opt nbase,
        int_of_string_opt nentries,
        int_of_string_opt ncands )
    with
    | Some base_version, Some next_id, Some nbase, Some nentries, Some ncands
      when base_version >= 0 && next_id >= 0 && nbase >= 0 && nentries >= 0
           && ncands >= 0 -> (
      match take nbase rest with
      | None -> Error "snapshot: base set overruns payload"
      | Some (base_lines, rest) -> (
        let* base = parse_sig_lines base_lines in
        match take nentries rest with
        | None -> Error "snapshot: entries overrun payload"
        | Some (entry_lines, rest) -> (
          let* entries = parse_entry_lines entry_lines in
          match take ncands rest with
          | None -> Error "snapshot: candidates overrun payload"
          | Some (cand_lines, rest) ->
            let* log = Changelog.restore ~base_version ~base ~next_id ~entries in
            let ts = tenant_of_log name log in
            let rec cands = function
              | [] -> Ok ()
              | line :: more -> (
                match split1 line with
                | Some ("cand", rest) -> (
                  match split1 rest with
                  | Some (reporters, sig_line) -> (
                    match Signature_io.of_line sig_line with
                    | Error e ->
                      Error ("snapshot candidate: " ^ Leak_error.to_string e)
                    | Ok exemplar ->
                      List.iter
                        (fun r -> apply_report ts ~reporter:r exemplar)
                        (String.split_on_char ',' reporters);
                      cands more)
                  | None -> Error "snapshot: bad candidate line")
                | _ -> Error "snapshot: bad candidate line")
            in
            let* () = cands cand_lines in
            Ok (ts, rest))))
    | _ -> Error "snapshot: bad tenant header")
  | _ -> Error "snapshot: bad tenant header"

let state_of_snapshot payload =
  let ( let* ) = Result.bind in
  match String.split_on_char '\n' payload with
  | header :: rest -> (
    match String.split_on_char '\t' header with
    | [ "authority"; n ] -> (
      match int_of_string_opt n with
      | Some n when n >= 0 ->
        let tenants = Hashtbl.create (max 8 n) in
        let rec loop i rest =
          if i = n then
            if rest = [] then Ok tenants else Error "snapshot: trailing data"
          else
            match rest with
            | header :: rest ->
              let* ts, rest = parse_tenant_section header rest in
              Hashtbl.replace tenants ts.name ts;
              loop (i + 1) rest
            | [] -> Error "snapshot: missing tenant section"
        in
        loop 0 rest
      | _ -> Error "snapshot: bad header")
    | _ -> Error "snapshot: bad header")
  | [] -> Error "snapshot: empty payload"

(* --- recovery --- *)

type snapshot_status = Loaded | Absent | Corrupt of string

type report = {
  snapshot : snapshot_status;
  replayed : int;
  stale : int;
  undecodable : int;
  tail : Wal.tail;
  promoted_on_recovery : int;
}

let report_to_string r =
  Printf.sprintf
    "snapshot %s; %d entr%s replayed (%d stale), %d undecodable; tail %s; %d promoted on recovery"
    (match r.snapshot with
    | Loaded -> "loaded"
    | Absent -> "absent"
    | Corrupt e -> Printf.sprintf "CORRUPT (%s)" e)
    r.replayed
    (if r.replayed = 1 then "y" else "ies")
    r.stale r.undecodable
    (Wal.tail_to_string r.tail)
    r.promoted_on_recovery

let create ?(obs = Obs.noop) ?(config = default_config) () =
  if config.k < 1 then invalid_arg "Authority: k < 1";
  if config.reporter_cap < 1 then invalid_arg "Authority: reporter_cap < 1";
  {
    config;
    obs;
    tenants = Hashtbl.create 8;
    dir = None;
    writer = None;
    rev_promotions = [];
    shard = None;
  }

(* Parse a folded tenant section (adopt payload / export form) into a
   tenant state.  The section must be exactly one tenant, fully consumed. *)
let tenant_of_section payload =
  match String.split_on_char '\n' payload with
  | [] -> Error "adopt: empty payload"
  | header :: rest -> (
    match parse_tenant_section header rest with
    | Error _ as e -> e
    | Ok (ts, []) -> Ok ts
    | Ok (_, _ :: _) -> Error "adopt: trailing data")

(* Replay one journal entry onto recovered state.  Returns [`Applied] or
   [`Stale] (an entry whose version is not newer — the compaction crash
   window, or a duplicated tail record). *)
let replay_jentry t jentry =
  match jentry with
  | Change { tenant; entry } ->
    let ts = lookup t tenant in
    if entry.Changelog.version = Changelog.version ts.log + 1 then begin
      ignore (apply_change ts entry.Changelog.change);
      `Applied
    end
    else `Stale
  | Report { tenant; reporter; signature } ->
    let ts = lookup t tenant in
    apply_report ts ~reporter signature;
    `Applied
  | Adopt { tenant; payload } -> (
    (* Version-gated like Change: a snapshot written after the adoption
       already contains it (and possibly later changes) — re-installing
       the adopted base would regress past them. *)
    match tenant_of_section payload with
    | Error _ -> `Stale
    | Ok ts ->
      if ts.name <> tenant then `Stale
      else
        let local = version t ~tenant in
        if Changelog.version ts.log >= local then begin
          Hashtbl.replace t.tenants tenant ts;
          `Applied
        end
        else `Stale)
  | Release { tenant; at } ->
    (* Skip when local state has advanced past the handoff point: the
       snapshot postdates a re-adoption of the same tenant. *)
    if version t ~tenant > at then `Stale
    else begin
      Hashtbl.remove t.tenants tenant;
      `Applied
    end
  | Shard { self; line } -> (
    match Shard_map.of_line line with
    | Ok map ->
      t.shard <- Some (self, map);
      `Applied
    | Error _ -> `Stale)

let promote_ready t =
  List.fold_left
    (fun acc name ->
      let ts = Hashtbl.find t.tenants name in
      let ready =
        List.sort compare
          (Hashtbl.fold
             (fun key (c : candidate) acc ->
               if Hashtbl.length c.reporters >= t.config.k then key :: acc
               else acc)
             ts.candidates [])
      in
      List.fold_left
        (fun acc key ->
          match Hashtbl.find_opt ts.candidates key with
          | Some cand ->
            ignore (promote t ts cand);
            acc + 1
          | None -> acc)
        acc ready)
    0 (tenant_names t)

let ensure_dir dir =
  if Sys.file_exists dir then
    if Sys.is_directory dir then Ok ()
    else Error (Printf.sprintf "%s exists and is not a directory" dir)
  else
    match Sys.mkdir dir 0o755 with
    | () -> Ok ()
    | exception Sys_error e -> Error e

let open_ ?(obs = Obs.noop) ?(config = default_config) ~dir () =
  match ensure_dir dir with
  | Error _ as e -> e
  | Ok () -> (
    let t = create ~obs ~config () in
    let t = { t with dir = Some dir } in
    let snapshot =
      match Snapshot.read (snapshot_path ~dir) with
      | Ok None -> Absent
      | Ok (Some payload) -> (
        match state_of_snapshot payload with
        | Ok tenants ->
          Hashtbl.iter (fun name ts -> Hashtbl.replace t.tenants name ts) tenants;
          Loaded
        | Error e -> Corrupt e)
      | Error e -> Corrupt e
    in
    (match snapshot with
    | Corrupt _ -> Hashtbl.reset t.tenants
    | Loaded | Absent -> ());
    let wal = wal_path ~dir in
    let replay () =
      if not (Sys.file_exists wal) then Ok (0, 0, 0, Wal.Clean)
      else
        match Wal.read wal with
        | Error _ as e -> e
        | Ok (payloads, tail) ->
          let replayed, stale, undecodable =
            List.fold_left
              (fun (replayed, stale, undecodable) payload ->
                match jentry_of_payload payload with
                | Error _ -> (replayed, stale, undecodable + 1)
                | Ok jentry -> (
                  match replay_jentry t jentry with
                  | `Applied -> (replayed + 1, stale, undecodable)
                  | `Stale -> (replayed + 1, stale + 1, undecodable)))
              (0, 0, 0) payloads
          in
          (match tail with
          | Wal.Clean -> Ok (replayed, stale, undecodable, tail)
          | Wal.Torn _ -> (
            match Wal.repair wal with
            | Ok _ -> Ok (replayed, stale, undecodable, tail)
            | Error _ as e -> e))
    in
    match replay () with
    | Error _ as e -> e
    | Ok (replayed, stale, undecodable, tail) -> (
      match Wal.open_append wal with
      | Error _ as e -> e
      | Ok writer ->
        t.writer <- Some writer;
        (* A crash between a candidate's k-th report and its promotion
           entry leaves the tally at >= k with nothing published; finish
           the job now that the journal is writable again. *)
        let promoted_on_recovery = promote_ready t in
        Obs.Counter.add
          (Obs.counter obs ~help:"Journal entries applied during recovery."
             "leakdetect_authority_replayed_entries_total")
          replayed;
        Ok
          ( t,
            { snapshot; replayed; stale; undecodable; tail; promoted_on_recovery }
          )))

let close t =
  match t.writer with
  | Some w ->
    Wal.close w;
    t.writer <- None
  | None -> ()

(* --- mutations --- *)

(* Signatures are plain data and their line codec is injective, so
   structural equality decides "same line" without serializing either.
   [desired] is walked in ascending id order, the last of several
   signatures with one id winning.  Publishers already pass id-ascending
   sets, so one linear check skips the sort: on [distrib_history] that
   skip is worth ~5% of a round's median latency. *)
let diff_changes current desired =
  let id (s : Signature.t) = s.Signature.id in
  let rec ascending = function
    | a :: (b :: _ as rest) -> id a < id b && ascending rest
    | _ -> true
  in
  let rec last_per_id = function
    | a :: (b :: _ as rest) when id a = id b -> last_per_id rest
    | a :: rest -> a :: last_per_id rest
    | [] -> []
  in
  let want =
    if ascending desired then desired
    else last_per_id (List.stable_sort (fun a b -> compare (id a) (id b)) desired)
  in
  let adds =
    List.filter_map
      (fun s ->
        match Sigset.find (id s) current with
        | Some old when old == s || old = s -> None
        | _ -> Some (Changelog.Add s))
      want
  in
  let rest = ref want in
  let retires =
    Sigset.fold
      (fun s acc ->
        let rec skip = function
          | x :: more when id x < id s -> skip more
          | l -> l
        in
        rest := skip !rest;
        match !rest with
        | x :: _ when id x = id s -> acc
        | _ -> Changelog.Retire (id s) :: acc)
      current []
    |> List.rev
  in
  adds @ retires

let publish ?(inject = fun _ -> ()) t ~tenant desired =
  check_id "tenant" tenant;
  let ts = lookup t tenant in
  let changes = diff_changes (Changelog.current_set ts.log) desired in
  if changes = [] then begin
    count t "leakdetect_authority_publish_noops_total"
      "Publishes whose set was already live (no version bump).";
    Changelog.version ts.log
  end
  else begin
    List.iteri
      (fun i change ->
        inject i;
        ignore (commit_change t ts change))
      changes;
    count t "leakdetect_authority_publishes_total"
      "Signature sets published (at least one change committed).";
    Changelog.version ts.log
  end

type candidate_outcome =
  | Accepted of int
  | Duplicate
  | Promoted of int
  | Capped

let candidate_outcome_to_string = function
  | Accepted n -> Printf.sprintf "accepted(%d)" n
  | Duplicate -> "duplicate"
  | Promoted v -> Printf.sprintf "promoted(v%d)" v
  | Capped -> "capped"

let count_candidate t outcome =
  count t
    ~labels:
      [ ( "outcome",
          match outcome with
          | Accepted _ -> "accepted"
          | Duplicate -> "duplicate"
          | Promoted _ -> "promoted"
          | Capped -> "capped" ) ]
    "leakdetect_authority_candidates_total"
    "Candidate reports received, by outcome.";
  outcome

let report_candidate t ~tenant ~reporter signature =
  check_id "tenant" tenant;
  check_id "reporter" reporter;
  let ts = lookup t tenant in
  let key = key_of signature in
  if in_published_set ts key then count_candidate t Duplicate
  else
    let existing = Hashtbl.find_opt ts.candidates key in
    let already_member =
      match existing with
      | Some c -> Hashtbl.mem c.reporters reporter
      | None -> false
    in
    if already_member then count_candidate t Duplicate
    else if pending_of ts reporter >= t.config.reporter_cap then
      count_candidate t Capped
    else begin
      journal t (Report { tenant; reporter; signature });
      apply_report ts ~reporter signature;
      let cand = Hashtbl.find ts.candidates key in
      if Hashtbl.length cand.reporters >= t.config.k then
        count_candidate t (Promoted (promote t ts cand))
      else count_candidate t (Accepted (Hashtbl.length cand.reporters))
    end

let compact ?(inject = fun _ -> ()) t =
  Hashtbl.iter
    (fun _ ts -> Changelog.compact ts.log ~keep:t.config.compact_keep)
    t.tenants;
  match t.dir with
  | None -> ()
  | Some dir ->
    inject "pre_snapshot";
    Snapshot.write (snapshot_path ~dir) (snapshot_payload t);
    (* Crash window: new snapshot, old journal.  Replay is version-
       idempotent, so recovery lands on this same state. *)
    inject "post_snapshot";
    (match t.writer with Some w -> Wal.close w | None -> ());
    t.writer <- Some (Wal.create (wal_path ~dir));
    (* The snapshot codec carries tenants only; the shard assignment rides
       the journal, so re-seed the fresh journal with it. *)
    (match t.shard with
    | Some (self, map) ->
      journal t (Shard { self; line = Shard_map.to_line map })
    | None -> ());
    count t "leakdetect_authority_compactions_total"
      "Snapshot compactions performed."

(* --- sharding and rebalance --- *)

let shard t = t.shard

let owns t ~tenant =
  match t.shard with
  | None -> true
  | Some (self, map) -> Shard_map.owner map ~tenant = self

(* [self] need not be in the map: an origin holding a map that excludes
   it owns nothing and 421s everything — a standby waiting to join, or a
   node being drained out. *)
let set_shard t ~self map =
  check_id "origin" self;
  journal t (Shard { self; line = Shard_map.to_line map });
  t.shard <- Some (self, map)

let export_tenant t ~tenant =
  check_id "tenant" tenant;
  match Hashtbl.find_opt t.tenants tenant with
  | None -> Error (Printf.sprintf "export: unknown tenant %S" tenant)
  | Some ts -> Ok (String.concat "\n" (tenant_section ~folded:true ts))

let adopt_tenant t payload =
  match tenant_of_section payload with
  | Error _ as e -> e
  | Ok ts ->
    let local = version t ~tenant:ts.name in
    if Changelog.version ts.log < local then
      Error
        (Printf.sprintf
           "adopt: payload for %s at version %d behind local state at %d"
           ts.name (Changelog.version ts.log) local)
    else begin
      journal t (Adopt { tenant = ts.name; payload });
      Hashtbl.replace t.tenants ts.name ts;
      count t "leakdetect_authority_adoptions_total"
        "Tenants adopted from another origin during a rebalance.";
      if not (Obs.is_noop t.obs) then set_version_gauge t ts;
      Ok ts.name
    end

let release_tenant t ~tenant =
  check_id "tenant" tenant;
  match Hashtbl.find_opt t.tenants tenant with
  | None -> Error (Printf.sprintf "release: unknown tenant %S" tenant)
  | Some ts ->
    let at = Changelog.version ts.log in
    journal t (Release { tenant; at });
    Hashtbl.remove t.tenants tenant;
    count t "leakdetect_authority_releases_total"
      "Tenants released to another origin during a rebalance.";
    Ok at

(* --- HTTP --- *)

let signatures_endpoint = "/signatures"
let candidates_endpoint = "/candidates"
let metrics_endpoint = "/metrics"
let digest_endpoint = "/digest"

let respond t (response : Http.Response.t) =
  count t
    ~labels:[ ("code", string_of_int response.Http.Response.status) ]
    "leakdetect_authority_requests_total"
    "HTTP requests served, by status code.";
  response

let version_headers ts =
  [ ("X-Signature-Version", string_of_int (Changelog.version ts.log));
    ("X-Signature-Checksum", Crc32.to_hex (Changelog.wire_checksum ts.log)) ]

let count_sync_response t mode =
  count t
    ~labels:[ ("mode", mode) ]
    "leakdetect_authority_sync_responses_total"
    "GET /signatures responses, by transfer mode."

(* When a shard map is installed, requests for tenants this origin does
   not own are misdirected — answer 421 naming the owner and epoch so the
   client can tell stale routing from a partitioned minority.  A tenant we
   own but have not adopted yet (the rebalance is mid-flight) is a 503:
   retryable, never a fresh empty tenant that would read as a version
   regression. *)
let shard_gate t ~tenant =
  match t.shard with
  | None -> Ok ()
  | Some (self, map) ->
    let owner = Shard_map.owner map ~tenant in
    if owner <> self then
      Error
        (Http.Response.make
           ~headers:
             (Http.Headers.of_list
                [ ("X-Shard-Epoch", string_of_int (Shard_map.epoch map));
                  ("X-Shard-Owner", owner) ])
           421)
    else if not (Hashtbl.mem t.tenants tenant) then
      Error
        (Http.Response.make
           ~headers:
             (Http.Headers.of_list
                [ ("X-Shard-Epoch", string_of_int (Shard_map.epoch map));
                  ("Retry-After", "1") ])
           503)
    else Ok ()

let handle_signatures t (request : Http.Request.t) params =
  if request.Http.Request.meth <> Http.Request.GET then
    Http.Response.make ~headers:(Http.Headers.of_list [ ("Allow", "GET") ]) 405
  else
    match List.assoc_opt "tenant" params with
    | Some tenant when id_ok tenant -> (
      let since =
        match List.assoc_opt "since" params with
        | Some v -> int_of_string_opt v
        | None -> Some 0
      in
      let full = List.assoc_opt "full" params = Some "1" in
      match since with
      | None -> Http.Response.make 400
      | Some since when since < 0 -> Http.Response.make 400
      | Some since -> (
        match shard_gate t ~tenant with
        | Error misdirected -> misdirected
        | Ok () ->
        let ts = lookup t tenant in
        let head = Changelog.version ts.log in
        if since >= head && not full then begin
          count_sync_response t "not_modified";
          Http.Response.make
            ~headers:(Http.Headers.of_list (version_headers ts))
            304
        end
        else
          let snapshot () =
            count_sync_response t "snapshot";
            let body =
              String.concat "\n"
                (List.map Signature_io.to_line (Changelog.current ts.log))
            in
            Http.Response.make
              ~headers:
                (Http.Headers.of_list
                   (version_headers ts
                   @ [ ("X-Signature-Mode", "snapshot");
                       ("Content-Type", "text/tab-separated-values") ]))
              ~body 200
          in
          if full then snapshot ()
          else
            match Changelog.since ts.log since with
            | None -> snapshot ()
            | Some entries ->
              count_sync_response t "delta";
              let body =
                String.concat "\n"
                  (List.map Changelog.entry_to_line entries)
              in
              Http.Response.make
                ~headers:
                  (Http.Headers.of_list
                     (version_headers ts
                     @ [ ("X-Signature-Mode", "delta");
                         ("X-Signature-Since", string_of_int since);
                         ("Content-Type", "text/tab-separated-values") ]))
                ~body 200))
    | _ -> Http.Response.make 400

(* Ranged anti-entropy digest: checkpoints of the canonical-set CRC at
   interval steps plus the head, so a diverged mirror can localize the
   fork to an interval and splice only the suffix past the newest
   agreeing checkpoint (see {!Changelog.digest}). *)
let handle_digest t (request : Http.Request.t) params =
  if request.Http.Request.meth <> Http.Request.GET then
    Http.Response.make ~headers:(Http.Headers.of_list [ ("Allow", "GET") ]) 405
  else
    match List.assoc_opt "tenant" params with
    | Some tenant when id_ok tenant -> (
      let since =
        match List.assoc_opt "since" params with
        | Some v -> int_of_string_opt v
        | None -> Some 0
      in
      let interval =
        match List.assoc_opt "interval" params with
        | Some v -> int_of_string_opt v
        | None -> Some 8
      in
      match (since, interval) with
      | Some since, Some interval when since >= 0 && interval >= 1 -> (
        match shard_gate t ~tenant with
        | Error misdirected -> misdirected
        | Ok () ->
          let ts = lookup t tenant in
          count_sync_response t "digest";
          let body =
            Changelog.digest_to_body
              (Changelog.digest ts.log ~since ~interval)
          in
          Http.Response.make
            ~headers:
              (Http.Headers.of_list
                 (version_headers ts
                 @ [ ("X-Signature-Mode", "digest");
                     ("Content-Type", "text/tab-separated-values") ]))
            ~body 200)
      | _ -> Http.Response.make 400)
    | _ -> Http.Response.make 400

let handle_candidates t (request : Http.Request.t) params =
  if request.Http.Request.meth <> Http.Request.POST then
    Http.Response.make ~headers:(Http.Headers.of_list [ ("Allow", "POST") ]) 405
  else
    match (List.assoc_opt "tenant" params, List.assoc_opt "reporter" params) with
    | Some tenant, Some reporter when id_ok tenant && id_ok reporter -> (
      match shard_gate t ~tenant with
      | Error misdirected -> misdirected
      | Ok () ->
      let body = request.Http.Request.body in
      let lines = if body = "" then [] else String.split_on_char '\n' body in
      let rec parse acc = function
        | [] -> Ok (List.rev acc)
        | line :: rest -> (
          match Signature_io.of_line line with
          | Ok s -> parse (s :: acc) rest
          | Error e -> Error (Leak_error.to_string e))
      in
      match parse [] lines with
      | Error _ -> Http.Response.make 400
      | Ok [] -> Http.Response.make 400
      | Ok candidates ->
        let accepted = ref 0
        and duplicate = ref 0
        and promoted = ref 0
        and capped = ref 0 in
        List.iter
          (fun s ->
            match report_candidate t ~tenant ~reporter s with
            | Accepted _ -> incr accepted
            | Duplicate -> incr duplicate
            | Promoted _ -> incr promoted
            | Capped -> incr capped)
          candidates;
        let body =
          Printf.sprintf
            "accepted\t%d\nduplicate\t%d\npromoted\t%d\ncapped\t%d" !accepted
            !duplicate !promoted !capped
        in
        Http.Response.make
          ~headers:
            (Http.Headers.of_list
               (( "X-Signature-Version",
                  string_of_int (version t ~tenant) )
               :: [ ("Content-Type", "text/tab-separated-values") ]))
          ~body 200)
    | _ -> Http.Response.make 400

let handle t (request : Http.Request.t) =
  let path, query =
    Leakdetect_net.Url.split_path_query request.Http.Request.target
  in
  let params =
    Option.value ~default:[] (Leakdetect_net.Url.decode_query query)
  in
  respond t
  @@
  if path = metrics_endpoint then
    if request.Http.Request.meth <> Http.Request.GET then
      Http.Response.make ~headers:(Http.Headers.of_list [ ("Allow", "GET") ]) 405
    else
      Http.Response.make
        ~headers:
          (Http.Headers.of_list
             [ ("Content-Type", "text/plain; version=0.0.4; charset=utf-8") ])
        ~body:(Obs.to_prometheus t.obs) 200
  else if path = signatures_endpoint then handle_signatures t request params
  else if path = candidates_endpoint then handle_candidates t request params
  else if path = digest_endpoint then handle_digest t request params
  else Http.Response.make 404

let wire_transport t raw =
  match Http.Wire.parse raw with
  | Error e -> Error ("request corrupt: " ^ Http.Wire.error_to_string e)
  | Ok request -> Ok (Http.Response.print (handle t request))
