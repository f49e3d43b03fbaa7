module Http = Leakdetect_http
module Signature_client = Leakdetect_monitor.Signature_client

type counters = {
  mutable delta_updates : int;
  mutable snapshot_updates : int;
  mutable forced_full : int;
  mutable regressions_refused : int;
  mutable fork_smells : int;
  mutable escalations : int;
}

type update = [ `Delta of Changelog.entry list | `Snapshot ]

type t = {
  tenant : string;
  (* Used for its retry / backoff / health machine and version only: the
     last-known-good set lives in [set], as a tree that verification and
     delta application read and update without serializing it. *)
  inner : Signature_client.t;
  mutable set : Sigset.t;
  k : counters;
  (* Which transfer produced the set whose version the inner client is
     about to take; read back after sync to attribute the update (and,
     by a relay, to mirror the applied entry suffix). *)
  mutable last_update : update option;
  (* Set when an attempt failed *verification* (checksum fork, version
     regression) as opposed to transport loss — the tiered sync
     escalates to the origin on it. *)
  mutable verify_failed : bool;
  (* Sticky preferred relay index for sync_via; rotates away from a
     relay whose answer failed verification. *)
  mutable preferred : int;
}

let create ?config ?obs ?seed ~tenant () =
  if not (Protocol.id_ok tenant) then
    invalid_arg (Printf.sprintf "Delta_client: bad tenant id %S" tenant);
  {
    tenant;
    inner = Signature_client.create ?config ?obs ?seed ();
    set = Sigset.empty;
    k =
      { delta_updates = 0; snapshot_updates = 0; forced_full = 0;
        regressions_refused = 0; fork_smells = 0; escalations = 0 };
    last_update = None;
    verify_failed = false;
    preferred = 0;
  }

let tenant t = t.tenant
let version t = Signature_client.version t.inner
let signatures t = Sigset.to_list t.set
let set t = t.set
let checksum t = Sigset.checksum t.set
let health t = Signature_client.health t.inner
let staleness t = Signature_client.staleness t.inner
let last_update t = t.last_update

let counters t = t.k

let request t ~transport ~since ~full =
  Result.map snd
    (Protocol.get ~host:`Authority transport
       (Protocol.signatures_target ~tenant:t.tenant ~since ~full))

let refuse_regression t ~server ~held =
  t.k.regressions_refused <- t.k.regressions_refused + 1;
  t.verify_failed <- true;
  Error
    (Printf.sprintf "version regression: server at %d, we hold %d" server held)

(* The checksum header is mandatory on every 200 and binds the version:
   accepting an unverified body would let a transit-corrupted payload (or
   a corrupted version header over a valid payload) install silently. *)
let verified t ~(mode : update) ~version ~advertised set =
  match advertised with
  | None -> Error "missing checksum header"
  | Some sum when Sigset.wire_checksum ~version set <> sum ->
    t.verify_failed <- true;
    Error
      (Printf.sprintf "checksum mismatch at version %d (%s)" version
         (match mode with `Delta _ -> "delta" | `Snapshot -> "snapshot"))
  | Some _ -> Ok (version, set)

(* The inner client takes the version of every [Installed] its fetch
   returns, so the tree is swapped in at the same moment. *)
let install t ~(mode : update) (version, set) =
  t.last_update <- Some mode;
  t.set <- set;
  Signature_client.Installed version

(* A snapshot holding two signatures with one id cannot come from any
   committed set, whatever checksum it carries: a verification failure,
   never an install. *)
let verified_snapshot t ~version ~advertised body =
  match Protocol.sigs_of_lines (Protocol.lines body) with
  | Error _ as e -> e
  | Ok sigs -> (
    match Sigset.of_list sigs with
    | Error (`Duplicate_id id) ->
      t.verify_failed <- true;
      Error (Printf.sprintf "snapshot repeats signature id %d" id)
    | Ok set -> verified t ~mode:`Snapshot ~version ~advertised set)

let apply_delta t ~since ~version ~advertised entries =
  (* The suffix must be exactly [since+1 .. version], consecutive; any
     gap means we cannot reconstruct the committed set and must resync
     in full. *)
  let rec check expected = function
    | [] -> expected - 1 = version
    | (e : Changelog.entry) :: rest ->
      e.Changelog.version = expected && check (expected + 1) rest
  in
  if not (check (since + 1) entries) then Error `Gap
  else
    let set =
      List.fold_left
        (fun set (e : Changelog.entry) -> Changelog.apply set e.Changelog.change)
        t.set entries
    in
    Ok (verified t ~mode:(`Delta entries) ~version ~advertised set)

(* One fetch.  [transport] serves the delta request; [full_transport]
   serves the full=1 recovery resync — in a relayed topology the latter
   is the origin, so a forked or corrupting relay can never supply its
   own "recovery" bytes. *)
let fetch t ~transport ~full_transport ~since =
  let full_resync () =
    t.k.forced_full <- t.k.forced_full + 1;
    match request t ~transport:full_transport ~since ~full:true with
    | Error _ as e -> e
    | Ok response -> (
      match response.Http.Response.status with
      | 200 -> (
        match Protocol.version response with
        | None -> Error "missing version header"
        | Some version when version < since ->
          refuse_regression t ~server:version ~held:since
        | Some version -> (
          match
            verified_snapshot t ~version
              ~advertised:(Protocol.checksum response)
              response.Http.Response.body
          with
          | Error _ as e -> e
          | Ok (v, set) when v = since && Sigset.checksum set = checksum t ->
            (* The resync confirmed the set we already hold: the smell
               was the answering node's (or the wire's), not ours —
               nothing new was installed. *)
            Ok (Signature_client.Up_to_date { observed = Some v })
          | Ok verified -> Ok (install t ~mode:`Snapshot verified)))
      | status ->
        Error (Printf.sprintf "unexpected status %d on full sync" status))
  in
  match request t ~transport ~since ~full:false with
  | Error _ as e -> e
  | Ok response -> (
    let observed = Protocol.version response in
    match response.Http.Response.status with
    | 304 -> (
      match observed with
      | Some v when v < since -> refuse_regression t ~server:v ~held:since
      | Some v when v = since ->
        (* Split-brain defense: a 304 claims the server's set at our
           version IS our set.  The version-bound checksum proves it; a
           mismatch means the server is on a fork of the changelog at
           our version, and accepting the 304 would silently pin us to
           whichever side answered.  Refuse and resync in full from the
           authoritative transport instead. *)
        let ours = Sigset.wire_checksum ~version:since t.set in
        (match Protocol.checksum response with
        | Some sum when sum = ours -> Ok (Signature_client.Up_to_date { observed })
        | Some _ | None ->
          t.k.fork_smells <- t.k.fork_smells + 1;
          t.verify_failed <- true;
          full_resync ())
      | _ -> Ok (Signature_client.Up_to_date { observed }))
    | 200 -> (
      match observed with
      | None -> Error "missing version header"
      | Some version when version < since ->
        refuse_regression t ~server:version ~held:since
      | Some version -> (
        let advertised = Protocol.checksum response in
        match Protocol.mode response with
        | Some `Delta -> (
          let body = response.Http.Response.body in
          match Protocol.entries_of_lines (Protocol.lines body) with
          | Error _ as e -> e
          | Ok entries -> (
            match apply_delta t ~since ~version ~advertised entries with
            | Ok (Ok verified) ->
              Ok (install t ~mode:(`Delta entries) verified)
            | Ok (Error _) | Error `Gap ->
              (* Either we cannot reconstruct the committed set (gap) or
                 what we reconstructed is not it (checksum): same cure. *)
              full_resync ()))
        | Some `Snapshot | None ->
          Result.map
            (install t ~mode:`Snapshot)
            (verified_snapshot t ~version ~advertised
               response.Http.Response.body)
        | Some (`Other other) ->
          Error (Printf.sprintf "unknown transfer mode %S" other)))
    | status -> Error (Printf.sprintf "unexpected status %d" status))

let attribute t report =
  (match (report.Signature_client.outcome, t.last_update) with
  | Signature_client.Updated _, Some (`Delta _) ->
    t.k.delta_updates <- t.k.delta_updates + 1
  | Signature_client.Updated _, Some `Snapshot ->
    t.k.snapshot_updates <- t.k.snapshot_updates + 1
  | _ -> ());
  report

let sync ?full_transport t ~transport =
  let full_transport =
    match full_transport with Some f -> f | None -> transport
  in
  t.last_update <- None;
  t.verify_failed <- false;
  attribute t
    (Signature_client.sync t.inner ~fetch:(fun ~since ->
         fetch t ~transport ~full_transport ~since))

let sync_via t ~relays ~origin =
  if relays = [] then invalid_arg "Delta_client.sync_via: no relays";
  let n = List.length relays in
  t.last_update <- None;
  t.verify_failed <- false;
  let attempt = ref 0 in
  let escalated = ref false in
  let report =
    Signature_client.sync t.inner ~fetch:(fun ~since ->
        incr attempt;
        (* Attempts walk the relay tier first (starting at the sticky
           preferred relay), then fall through to the origin; a
           verification failure — fork smell, checksum mismatch,
           regression — escalates the rest of this sync immediately:
           transport loss is worth retrying against a sibling relay,
           a lying answer is not. *)
        if !escalated || !attempt > n then begin
          if not !escalated then begin
            escalated := true;
            t.k.escalations <- t.k.escalations + 1
          end;
          fetch t ~transport:origin ~full_transport:origin ~since
        end
        else begin
          let ix = (t.preferred + !attempt - 1) mod n in
          let result =
            fetch t ~transport:(List.nth relays ix) ~full_transport:origin
              ~since
          in
          if t.verify_failed then begin
            (* Fail away from the relay that lied: future syncs start at
               its sibling. *)
            t.preferred <- (ix + 1) mod n;
            if not !escalated then begin
              escalated := true;
              t.k.escalations <- t.k.escalations + 1
            end;
            t.verify_failed <- false
          end;
          result
        end)
  in
  attribute t report
