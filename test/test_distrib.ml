(* Tests for the distribution tier (Leakdetect_distrib): changelog
   algebra and codec, authority HTTP protocol and k-anonymous promotion,
   journal crash-point sweeps, the delta client's fallback ladder, and a
   miniature end-to-end fault soak. *)

module Crc32 = Leakdetect_util.Crc32
module Json = Leakdetect_util.Json
module Fault = Leakdetect_fault.Fault
module Wal = Leakdetect_store.Wal
module Http = Leakdetect_http
module Signature = Leakdetect_core.Signature
module Signature_io = Leakdetect_core.Signature_io
module Signature_client = Leakdetect_monitor.Signature_client
module Changelog = Leakdetect_distrib.Changelog
module Sigset = Leakdetect_distrib.Sigset
module Authority = Leakdetect_distrib.Authority
module Protocol = Leakdetect_distrib.Protocol
module Delta_client = Leakdetect_distrib.Delta_client
module Shard_map = Leakdetect_distrib.Shard_map
module Relay = Leakdetect_distrib.Relay
module Topology = Leakdetect_distrib.Topology
module Chaos = Leakdetect_distrib.Chaos

let qtest = QCheck_alcotest.to_alcotest

(* --- scratch directories --- *)

let fresh_dir () =
  let f = Filename.temp_file "ld_distrib_test" "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let sig_ ?(mode = Signature.Conjunction) ?(cluster_size = 2) id tokens =
  Signature.make ~id ~mode ~cluster_size tokens

let s1 = sig_ 1 [ "imei=355021930123456"; "loc=35.6" ]
let s2 = sig_ 2 ~mode:Signature.Ordered [ "GET"; "/track"; "id=9774d56d" ]
let s3 = sig_ 3 [ "mac=00:11:22:33:44:55" ]

let lines set = String.concat "\n" (List.map Signature_io.to_line set)

let check_set msg expected got =
  Alcotest.(check string) msg (lines expected) (lines got)

(* --- changelog --- *)

let test_changelog_ops () =
  let log = Changelog.create () in
  Alcotest.(check int) "fresh version" 0 (Changelog.version log);
  let e1 = Changelog.append log (Changelog.Add s1) in
  Alcotest.(check int) "first entry at v1" 1 e1.Changelog.version;
  ignore (Changelog.append log (Changelog.Add s3));
  ignore (Changelog.append log (Changelog.Add s2));
  check_set "id-ascending regardless of append order" [ s1; s2; s3 ]
    (Changelog.current log);
  (* Add with an existing id replaces. *)
  let s1' = sig_ 1 [ "imei=355021930123456"; "loc=51.5" ] in
  ignore (Changelog.append log (Changelog.Add s1'));
  check_set "replace by id" [ s1'; s2; s3 ] (Changelog.current log);
  ignore (Changelog.append log (Changelog.Retire 2));
  check_set "retire removes" [ s1'; s3 ] (Changelog.current log);
  Alcotest.(check int) "version counts every change" 5 (Changelog.version log);
  (* Retire of an absent id is a no-op on the set but still a version. *)
  ignore (Changelog.append log (Changelog.Retire 99));
  check_set "absent retire no-op" [ s1'; s3 ] (Changelog.current log);
  Alcotest.(check int) "next id above every add" 4 (Changelog.next_id log);
  (* checksum_at answers at every retained version. *)
  (match Changelog.checksum_at log 2 with
  | Some sum ->
    Alcotest.(check int) "checksum_at matches replay" sum
      (Changelog_oracle.checksum_set [ s1; s3 ])
  | None -> Alcotest.fail "checksum_at must answer above the horizon");
  Alcotest.(check (option int)) "checksum beyond head" None
    (Changelog.checksum_at log 7)

let test_changelog_since_and_compact () =
  let log = Changelog.create () in
  ignore (Changelog.append log (Changelog.Add s1));
  ignore (Changelog.append log (Changelog.Add s2));
  ignore (Changelog.append log (Changelog.Add s3));
  ignore (Changelog.append log (Changelog.Retire 1));
  (match Changelog.since log 2 with
  | Some [ e3; e4 ] ->
    Alcotest.(check (list int)) "suffix versions" [ 3; 4 ]
      [ e3.Changelog.version; e4.Changelog.version ]
  | _ -> Alcotest.fail "since 2 must be the two newest entries");
  (match Changelog.since log 4 with
  | Some [] -> ()
  | _ -> Alcotest.fail "since head must be the empty delta");
  (match Changelog.since log 5 with
  | None -> ()
  | Some _ -> Alcotest.fail "since beyond head must be None");
  Changelog.compact log ~keep:1;
  Alcotest.(check int) "horizon advanced" 3 (Changelog.horizon log);
  Alcotest.(check int) "head unchanged" 4 (Changelog.version log);
  check_set "set unchanged by compaction" [ s2; s3 ] (Changelog.current log);
  (match Changelog.since log 1 with
  | None -> ()
  | Some _ -> Alcotest.fail "sub-horizon since must be None");
  (match Changelog.since log 3 with
  | Some [ e ] -> Alcotest.(check int) "servable suffix" 4 e.Changelog.version
  | _ -> Alcotest.fail "since horizon must serve the kept entry");
  Alcotest.(check (option int)) "checksum below horizon" None
    (Changelog.checksum_at log 1);
  (* next_id survives compaction: retired id 1 is never reissued. *)
  Alcotest.(check int) "next_id preserved" 4 (Changelog.next_id log)

let test_changelog_codec () =
  let entries =
    [ { Changelog.version = 1; change = Changelog.Add s2 };
      { Changelog.version = 2; change = Changelog.Retire 7 };
      { Changelog.version = 3;
        change = Changelog.Add (sig_ 9 [ "tab\tin"; "line\nbreak" ]) } ]
  in
  List.iter
    (fun e ->
      match Changelog.entry_of_line (Changelog.entry_to_line e) with
      | Ok e' ->
        Alcotest.(check string) "line-stable roundtrip"
          (Changelog.entry_to_line e) (Changelog.entry_to_line e')
      | Error err -> Alcotest.fail err)
    entries;
  List.iter
    (fun bad ->
      match Changelog.entry_of_line bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S must not decode" bad)
    [ ""; "x\t1\tjunk"; "a\tnope\t"; "r\t1\tnotanid"; "a\t1"; "r\t-1\t3" ]

let test_changelog_restore_rejects_gaps () =
  let ok =
    Changelog.restore ~base_version:2 ~base:[ s1 ] ~next_id:5
      ~entries:[ { Changelog.version = 3; change = Changelog.Add s2 } ]
  in
  (match ok with
  | Ok log ->
    Alcotest.(check int) "restored head" 3 (Changelog.version log);
    check_set "restored set" [ s1; s2 ] (Changelog.current log)
  | Error e -> Alcotest.fail e);
  match
    Changelog.restore ~base_version:2 ~base:[ s1 ] ~next_id:5
      ~entries:[ { Changelog.version = 5; change = Changelog.Add s2 } ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a version gap must not restore"

(* Any interleaving of adds/retires, compacted anywhere: the delta served
   from every servable [since] lands exactly on the full set. *)
let prop_delta_equals_snapshot =
  let gen =
    QCheck.make
      ~print:(fun (ops, keep) ->
        Printf.sprintf "%d ops, keep %d" (List.length ops) keep)
      QCheck.Gen.(
        pair
          (list_size (1 -- 25)
             (pair (int_range 0 1) (pair (int_range 1 8) (int_range 0 999))))
          (int_range 0 10))
  in
  QCheck.Test.make ~name:"delta from any since equals the full download"
    ~count:200 gen
    (fun (ops, keep) ->
      let log = Changelog.create () in
      List.iter
        (fun (kind, (id, tok)) ->
          let change =
            if kind = 0 then
              Changelog.Add (sig_ id [ Printf.sprintf "t%d" tok ])
            else Changelog.Retire id
          in
          ignore (Changelog.append log change))
        ops;
      Changelog.compact log ~keep;
      let full = Changelog.current log in
      let ok = ref true in
      for since = 0 to Changelog.version log do
        match Changelog.since log since with
        | None -> if since >= Changelog.horizon log then ok := false
        | Some entries ->
          (* Rebuild the client-side set at [since] by replaying the log
             from scratch — then apply the delta. *)
          let at_since =
            let log' = Changelog.create () in
            List.iter
              (fun (kind, (id, tok)) ->
                if Changelog.version log' < since then
                  ignore
                    (Changelog.append log'
                       (if kind = 0 then
                          Changelog.Add (sig_ id [ Printf.sprintf "t%d" tok ])
                        else Changelog.Retire id)))
              ops;
            Changelog.current log'
          in
          let landed =
            List.fold_left
              (fun set (e : Changelog.entry) ->
                Changelog.apply_change set e.Changelog.change)
              at_since entries
          in
          if lines landed <> lines full then ok := false
      done;
      !ok)

(* --- authority: protocol --- *)

let get target =
  Http.Request.make
    ~headers:(Http.Headers.of_list [ ("Host", "authority.test") ])
    Http.Request.GET target

let post target body =
  Http.Request.make
    ~headers:(Http.Headers.of_list [ ("Host", "authority.test") ])
    ~body Http.Request.POST target

let header r name = Http.Headers.get r.Http.Response.headers name

let test_authority_http_statuses () =
  let auth = Authority.create () in
  let (_ : int) = Authority.publish auth ~tenant:"t0" [ s1; s2 ] in
  let check_status msg expected request =
    Alcotest.(check int) msg expected
      (Authority.handle auth request).Http.Response.status
  in
  check_status "unknown path" 404 (get "/nope");
  check_status "POST on /signatures" 405 (post "/signatures?tenant=t0" "");
  check_status "GET on /candidates" 405 (get "/candidates?tenant=t0&reporter=r");
  (* A 405 names the method the endpoint does take. *)
  Alcotest.(check (option string)) "405 on /signatures allows GET" (Some "GET")
    (header (Authority.handle auth (post "/signatures?tenant=t0" "")) "Allow");
  Alcotest.(check (option string)) "405 on /candidates allows POST" (Some "POST")
    (header (Authority.handle auth (get "/candidates?tenant=t0&reporter=r")) "Allow");
  Alcotest.(check (option string)) "405 on /metrics allows GET" (Some "GET")
    (header (Authority.handle auth (post "/metrics" "")) "Allow");
  check_status "missing tenant" 400 (get "/signatures");
  check_status "bad tenant id" 400 (get "/signatures?tenant=bad%20id");
  check_status "unparseable since" 400 (get "/signatures?tenant=t0&since=banana");
  check_status "negative since" 400 (get "/signatures?tenant=t0&since=-1");
  check_status "bad reporter id" 400 (post "/candidates?tenant=t0&reporter=a%20b" "x");
  check_status "empty candidate body" 400 (post "/candidates?tenant=t0&reporter=r" "");
  (* 304 carries version and checksum headers. *)
  let r = Authority.handle auth (get "/signatures?tenant=t0&since=2") in
  Alcotest.(check int) "up-to-date is 304" 304 r.Http.Response.status;
  Alcotest.(check (option string)) "304 version header" (Some "2")
    (header r "X-Signature-Version");
  Alcotest.(check (option string)) "304 checksum header"
    (Some (Crc32.to_hex (Changelog_oracle.wire_checksum ~version:2 [ s1; s2 ])))
    (header r "X-Signature-Checksum");
  (* Delta mode for a servable suffix. *)
  let r = Authority.handle auth (get "/signatures?tenant=t0&since=1") in
  Alcotest.(check int) "delta is 200" 200 r.Http.Response.status;
  Alcotest.(check (option string)) "delta mode" (Some "delta")
    (header r "X-Signature-Mode");
  Alcotest.(check (option string)) "since echoed" (Some "1")
    (header r "X-Signature-Since");
  Alcotest.(check string) "delta body is the suffix"
    (Changelog.entry_to_line { Changelog.version = 2; change = Changelog.Add s2 })
    r.Http.Response.body;
  (* Snapshot when forced, and for an unknown (empty) tenant. *)
  let r = Authority.handle auth (get "/signatures?tenant=t0&since=1&full=1") in
  Alcotest.(check (option string)) "full=1 forces snapshot" (Some "snapshot")
    (header r "X-Signature-Mode");
  Alcotest.(check string) "snapshot body" (lines [ s1; s2 ]) r.Http.Response.body;
  let r = Authority.handle auth (get "/signatures?tenant=ghost&full=1") in
  Alcotest.(check int) "unknown tenant serves empty snapshot" 200
    r.Http.Response.status;
  Alcotest.(check string) "empty body" "" r.Http.Response.body

let test_authority_snapshot_below_horizon () =
  let auth = Authority.create ~config:{ Authority.default_config with compact_keep = 1 } () in
  let publish set = ignore (Authority.publish auth ~tenant:"t0" set) in
  publish [ s1 ];
  publish [ s1; s2 ];
  publish [ s1; s2; s3 ];
  Authority.compact auth;
  Alcotest.(check int) "horizon after compaction" 2
    (Authority.horizon auth ~tenant:"t0");
  let r = Authority.handle auth (get "/signatures?tenant=t0&since=1") in
  Alcotest.(check (option string)) "sub-horizon since falls back to snapshot"
    (Some "snapshot")
    (header r "X-Signature-Mode");
  let r = Authority.handle auth (get "/signatures?tenant=t0&since=2") in
  Alcotest.(check (option string)) "at-horizon since still serves delta"
    (Some "delta")
    (header r "X-Signature-Mode")

(* --- authority: k-anonymous promotion --- *)

(* A byte-identical publish appends nothing, so a client already at the
   head is not told to re-download; a real change still bumps. *)
let test_identical_publish_is_noop () =
  let auth = Authority.create () in
  Alcotest.(check int) "first publish" 2 (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  Alcotest.(check int) "identical publish keeps the version" 2
    (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  Alcotest.(check int) "304 after a no-op publish" 304
    (Authority.handle auth (get "/signatures?tenant=t0&since=2")).Http.Response.status;
  Alcotest.(check int) "a real change still bumps" 3
    (Authority.publish auth ~tenant:"t0" [ s1; s2; s3 ]);
  (* A fresh tenant holds the empty set at v0: publishing it is a no-op. *)
  Alcotest.(check int) "empty publish on a fresh tenant" 0
    (Authority.publish auth ~tenant:"fresh" [])

let candidate tokens = sig_ 0 ~cluster_size:1 tokens

let show_outcome = function
  | Authority.Accepted n -> Printf.sprintf "accepted(%d)" n
  | Authority.Duplicate -> "duplicate"
  | Authority.Promoted v -> Printf.sprintf "promoted(v%d)" v
  | Authority.Capped -> "capped"

let test_promotion_at_k () =
  let auth = Authority.create () in
  let (_ : int) = Authority.publish auth ~tenant:"t0" [ s1 ] in
  let c = candidate [ "cand"; "imsi=240080000000001" ] in
  let report r = Authority.report_candidate auth ~tenant:"t0" ~reporter:r c in
  (match report "alice" with
  | Authority.Accepted 1 -> ()
  | o -> Alcotest.failf "first report: %s" (show_outcome o));
  (* The same reporter again is a duplicate, never double-counted. *)
  (match report "alice" with
  | Authority.Duplicate -> ()
  | o -> Alcotest.failf "same reporter: %s" (show_outcome o));
  (match report "bob" with
  | Authority.Accepted 2 -> ()
  | o -> Alcotest.failf "second report: %s" (show_outcome o));
  Alcotest.(check int) "nothing published below k" 1
    (Authority.version auth ~tenant:"t0");
  (match report "carol" with
  | Authority.Promoted 2 -> ()
  | o -> Alcotest.failf "k-th report: %s" (show_outcome o));
  (match Authority.signatures auth ~tenant:"t0" with
  | [ _; s ] ->
    Alcotest.(check int) "cluster_size is the reporter count" 3
      s.Signature.cluster_size;
    Alcotest.(check bool) "fresh id past the published set" true
      (s.Signature.id > s1.Signature.id)
  | _ -> Alcotest.fail "published set plus the promotion");
  (match Authority.promotions auth with
  | [ reporters ] ->
    Alcotest.(check int) "audit trail records k reporters" 3 reporters
  | _ -> Alcotest.fail "exactly one promotion audited");
  (* Reporting an already-published signature is a duplicate. *)
  match report "dave" with
  | Authority.Duplicate -> ()
  | o -> Alcotest.failf "published: %s" (show_outcome o)

let test_reporter_cap () =
  let auth =
    Authority.create
      ~config:{ Authority.default_config with reporter_cap = 2 } ()
  in
  let flood j =
    Authority.report_candidate auth ~tenant:"t0" ~reporter:"byz"
      (candidate [ "flood"; Printf.sprintf "z%d" j ])
  in
  (match flood 0 with Authority.Accepted 1 -> () | _ -> Alcotest.fail "first");
  (match flood 1 with Authority.Accepted 1 -> () | _ -> Alcotest.fail "second");
  (match flood 2 with
  | Authority.Capped -> ()
  | o -> Alcotest.failf "over cap: %s" (show_outcome o));
  (* Promotion frees cap room: k distinct reporters on one candidate. *)
  let c = candidate [ "flood"; "z0" ] in
  ignore (Authority.report_candidate auth ~tenant:"t0" ~reporter:"r2" c);
  (match Authority.report_candidate auth ~tenant:"t0" ~reporter:"r3" c with
  | Authority.Promoted _ -> ()
  | o -> Alcotest.failf "promotion: %s" (show_outcome o));
  match flood 3 with
  | Authority.Accepted 1 -> ()
  | o ->
    Alcotest.failf "cap must free after promotion: %s"
      (show_outcome o)

let test_candidates_endpoint_tally () =
  let auth = Authority.create () in
  let body =
    String.concat "\n"
      (List.map Signature_io.to_line
         [ candidate [ "a"; "one" ]; candidate [ "a"; "two" ] ])
  in
  let r =
    Authority.handle auth (post "/candidates?tenant=t0&reporter=r0" body)
  in
  Alcotest.(check int) "tally is 200" 200 r.Http.Response.status;
  Alcotest.(check string) "tally body"
    "accepted\t2\nduplicate\t0\npromoted\t0\ncapped\t0" r.Http.Response.body

(* --- authority: reads create nothing --- *)

(* A GET names any well-formed tenant; answering it must not grow the
   authority's tenant table, in memory or (after a compaction) on disk. *)
let test_reads_create_no_tenant () =
  with_dir (fun dir ->
      let auth =
        match Authority.open_ ~dir () with
        | Ok (a, _) -> a
        | Error e -> Alcotest.fail e
      in
      ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
      List.iter
        (fun target ->
          let r = Authority.handle auth (get target) in
          Alcotest.(check (option string)) (target ^ " reads version 0")
            (Some "0") (header r "X-Signature-Version"))
        [ "/signatures?tenant=probe1&since=0";
          "/signatures?tenant=probe2&full=1";
          "/digest?tenant=probe3" ];
      Alcotest.(check (list string)) "no tenant created by reads" [ "t0" ]
        (Authority.tenants auth);
      Authority.compact auth;
      Authority.close auth;
      let auth =
        match Authority.open_ ~dir () with
        | Ok (a, _) -> a
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check (list string)) "none after compact + reopen" [ "t0" ]
        (Authority.tenants auth);
      Authority.close auth)

(* --- authority: durability and crash points --- *)

let publish_sets auth =
  ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  ignore (Authority.publish auth ~tenant:"t1" [ s3 ])

let reopen ~dir =
  match Authority.open_ ~dir () with
  | Ok (t, rep) -> (t, rep)
  | Error e -> Alcotest.fail e

let test_authority_reopen () =
  with_dir (fun dir ->
      let auth, rep = reopen ~dir in
      Alcotest.(check bool) "fresh dir has no snapshot" true
        (rep.Authority.snapshot = Authority.Absent);
      publish_sets auth;
      ignore
        (Authority.report_candidate auth ~tenant:"t0" ~reporter:"r0"
           (candidate [ "pending"; "one" ]));
      let v0 = Authority.version auth ~tenant:"t0" in
      let set0 = Authority.signatures auth ~tenant:"t0" in
      Authority.close auth;
      let auth', rep' = reopen ~dir in
      Alcotest.(check bool) "clean tail" true (rep'.Authority.tail = Wal.Clean);
      Alcotest.(check int) "version recovered" v0
        (Authority.version auth' ~tenant:"t0");
      check_set "set recovered byte-identically" set0
        (Authority.signatures auth' ~tenant:"t0");
      Alcotest.(check (list string)) "tenants recovered" [ "t0"; "t1" ]
        (Authority.tenants auth');
      (* Still pending: its reporter's second report is a duplicate. *)
      (match
         Authority.report_candidate auth' ~tenant:"t0" ~reporter:"r0"
           (candidate [ "pending"; "one" ])
       with
      | Authority.Duplicate -> ()
      | o -> Alcotest.failf "pending candidate recovered: %s" (show_outcome o));
      Authority.close auth')

(* Compaction resets the journal; the snapshot alone recovers the whole
   state — versions, sets, horizon, pending candidates and the id counter,
   so an id retired before the snapshot is never reissued after it. *)
let test_authority_compact_reopen () =
  with_dir (fun dir ->
      let config = { Authority.default_config with compact_keep = 0 } in
      let auth =
        match Authority.open_ ~config ~dir () with
        | Ok (t, _) -> t
        | Error e -> Alcotest.fail e
      in
      publish_sets auth;
      ignore (Authority.publish auth ~tenant:"t0" [ s1; s2; s3 ]);
      ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
      let c = candidate [ "cand"; "after-compaction" ] in
      ignore (Authority.report_candidate auth ~tenant:"t0" ~reporter:"r0" c);
      ignore (Authority.report_candidate auth ~tenant:"t0" ~reporter:"r1" c);
      let v0 = Authority.version auth ~tenant:"t0" in
      let set0 = Authority.signatures auth ~tenant:"t0" in
      Authority.compact auth;
      Alcotest.(check int) "compaction resets the journal"
        (String.length Wal.magic) (Authority.wal_size auth);
      Alcotest.(check int) "keep 0 folds to the head" v0
        (Authority.horizon auth ~tenant:"t0");
      Authority.close auth;
      let auth', rep =
        match Authority.open_ ~config ~dir () with
        | Ok v -> v
        | Error e -> Alcotest.fail e
      in
      Alcotest.(check bool) "snapshot loaded" true
        (rep.Authority.snapshot = Authority.Loaded);
      Alcotest.(check int) "no journal left to replay" 0 rep.Authority.replayed;
      Alcotest.(check (list string)) "tenants survive compaction" [ "t0"; "t1" ]
        (Authority.tenants auth');
      Alcotest.(check int) "version survives compaction" v0
        (Authority.version auth' ~tenant:"t0");
      Alcotest.(check int) "horizon survives compaction" v0
        (Authority.horizon auth' ~tenant:"t0");
      check_set "set survives compaction" set0
        (Authority.signatures auth' ~tenant:"t0");
      check_set "other tenant survives compaction" [ s3 ]
        (Authority.signatures auth' ~tenant:"t1");
      (* The third reporter completes the tally begun before the snapshot. *)
      (match Authority.report_candidate auth' ~tenant:"t0" ~reporter:"r2" c with
      | Authority.Promoted v -> Alcotest.(check int) "promoted at head + 1" (v0 + 1) v
      | o -> Alcotest.failf "k-th report: %s" (show_outcome o));
      let promoted =
        List.find
          (fun s -> not (List.mem s.Signature.id [ 1; 2 ]))
          (Authority.signatures auth' ~tenant:"t0")
      in
      Alcotest.(check bool) "retired id 3 is not reissued" true
        (promoted.Signature.id > s3.Signature.id);
      Authority.close auth')

(* The journal and the snapshot are the two files of a state directory:
   the journal exists (header only) from the first open, the snapshot only
   once a compaction has run. *)
let file_size path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> in_channel_length ic)

let test_state_files () =
  with_dir (fun dir ->
      let wal = Authority.wal_path ~dir and snap = Authority.snapshot_path ~dir in
      Alcotest.(check bool) "distinct files" true (wal <> snap);
      Alcotest.(check string) "journal inside the dir" dir (Filename.dirname wal);
      Alcotest.(check string) "snapshot inside the dir" dir (Filename.dirname snap);
      let auth, _ = reopen ~dir in
      Alcotest.(check bool) "journal created on open" true (Sys.file_exists wal);
      Alcotest.(check bool) "no snapshot before compaction" false
        (Sys.file_exists snap);
      Alcotest.(check int) "fresh journal is the header" (String.length Wal.magic)
        (file_size wal);
      ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
      Alcotest.(check int) "wal_size is the file size"
        (file_size wal) (Authority.wal_size auth);
      Authority.compact auth;
      Alcotest.(check bool) "snapshot written by compaction" true
        (Sys.file_exists snap);
      Authority.close auth)

(* Crash before each journal append of a multi-change publish: recovery
   must land on exactly the committed prefix, and re-issuing the publish
   must finish the job. *)
let test_publish_crash_point_sweep () =
  let desired = [ s1; s2; s3 ] in
  (* The publish diffs an empty set into three adds: 3 crash points. *)
  for crash_at = 0 to 2 do
    with_dir (fun dir ->
        let auth, _ = reopen ~dir in
        (try
           ignore
             (Authority.publish auth
                ~inject:(fun i ->
                  if i = crash_at then raise (Authority.Crashed "boom"))
                ~tenant:"t0" desired)
         with Authority.Crashed _ -> ());
        Authority.close auth;
        let auth', _ = reopen ~dir in
        Alcotest.(check int)
          (Printf.sprintf "crash at %d: committed prefix only" crash_at)
          crash_at
          (Authority.version auth' ~tenant:"t0");
        check_set
          (Printf.sprintf "crash at %d: prefix of adds" crash_at)
          (List.filteri (fun i _ -> i < crash_at) desired)
          (Authority.signatures auth' ~tenant:"t0");
        (* Re-issuing completes; the diff re-derives the missing tail. *)
        ignore (Authority.publish auth' ~tenant:"t0" desired);
        check_set
          (Printf.sprintf "crash at %d: re-publish completes" crash_at)
          desired
          (Authority.signatures auth' ~tenant:"t0");
        Authority.close auth')
  done

let test_compaction_crash_windows () =
  List.iter
    (fun window ->
      with_dir (fun dir ->
          let auth, _ = reopen ~dir in
          publish_sets auth;
          let v0 = Authority.version auth ~tenant:"t0" in
          let sum0 = Authority.checksum auth ~tenant:"t0" in
          (try
             Authority.compact
               ~inject:(fun p ->
                 if p = window then raise (Authority.Crashed window))
               auth
           with Authority.Crashed _ -> ());
          Authority.close auth;
          let auth', _ = reopen ~dir in
          Alcotest.(check int)
            (window ^ ": version survives")
            v0
            (Authority.version auth' ~tenant:"t0");
          Alcotest.(check int)
            (window ^ ": checksum survives")
            sum0
            (Authority.checksum auth' ~tenant:"t0");
          (* The recovered instance keeps working: mutate and recover again. *)
          ignore (Authority.publish auth' ~tenant:"t0" [ s1 ]);
          let v1 = Authority.version auth' ~tenant:"t0" in
          Authority.close auth';
          let auth'', _ = reopen ~dir in
          Alcotest.(check int)
            (window ^ ": post-recovery publish survives")
            v1
            (Authority.version auth'' ~tenant:"t0");
          Authority.close auth''))
    [ "pre_snapshot"; "post_snapshot" ]

let test_promotion_crash_recovers () =
  with_dir (fun dir ->
      (* A cap of one pending candidate per reporter makes a resurrected
         candidate visible: it would hold every reporter's only slot. *)
      let reopen ~dir =
        match
          Authority.open_
            ~config:{ Authority.default_config with reporter_cap = 1 }
            ~dir ()
        with
        | Ok (t, rep) -> (t, rep)
        | Error e -> Alcotest.fail e
      in
      let auth, _ = reopen ~dir in
      let c = candidate [ "cand"; "crashy" ] in
      ignore (Authority.report_candidate auth ~tenant:"t0" ~reporter:"a" c);
      ignore (Authority.report_candidate auth ~tenant:"t0" ~reporter:"b" c);
      ignore (Authority.report_candidate auth ~tenant:"t0" ~reporter:"c" c);
      Alcotest.(check int) "promoted live" 1 (Authority.version auth ~tenant:"t0");
      Authority.close auth;
      (* Replay sees three reports and the promotion's Add: the candidate
         must not resurrect (it is already in the published set). *)
      let auth', rep = reopen ~dir in
      List.iter
        (fun r ->
          match
            Authority.report_candidate auth' ~tenant:"t0" ~reporter:r
              (candidate [ "after"; r ])
          with
          | Authority.Accepted 1 -> ()
          | o -> Alcotest.failf "no ghost candidate holds %s's slot: %s" r (show_outcome o))
        [ "a"; "b"; "c" ];
      Alcotest.(check int) "no re-promotion" 0 rep.Authority.promoted_on_recovery;
      Alcotest.(check int) "version stable" 1
        (Authority.version auth' ~tenant:"t0");
      Authority.close auth')

let test_torn_journal_tail () =
  with_dir (fun dir ->
      let auth, _ = reopen ~dir in
      publish_sets auth;
      let v0 = Authority.version auth ~tenant:"t0" in
      Authority.close auth;
      let path = Authority.wal_path ~dir in
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc "torn garbage that is not a frame";
      close_out oc;
      let auth', rep = reopen ~dir in
      (match rep.Authority.tail with
      | Wal.Torn _ -> ()
      | Wal.Clean -> Alcotest.fail "garbage tail must be reported torn");
      Alcotest.(check int) "committed versions survive the tear" v0
        (Authority.version auth' ~tenant:"t0");
      Authority.close auth')

(* The repair rewrites the journal in place: the next open is clean, and
   an append made after the repair survives it. *)
let test_torn_tail_repair_then_append () =
  with_dir (fun dir ->
      let auth, _ = reopen ~dir in
      ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
      let committed = Authority.wal_size auth in
      Authority.close auth;
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 (Authority.wal_path ~dir) in
      output_string oc "half a record";
      close_out oc;
      let auth', rep = reopen ~dir in
      (match rep.Authority.tail with
      | Wal.Torn _ -> ()
      | Wal.Clean -> Alcotest.fail "garbage tail must be reported torn");
      Alcotest.(check int) "journal cut back to the last whole record" committed
        (Authority.wal_size auth');
      ignore (Authority.publish auth' ~tenant:"t0" [ s1; s2 ]);
      Authority.close auth';
      let auth'', rep'' = reopen ~dir in
      Alcotest.(check bool) "clean after repair" true (rep''.Authority.tail = Wal.Clean);
      Alcotest.(check int) "post-repair append replayed" 2 rep''.Authority.replayed;
      check_set "post-repair append survives" [ s1; s2 ]
        (Authority.signatures auth'' ~tenant:"t0");
      Authority.close auth'')

(* A tail record replayed by a half-applied rewrite is a stale no-op. *)
let test_duplicated_tail_replays_stale () =
  with_dir (fun dir ->
      let auth, _ = reopen ~dir in
      ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
      let last_start = Authority.wal_size auth in
      ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
      let last_end = Authority.wal_size auth in
      Authority.close auth;
      let path = Authority.wal_path ~dir in
      let ic = open_in_bin path in
      let image = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc (String.sub image last_start (last_end - last_start));
      close_out oc;
      let auth', rep = reopen ~dir in
      Alcotest.(check bool) "duplicate is a whole record" true
        (rep.Authority.tail = Wal.Clean);
      Alcotest.(check int) "duplicate replays stale" 1 rep.Authority.stale;
      Alcotest.(check int) "not double-applied" 2
        (Authority.version auth' ~tenant:"t0");
      check_set "set unchanged" [ s1; s2 ] (Authority.signatures auth' ~tenant:"t0");
      Authority.close auth')

(* A damaged snapshot is reported, never trusted: recovery falls back to
   journal-only replay.  From the compaction crash window (new snapshot,
   old journal) the journal alone rebuilds the state; after the journal
   was reset it holds only entries past the snapshot, which replay as
   stale rather than being applied onto a missing base. *)
let test_corrupt_snapshot_falls_back () =
  let damage_snapshot dir =
    let oc = open_out_bin (Authority.snapshot_path ~dir) in
    output_string oc "garbage, not a snapshot";
    close_out oc
  in
  let expect_corrupt msg rep =
    match rep.Authority.snapshot with
    | Authority.Corrupt _ -> ()
    | _ -> Alcotest.failf "%s: a damaged snapshot must be reported corrupt" msg
  in
  with_dir (fun dir ->
      let auth, _ = reopen ~dir in
      publish_sets auth;
      let v0 = Authority.version auth ~tenant:"t0" in
      let set0 = Authority.signatures auth ~tenant:"t0" in
      (try
         Authority.compact
           ~inject:(fun p ->
             if p = "post_snapshot" then raise (Authority.Crashed p))
           auth
       with Authority.Crashed _ -> ());
      Authority.close auth;
      damage_snapshot dir;
      let auth', rep = reopen ~dir in
      expect_corrupt "crash window" rep;
      Alcotest.(check int) "whole journal replayed" 3 rep.Authority.replayed;
      Alcotest.(check int) "nothing stale" 0 rep.Authority.stale;
      Alcotest.(check int) "version from the journal alone" v0
        (Authority.version auth' ~tenant:"t0");
      check_set "set from the journal alone" set0
        (Authority.signatures auth' ~tenant:"t0");
      Authority.close auth');
  with_dir (fun dir ->
      let auth, _ = reopen ~dir in
      publish_sets auth;
      Authority.compact auth;
      ignore (Authority.publish auth ~tenant:"t0" [ s1; s2; s3 ]);
      Authority.close auth;
      damage_snapshot dir;
      let auth', rep = reopen ~dir in
      expect_corrupt "after reset" rep;
      Alcotest.(check int) "post-compaction entry replayed" 1 rep.Authority.replayed;
      Alcotest.(check int) "and found stale" 1 rep.Authority.stale;
      Alcotest.(check int) "no suffix applied without its base" 0
        (Authority.version auth' ~tenant:"t0");
      Authority.close auth')

(* --- authority: committed checkpoints under crash damage --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let state_of auth = (Authority.version auth ~tenant:"t0", Authority.checksum auth ~tenant:"t0")

(* Journal a publish history and record, newest first, one committed
   checkpoint [(journal size, (version, checksum))] per journal record.
   [publish] calls [inject] before each append, when the previous change
   is committed; offset 0 stands for a log cut inside its header. *)
let journaled_history dir =
  let auth, _ = reopen ~dir in
  let history = ref [ (0, state_of auth) ] in
  let checkpoint () =
    let v = Authority.version auth ~tenant:"t0" in
    match !history with
    | (_, (v', _)) :: _ when v' = v -> ()
    | _ ->
      let sum = Option.get (Authority.checksum_at auth ~tenant:"t0" ~version:v) in
      history := (Authority.wal_size auth, (v, sum)) :: !history
  in
  List.iter
    (fun set ->
      ignore (Authority.publish auth ~inject:(fun _ -> checkpoint ()) ~tenant:"t0" set);
      checkpoint ())
    [ [ s1 ]; [ s1; s2; s3 ]; [ s2; s3 ]; [ s2; sig_ 3 [ "mac=66:77:88:99:aa:bb" ] ] ];
  let final = state_of auth in
  Authority.close auth;
  (!history, final, read_file (Authority.wal_path ~dir))

(* Recover a damaged journal image in a directory of its own. *)
let recover_image image =
  with_dir (fun dir ->
      write_file (Authority.wal_path ~dir) image;
      let auth, rep = reopen ~dir in
      let st = state_of auth in
      Authority.close auth;
      (st, rep))

(* One checkpoint per changelog version, each at a record boundary: cutting
   the journal exactly there recovers exactly that committed state. *)
let test_checkpoint_per_record () =
  with_dir (fun dir ->
      let history, final, image = journaled_history dir in
      let final_version = fst final in
      Alcotest.(check int) "one checkpoint per version, plus the empty log"
        (final_version + 1) (List.length history);
      Alcotest.(check (list int)) "every version checkpointed"
        (List.init (final_version + 1) (fun v -> final_version - v))
        (List.map (fun (_, (v, _)) -> v) history);
      (match history with
      | (off, st) :: _ ->
        Alcotest.(check int) "newest checkpoint is the whole log" (String.length image) off;
        Alcotest.(check bool) "newest checkpoint is the final state" true (st = final)
      | [] -> Alcotest.fail "no checkpoints");
      List.iter
        (fun (off, expected) ->
          let st, rep = recover_image (String.sub image 0 off) in
          Alcotest.(check bool)
            (Printf.sprintf "cut at record boundary %d is clean" off)
            true
            (off = 0 || rep.Authority.tail = Wal.Clean);
          Alcotest.(check (pair int int))
            (Printf.sprintf "cut at %d recovers its checkpoint" off)
            expected st)
        history)

(* A crash at any byte offset recovers the newest checkpoint whose record
   lies wholly before the cut: never a half-applied record, never a
   state that was not committed. *)
let test_every_cut_lands_on_a_checkpoint () =
  with_dir (fun dir ->
      let history, _, image = journaled_history dir in
      for cut = 0 to String.length image do
        let expected = snd (List.find (fun (off, _) -> off <= cut) history) in
        let st, _ = recover_image (String.sub image 0 cut) in
        Alcotest.(check (pair int int))
          (Printf.sprintf "cut at byte %d" cut)
          expected st
      done)

(* Torn writes on committed bytes — a flipped bit past the header, or the
   tail record written twice — then a crash anywhere: recovery is exact
   when no tear fired, and otherwise lands on some committed state. *)
let test_torn_writes_recover_committed () =
  with_dir (fun dir ->
      let history, _, image = journaled_history dir in
      let last_record_start =
        List.fold_left
          (fun acc (off, _) -> if off < String.length image then max acc off else acc)
          0 history
      in
      let plan =
        Fault.create ~seed:11
          { Fixtures.no_faults with Fault.torn_write_rate = 0.5; crash_rate = 0.5 }
      in
      let exact = ref 0 and earlier = ref 0 in
      for trial = 1 to 40 do
        let torn_before = Fault.count plan Fault.Torn_write in
        let damaged =
          Fault.torn_write plan ~protect:(String.length Wal.magic)
            ~tail_start:last_record_start image
        in
        let torn_fired = Fault.count plan Fault.Torn_write > torn_before in
        let cut =
          match Fault.crash_point plan ~len:(String.length damaged) with
          | Some off -> off
          | None -> String.length damaged
        in
        let st, _ = recover_image (String.sub damaged 0 cut) in
        let expected = snd (List.find (fun (off, _) -> off <= cut) history) in
        if not torn_fired then
          Alcotest.(check (pair int int))
            (Printf.sprintf "trial %d: undamaged cut at %d is exact" trial cut)
            expected st;
        if st = expected then incr exact
        else if List.exists (fun (_, c) -> c = st) history then incr earlier
        else Alcotest.failf "trial %d: recovered a state never committed" trial
      done;
      Alcotest.(check bool) "some trials exact" true (!exact > 0);
      Alcotest.(check bool) "some tears truncated to an earlier state" true (!earlier > 0))

(* --- delta client --- *)

let loss_free auth raw = Authority.wire_transport auth raw

let new_client tenant = Delta_client.create ~seed:7 ~tenant ()

let sync_updated msg client transport =
  match (Delta_client.sync client ~transport).Signature_client.outcome with
  | Signature_client.Updated v -> v
  | Signature_client.Unchanged -> Alcotest.failf "%s: unchanged" msg
  | Signature_client.Failed e -> Alcotest.failf "%s: failed: %s" msg e

let test_delta_client_happy_path () =
  let auth = Authority.create () in
  let c = new_client "t0" in
  ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
  let v = sync_updated "bootstrap" c (loss_free auth) in
  Alcotest.(check int) "bootstrap lands on head" 1 v;
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  ignore (sync_updated "incremental" c (loss_free auth));
  check_set "delta-assembled set" [ s1; s2 ] (Delta_client.signatures c);
  let k = Delta_client.counters c in
  (* The bootstrap from since=0 is itself a servable suffix: both syncs
     count as deltas. *)
  Alcotest.(check int) "both syncs were deltas" 2 k.Delta_client.delta_updates;
  Alcotest.(check int) "no forced fulls" 0 k.Delta_client.forced_full;
  match (Delta_client.sync c ~transport:(loss_free auth)).Signature_client.outcome with
  | Signature_client.Unchanged -> ()
  | _ -> Alcotest.fail "up-to-date sync must be Unchanged"

(* An Add of an id the client already holds travels as a delta and
   replaces that signature in place. *)
let test_delta_client_replace_by_id () =
  let auth = Authority.create () in
  let c = new_client "t0" in
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  ignore (sync_updated "bootstrap" c (loss_free auth));
  let s1' = sig_ 1 [ "imei=355021930123456"; "loc=51.5" ] in
  ignore (Authority.publish auth ~tenant:"t0" [ s1'; s2 ]);
  ignore (sync_updated "replace" c (loss_free auth));
  (match Delta_client.last_update c with
  | Some (`Delta [ { Changelog.change = Changelog.Add s; _ } ]) ->
    check_set "the change is an Add of id 1" [ s1' ] [ s ]
  | _ -> Alcotest.fail "expected a one-entry delta");
  check_set "replaced by id" [ s1'; s2 ] (Delta_client.signatures c);
  Alcotest.(check int) "checksum matches the authority"
    (Authority.checksum auth ~tenant:"t0")
    (Delta_client.checksum c);
  Alcotest.(check int) "no snapshot needed" 0
    (Delta_client.counters c).Delta_client.snapshot_updates

let test_delta_client_gap_forces_full () =
  let auth =
    Authority.create ~config:{ Authority.default_config with compact_keep = 1 } ()
  in
  let c = new_client "t0" in
  ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
  ignore (sync_updated "bootstrap" c (loss_free auth));
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2; s3 ]);
  Authority.compact auth;
  (* since=1 is now below the horizon: the server answers snapshot. *)
  ignore (sync_updated "catch-up" c (loss_free auth));
  check_set "snapshot catch-up" [ s1; s2; s3 ] (Delta_client.signatures c);
  let k = Delta_client.counters c in
  Alcotest.(check int) "counted as snapshot" 1 k.Delta_client.snapshot_updates

let test_delta_client_rejects_corrupt_body () =
  let auth = Authority.create () in
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  let c = new_client "t0" in
  (* Corrupt a signature token in transit, leaving the frame parseable:
     the wire checksum must catch it and the same attempt must recover
     via full=1 (which we serve uncorrupted). *)
  let find_sub s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = if i + m > n then None
      else if String.sub s i m = sub then Some i
      else go (i + 1)
    in
    go 0
  in
  let transport raw =
    match Authority.wire_transport auth raw with
    | Error _ as e -> e
    | Ok response ->
      if find_sub raw "full=1" <> None then Ok response
      else (
        match find_sub response "imei" with
        | None -> Ok response
        | Some i ->
          let b = Bytes.of_string response in
          Bytes.set b (i + 2) 'X';
          Ok (Bytes.to_string b))
  in
  ignore (sync_updated "corrupt delta falls back" c transport);
  check_set "landed on the true set" [ s1; s2 ] (Delta_client.signatures c);
  let k = Delta_client.counters c in
  Alcotest.(check int) "forced full counted" 1 k.Delta_client.forced_full

let test_delta_client_refuses_regression () =
  let auth = Authority.create () in
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  let c = new_client "t0" in
  ignore (sync_updated "bootstrap" c (loss_free auth));
  (* A rolled-back authority now serves version 1 < client's 2. *)
  let rolled = Authority.create () in
  ignore (Authority.publish rolled ~tenant:"t0" [ s3 ]);
  (match (Delta_client.sync c ~transport:(loss_free rolled)).Signature_client.outcome with
  | Signature_client.Failed _ -> ()
  | _ -> Alcotest.fail "regression must fail the sync");
  Alcotest.(check int) "client version untouched" 2 (Delta_client.version c);
  check_set "client set untouched" [ s1; s2 ] (Delta_client.signatures c);
  let k = Delta_client.counters c in
  Alcotest.(check bool) "refusals counted" true
    (k.Delta_client.regressions_refused > 0)

(* A forged snapshot repeating an id under a self-consistent checksum:
   installing it would leave a stale twin that a later [Add] of that id
   replaces only once.  It must fail verification, and [sync_via] must
   escalate past it to the origin. *)
let test_delta_client_refuses_duplicate_ids () =
  let auth = Authority.create () in
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  let forged = [ s1; sig_ 1 [ "stale"; "twin" ]; s2 ] in
  let hostile _request =
    Ok
      (Http.Response.print
         (Http.Response.make
            ~headers:
              (Http.Headers.of_list
                 [ ("X-Signature-Version", "2");
                   ( "X-Signature-Checksum",
                     Crc32.to_hex (Changelog_oracle.wire_checksum ~version:2 forged) );
                   ("X-Signature-Mode", "snapshot") ])
            ~body:(lines forged) 200))
  in
  let c = new_client "t0" in
  (match (Delta_client.sync c ~transport:hostile).Signature_client.outcome with
  | Signature_client.Failed _ -> ()
  | _ -> Alcotest.fail "a snapshot repeating an id must not install");
  Alcotest.(check int) "version untouched" 0 (Delta_client.version c);
  check_set "set untouched" [] (Delta_client.signatures c);
  (match
     (Delta_client.sync_via c ~relays:[ hostile ] ~origin:(loss_free auth))
       .Signature_client.outcome
   with
  | Signature_client.Updated 2 -> ()
  | _ -> Alcotest.fail "must escalate to the origin and install its head");
  check_set "origin's set installed" [ s1; s2 ] (Delta_client.signatures c);
  Alcotest.(check bool) "escalation counted" true
    ((Delta_client.counters c).Delta_client.escalations > 0)

let test_delta_client_content_length_check () =
  let transport _raw =
    Ok "HTTP/1.1 200 OK\r\nX-Signature-Version: 1\r\nContent-Length: 999\r\n\r\nabc"
  in
  let c = new_client "t0" in
  match (Delta_client.sync c ~transport).Signature_client.outcome with
  | Signature_client.Failed e ->
    Alcotest.(check bool) "mentions the mismatch" true
      (Leakdetect_text.Search.contains ~needle:"content-length mismatch" e)
  | _ -> Alcotest.fail "a body shorter than its Content-Length must not install"

(* Bytes past the declared Content-Length (a response glued to trailing
   garbage) fail the attempt like a short body does; nothing installs, and
   the next clean sync lands on the head. *)
let test_delta_client_content_length_overrun () =
  let auth = Authority.create () in
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  let c = new_client "t0" in
  let overrun raw =
    Result.map (fun response -> response ^ "\nextra") (Authority.wire_transport auth raw)
  in
  (match (Delta_client.sync c ~transport:overrun).Signature_client.outcome with
  | Signature_client.Failed e ->
    Alcotest.(check bool) "mentions the mismatch" true
      (Leakdetect_text.Search.contains ~needle:"content-length mismatch" e)
  | _ -> Alcotest.fail "a body longer than its Content-Length must not install");
  Alcotest.(check int) "version untouched" 0 (Delta_client.version c);
  check_set "set untouched" [] (Delta_client.signatures c);
  Alcotest.(check int) "clean sync installs the head" 2
    (sync_updated "clean" c (loss_free auth));
  check_set "head installed" [ s1; s2 ] (Delta_client.signatures c)

(* The Figure 3 loop: publish, the handset syncs, its monitor starts
   catching the leak the new signature describes. *)
let test_delta_client_drives_monitor () =
  let module Flow_control = Leakdetect_monitor.Flow_control in
  let leak =
    Leakdetect_http.Packet.v
      ~ip:(Leakdetect_net.Ipv4.of_int 1000)
      ~port:80 ~host:"h.jp"
      ~request_line:"GET /ad?imei=355021930123456&loc=35.6 HTTP/1.1" ~cookie:""
      ~body:""
  in
  let decide monitor =
    Flow_control.decision_to_string (Flow_control.process monitor ~app_id:1 leak)
  in
  let auth = Authority.create () in
  let c = new_client "t0" in
  let monitor = Flow_control.create [] in
  Alcotest.(check string) "before sync, the leak passes" "allowed" (decide monitor);
  ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
  ignore (sync_updated "sync" c (loss_free auth));
  let monitor = Flow_control.create (Delta_client.signatures c) in
  Alcotest.(check string) "after sync, the leak prompts" "prompted:stopped"
    (decide monitor)

(* The library-level chaos sync: 10% corruption and 20% transient errors
   on the wire; the handset must still converge on the authority's head,
   version and set. *)
(* Round r of n signatures over k rounds publishes max 1 (n * r / k) of
   them, so the last round publishes the whole set; an empty set publishes
   nothing. *)
let test_publish_rounds () =
  let auth = Authority.create () in
  let sizes tenant rounds set =
    let seen = ref [] in
    let follow () = seen := List.length (Authority.signatures auth ~tenant) :: !seen in
    Authority.publish_rounds auth ~tenant ~rounds ~follow set;
    List.rev !seen
  in
  Alcotest.(check (list int)) "two rounds of three" [ 1; 3 ] (sizes "t0" 2 [ s1; s2; s3 ]);
  Alcotest.(check (list int)) "five rounds of two" [ 1; 1; 1; 1; 2 ] (sizes "t1" 5 [ s1; s2 ]);
  Alcotest.(check (list int)) "an empty set" [ 0; 0 ] (sizes "t2" 2 []);
  Alcotest.(check int) "an empty set commits no version" 0 (Authority.version auth ~tenant:"t2")

(* The chaos run over a small generated trace. *)
let chaos_config =
  { Chaos.seed = 42; sample_n = 30; fault = Fault.default; syncs = 3;
    fail_mode = Leakdetect_monitor.Flow_control.Fail_open; limit = 500; crash_points = 4 }

let chaos_trace =
  lazy (Leakdetect_android.Workload.generate ~seed:42 ~scale:0.01 ()).Leakdetect_android.Workload.records

let ends_with suffix s = String.ends_with ~suffix s

(* A passing run reaches every phase, and its kept state directory holds
   the journal at the version the handset converged to. *)
let test_chaos_run_passes () =
  with_dir (fun dir ->
      let r = Chaos.run ~state_dir:dir chaos_config (Lazy.force chaos_trace) in
      Alcotest.(check (option string)) "no failure" None r.Chaos.failure;
      Alcotest.(check bool) "render closes the report" true
        (ends_with "uncaught exceptions: 0\n" (Chaos.render r));
      match (r.Chaos.sync, r.Chaos.durability) with
      | Some y, Some { Chaos.trials = Some _; compaction = Some _; _ } -> (
        Alcotest.(check int) "client at the head" y.Chaos.head y.Chaos.client_version;
        match Authority.open_ ~dir:(Filename.concat dir "history") () with
        | Ok (auth, _) ->
          Alcotest.(check int) "kept journal at the head" y.Chaos.head
            (Authority.version auth ~tenant:Chaos.tenant);
          Authority.close auth
        | Error e -> Alcotest.fail e)
      | _ -> Alcotest.fail "a phase is missing")

(* A failed check stops the run in its phase: the report keeps the phases
   before it, and the rendering prints them without the closing tally. *)
let test_chaos_run_stops () =
  let benign =
    Array.of_list
      (List.filter (fun r -> r.Http.Trace.labels = []) (Array.to_list (Lazy.force chaos_trace)))
  in
  let r = Chaos.run chaos_config benign in
  Alcotest.(check (option string)) "no leaks to sign" (Some "trace has no sensitive packets")
    r.Chaos.failure;
  Alcotest.(check string) "nothing reached" "" (Chaos.render r);
  with_dir (fun dir ->
      let file = Filename.concat dir "file" in
      Out_channel.with_open_bin file ignore;
      let r = Chaos.run ~state_dir:file chaos_config (Lazy.force chaos_trace) in
      Alcotest.(check bool) "the journal cannot open" true
        (String.starts_with ~prefix:"cannot open journal " (Option.get r.Chaos.failure));
      Alcotest.(check bool) "enforce ran, durability did not" true
        (r.Chaos.enforce <> None && r.Chaos.durability = None);
      let out = Chaos.render r in
      Alcotest.(check bool) "no closing tally" false
        (ends_with "uncaught exceptions: 0\n" out
        || List.mem "faults injected:" (String.split_on_char '\n' out)))

let test_chaos_sync_converges () =
  let auth = Authority.create () in
  let plan =
    Fault.create ~seed:42
      { Fixtures.no_faults with Fault.corrupt_rate = 0.1; corrupt_bytes = 3; server_error_rate = 0.2 }
  in
  let transport = Fault.transport plan (Authority.wire_transport auth) in
  let c = Delta_client.create ~seed:1 ~tenant:"t0" () in
  for round = 1 to 5 do
    let set =
      s1 :: List.init round (fun i -> sig_ (10 + i) [ Printf.sprintf "imsi=24008%09d" i ])
    in
    ignore (Authority.publish auth ~tenant:"t0" set);
    ignore (Delta_client.sync c ~transport)
  done;
  let extra = ref 0 in
  while Delta_client.version c < Authority.version auth ~tenant:"t0" && !extra < 50 do
    incr extra;
    ignore (Delta_client.sync c ~transport)
  done;
  Alcotest.(check int) "converged to the latest version"
    (Authority.version auth ~tenant:"t0")
    (Delta_client.version c);
  check_set "converged to the latest set"
    (Authority.signatures auth ~tenant:"t0")
    (Delta_client.signatures c);
  Alcotest.(check bool) "faults actually fired" true (Fixtures.fault_total plan > 0)

(* The chaos link in full: drops and duplicates on both hops, delays and
   corruption on top of transient errors.  Every fault kind fires, and the
   handset still converges on the head's version, set and checksum. *)
let test_chaos_sync_converges_lossy () =
  let auth = Authority.create () in
  let plan =
    Fault.create ~seed:9
      { Fixtures.no_faults with
        Fault.corrupt_rate = 0.1;
        corrupt_bytes = 2;
        drop_rate = 0.15;
        duplicate_rate = 0.15;
        delay_rate = 0.2;
        max_delay = 3;
        server_error_rate = 0.15 }
  in
  let transport = Fault.transport plan (Authority.wire_transport auth) in
  let c = Delta_client.create ~seed:3 ~tenant:"t0" () in
  for round = 1 to 12 do
    let set =
      s1 :: List.init round (fun i -> sig_ (20 + i) [ Printf.sprintf "imsi=24009%09d" i ])
    in
    ignore (Authority.publish auth ~tenant:"t0" set);
    ignore (Delta_client.sync c ~transport)
  done;
  let extra = ref 0 in
  while Delta_client.version c < Authority.version auth ~tenant:"t0" && !extra < 50 do
    incr extra;
    ignore (Delta_client.sync c ~transport)
  done;
  Alcotest.(check int) "converged to the latest version"
    (Authority.version auth ~tenant:"t0")
    (Delta_client.version c);
  Alcotest.(check int) "converged to the latest checksum"
    (Authority.checksum auth ~tenant:"t0")
    (Delta_client.checksum c);
  check_set "converged to the latest set"
    (Authority.signatures auth ~tenant:"t0")
    (Delta_client.signatures c);
  List.iter
    (fun kind ->
      Alcotest.(check bool)
        (Fault.kind_name kind ^ " fired")
        true
        (Fault.count plan kind > 0))
    [ Fault.Corrupt; Fault.Drop; Fault.Duplicate; Fault.Delay; Fault.Server_error ]

(* --- mini soak: end-to-end, faults and crash points on --- *)

(* The single-origin soak: the topology engine with no relay tier. *)
let relay_free =
  {
    Topology.default_config with
    Topology.origins = 1;
    standby_origins = 0;
    relays = 0;
    byzantine_relays = 0;
    partitions = 0;
    relay_crashes = 0;
    epoch_flips = 0;
    fork_injections = 0;
  }

let test_mini_soak () =
  with_dir (fun dir ->
      let config =
        {
          relay_free with
          Topology.clients = 24;
          tenants = 2;
          ticks = 240;
          sync_period = 12;
          publishes = 10;
          compact_every = 4;
          candidates = 3;
          byzantine = 1;
          origin_crash_rate = 0.25;
          client_restart_rate = 0.01;
          drain_rounds = 30;
          seed = 5;
        }
      in
      (* Independent witness: every synced client's checksum equals the
         serialise-then-CRC oracle over the set it holds. *)
      let syncs = ref 0 and mismatches = ref 0 in
      let on_sync dc =
        incr syncs;
        if
          Delta_client.checksum dc
          <> Changelog_oracle.checksum_set (Delta_client.signatures dc)
        then incr mismatches
      in
      let report = Topology.run ~on_sync ~dir config in
      Alcotest.(check bool) "syncs witnessed" true (!syncs > 0);
      Alcotest.(check int) "client checksums match the oracle" 0 !mismatches;
      let inv = report.Topology.invariants in
      Alcotest.(check int) "no divergence" 0 inv.Topology.divergences;
      Alcotest.(check int) "no regressions" 0 inv.Topology.regressions;
      Alcotest.(check int) "no sub-k promotions" 0 inv.Topology.sub_k_promotions;
      Alcotest.(check int) "no recovery mismatches" 0
        inv.Topology.recovery_mismatches;
      Alcotest.(check int) "everyone converged" 0 inv.Topology.unconverged;
      Alcotest.(check bool) "ok" true (Topology.ok report);
      Alcotest.(check int) "no relay traffic" 0 report.Topology.relay_requests;
      Alcotest.(check bool) "faults actually fired" true
        (List.exists (fun (_, n) -> n > 0) report.Topology.fault_events);
      Alcotest.(check bool) "deltas dominate snapshots" true
        (Topology.steady_delta_ratio report >= 1.0))

let test_relay_free_refuses_relay_hostilities () =
  List.iter
    (fun (what, config) ->
      with_dir (fun dir ->
          match Topology.run ~dir config with
          | exception Invalid_argument _ -> ()
          | _ -> Alcotest.failf "%s without relays must be refused" what))
    [
      ("a byzantine relay", { relay_free with Topology.byzantine_relays = 1 });
      ("a partition", { relay_free with Topology.partitions = 1 });
      ("a relay crash", { relay_free with Topology.relay_crashes = 1 });
      ("a fork injection", { relay_free with Topology.fork_injections = 1 });
    ]

(* A small relay-free run: every client request goes to the origin. *)
let small_relay_free =
  {
    relay_free with
    Topology.clients = 12;
    tenants = 2;
    ticks = 120;
    sync_period = 8;
    publishes = 6;
    candidates = 2;
    drain_rounds = 20;
    seed = 3;
  }

(* The offload floor gates relayed runs only: with no relays the offload
   is 0 by construction and [ok] rests on the invariants alone. *)
let test_relay_free_ignores_offload_floor () =
  with_dir (fun dir ->
      let report =
        Topology.run ~dir { small_relay_free with Topology.min_offload = 0.99 }
      in
      Alcotest.(check (float 0.)) "no offload" 0. report.Topology.offload;
      Alcotest.(check bool) "origins served every request" true
        (report.Topology.origin_requests > 0);
      Alcotest.(check bool) "ok without the floor" true (Topology.ok report);
      let relayed =
        { report with
          Topology.config = { report.Topology.config with Topology.relays = 1 } }
      in
      Alcotest.(check bool) "the floor gates a relayed report" false
        (Topology.ok relayed))

(* Candidate reports go straight to the owner origin and promote there. *)
let test_relay_free_candidates_promote () =
  with_dir (fun dir ->
      let report = Topology.run ~dir small_relay_free in
      Alcotest.(check bool) "reports accepted" true
        (report.Topology.accepted_reports > 0);
      Alcotest.(check bool) "candidates promoted" true
        (report.Topology.promotions > 0);
      Alcotest.(check int) "nothing forwarded" 0 report.Topology.forwarded_reports;
      Alcotest.(check int) "no sub-k promotions" 0
        report.Topology.invariants.Topology.sub_k_promotions)

(* Without relays an epoch flip still migrates tenants: clients find the
   new owner by following the origin's 421 redirect. *)
let test_relay_free_epoch_flip () =
  with_dir (fun dir ->
      let report =
        Topology.run ~dir
          { small_relay_free with
            Topology.standby_origins = 1;
            epoch_flips = 1;
            tenants = 6;
            ticks = 240 }
      in
      Alcotest.(check int) "the epoch flipped" 1 report.Topology.epoch_flips_done;
      Alcotest.(check bool) "tenants moved" true (report.Topology.migrations > 0);
      Alcotest.(check bool) "clients followed redirects" true
        (report.Topology.misdirected_follows > 0);
      Alcotest.(check int) "no relay traffic" 0 report.Topology.relay_requests;
      Alcotest.(check bool) "ok" true (Topology.ok report))

let test_steady_delta_ratio () =
  with_dir (fun dir ->
      let report = Topology.run ~dir small_relay_free in
      let phases steady drain =
        let c delta snapshot =
          { Topology.delta; snapshot; unchanged = 0; failed = 0 }
        in
        Topology.steady_delta_ratio
          { report with Topology.steady = c (fst steady) (snd steady);
                        drain = c (fst drain) (snd drain) }
      in
      Alcotest.(check (float 1e-9)) "steady + drain deltas per snapshot" 3.
        (phases (10, 3) (2, 1));
      Alcotest.(check (float 1e-9)) "no snapshot: the delta count" 7.
        (phases (5, 0) (2, 0));
      Alcotest.(check (float 1e-9)) "ramp is not counted" 0. (phases (0, 2) (0, 0)))

(* --- changelog: the compaction boundary, keep = 0 included --- *)

let test_changelog_compact_keep_zero () =
  let log = Changelog.create () in
  ignore (Changelog.append log (Changelog.Add s1));
  ignore (Changelog.append log (Changelog.Add s2));
  Changelog.compact log ~keep:0;
  Alcotest.(check int) "horizon at head" 2 (Changelog.horizon log);
  (match Changelog.since log 2 with
  | Some [] -> ()
  | Some _ -> Alcotest.fail "at-horizon delta must be empty"
  | None -> Alcotest.fail "a client exactly at the horizon gets the empty delta, not a snapshot");
  (match Changelog.since log 1 with
  | None -> ()
  | Some _ -> Alcotest.fail "one version behind keep:0 must fall back to snapshot");
  check_set "set survives keep:0" [ s1; s2 ] (Changelog.current log);
  Alcotest.(check (option int)) "checksum still answers at the horizon"
    (Some (Changelog_oracle.checksum_set [ s1; s2 ]))
    (Changelog.checksum_at log 2)

let test_changelog_digest () =
  let log = Changelog.create () in
  for i = 1 to 10 do
    ignore (Changelog.append log (Changelog.Add (sig_ i [ Printf.sprintf "t%d" i ])))
  done;
  let d = Changelog.digest log ~since:0 ~interval:4 in
  (* Structure: ascending checkpoints, head always last, every line one
     the log itself vouches for. *)
  let versions = List.map fst d in
  Alcotest.(check bool) "ascending" true
    (List.sort_uniq compare versions = versions);
  (match List.rev d with
  | (v, sum) :: _ ->
    Alcotest.(check int) "head checkpoint" 10 v;
    Alcotest.(check int) "head sum" (Changelog.current_checksum log) sum
  | [] -> Alcotest.fail "digest must carry the head");
  List.iter
    (fun (v, sum) ->
      Alcotest.(check (option int)) "checkpoint agrees with checksum_at"
        (Some sum) (Changelog.checksum_at log v))
    d;
  (* Head-only freshness probe. *)
  Alcotest.(check (list (pair int int))) "head-only probe"
    [ (10, Changelog.current_checksum log) ]
    (Changelog.digest log ~since:max_int ~interval:1);
  (* Codec roundtrip, and the empty digest. *)
  let body =
    String.concat "\n"
      (List.map (fun (v, sum) -> Printf.sprintf "%d\t%s" v (Crc32.to_hex sum)) d)
  in
  (match Protocol.digest_of_body body with
  | Ok d' -> Alcotest.(check (list (pair int int))) "codec roundtrip" d d'
  | Error e -> Alcotest.failf "digest roundtrip: %s" e);
  (match Protocol.digest_of_body "" with
  | Ok [] -> ()
  | _ -> Alcotest.fail "empty body is the empty digest");
  List.iter
    (fun body ->
      match Protocol.digest_of_body body with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "must reject %S" body)
    [ "garbage"; "5\tnothex"; "5\t00ff00ff\n3\t00ff00ff" ];
  (try
     ignore (Changelog.digest log ~since:0 ~interval:0);
     Alcotest.fail "interval 0 must raise"
   with Invalid_argument _ -> ());
  (* Compaction moves the horizon: no checkpoint below it survives, so a
     diverged-below-horizon mirror correctly finds nothing to agree with
     and falls back to a rebuild. *)
  Changelog.compact log ~keep:4;
  let d = Changelog.digest log ~since:0 ~interval:1 in
  Alcotest.(check bool) "no checkpoint below the horizon" true
    (List.for_all (fun (v, _) -> v >= Changelog.horizon log) d)

let prop_compact_since_boundary =
  let gen =
    QCheck.make
      ~print:(fun (n, keep) -> Printf.sprintf "%d entries, keep %d" n keep)
      QCheck.Gen.(pair (int_range 1 30) (int_range 0 12))
  in
  QCheck.Test.make
    ~name:"since is servable exactly on [horizon, head] after compaction"
    ~count:200 gen
    (fun (n, keep) ->
      let log = Changelog.create () in
      for i = 1 to n do
        ignore
          (Changelog.append log (Changelog.Add (sig_ i [ Printf.sprintf "t%d" i ])))
      done;
      Changelog.compact log ~keep;
      let head = Changelog.version log and horizon = Changelog.horizon log in
      let ok = ref (horizon = head - min keep n) in
      for since = 0 to head + 1 do
        match Changelog.since log since with
        | None -> if since >= horizon && since <= head then ok := false
        | Some entries ->
          if since < horizon || since > head then ok := false
          else if List.length entries <> head - since then ok := false
      done;
      !ok)

(* --- changelog: tree-backed checksums against the serialise-then-CRC
   oracle --- *)

type log_op =
  | Op_add of int * int  (* id, token variant *)
  | Op_retire of int
  | Op_compact of int  (* keep *)
  | Op_restore
  | Op_truncate of int  (* versions dropped *)
  | Op_of_set  (* rebase on the live tree, as a relay resnapshot does *)

let tokens_of variant =
  (* Escapes in every shape the line codec knows, and repeats across ids. *)
  let pool = [| "a"; "b\tc"; "d\ne"; "\\x"; "imei=355"; "\r" |] in
  List.init (1 + (variant mod 3)) (fun i -> pool.((variant + (i * 5)) mod Array.length pool))

let log_op_gen =
  QCheck.Gen.(
    frequency
      [ (6, map2 (fun id v -> Op_add (id, v)) (int_range 0 11) (int_range 0 17));
        (3, map (fun id -> Op_retire id) (int_range 0 11));
        (1, map (fun k -> Op_compact k) (int_range 0 6));
        (1, return Op_restore);
        (1, map (fun k -> Op_truncate k) (int_range 0 4));
        (1, return Op_of_set) ])

let show_log_op = function
  | Op_add (id, v) -> Printf.sprintf "add %d/%d" id v
  | Op_retire id -> Printf.sprintf "retire %d" id
  | Op_compact k -> Printf.sprintf "compact %d" k
  | Op_restore -> "restore"
  | Op_truncate k -> Printf.sprintf "truncate -%d" k
  | Op_of_set -> "of_set"

(* A GET /signatures answered over one changelog, as origin and relay
   answer it. *)
let serve_delta log since =
  Protocol.handle
    { Protocol.resolve = (fun _ -> Ok ());
      gate = (fun () -> Ok log);
      headers = (fun () -> []);
      served = ignore;
      digest_interval = Protocol.default_digest_interval;
      candidates = (fun _ _ -> Http.Response.make 404);
      metrics = (fun () -> "") }
    (get (Printf.sprintf "/signatures?tenant=t0&since=%d" since))

(* The model keeps the list set at every version since 0 and every entry;
   the horizon only hides what the changelog may no longer answer.  Every
   retained delta is also served, and its body must be the entries'
   [entry_to_line]s joined. *)
let prop_changelog_matches_oracle =
  QCheck.Test.make ~name:"changelog checksums equal serialise-then-CRC"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_log_op ops))
       QCheck.Gen.(list_size (1 -- 40) log_op_gen))
    (fun ops ->
      let log = ref (Changelog.create ()) in
      let sets = ref [ (0, []) ] and entries = ref [] and horizon = ref 0 in
      let head () = fst (List.hd !sets) in
      let set_at v = List.assoc v !sets in
      let fail fmt = Printf.ksprintf (fun m -> QCheck.Test.fail_report m) fmt in
      let check () =
        let log = !log and head = head () in
        let cur = set_at head in
        if Changelog.version log <> head then fail "version";
        if Changelog.horizon log <> !horizon then fail "horizon";
        if lines (Changelog.current log) <> Changelog_oracle.canonical cur then
          fail "current";
        if Changelog.current_checksum log <> Changelog_oracle.checksum_set cur then
          fail "current_checksum";
        if
          Sigset.canonical_length (Changelog.current_set log)
          <> String.length (Changelog_oracle.canonical cur)
        then fail "canonical_length";
        if Changelog.wire_checksum log <> Changelog_oracle.wire_checksum ~version:head cur
        then fail "wire_checksum";
        List.iter
          (fun version ->
            if
              Sigset.wire_checksum ~version (Changelog.current_set log)
              <> Changelog_oracle.wire_checksum ~version cur
            then fail "wire_checksum ~version:%d" version)
          [ 0; 7; 123_456 ];
        for v = !horizon - 1 to head + 1 do
          let retained = v >= !horizon && v <= head in
          let want = if retained then Some (Changelog_oracle.checksum_set (set_at v)) else None in
          if Changelog.checksum_at log v <> want then fail "checksum_at %d" v;
          let want =
            if retained then
              Some
                (List.filter_map
                   (fun (e : Changelog.entry) ->
                     if e.Changelog.version > v then Some (Changelog_oracle.entry_to_line e)
                     else None)
                   (List.rev !entries))
            else None
          in
          if Option.map (List.map Changelog.entry_to_line) (Changelog.since log v) <> want
          then fail "since %d" v;
          if Changelog.since_lines log v <> want then fail "since_lines %d" v;
          match want with
          | Some lines when v < head ->
            let r = serve_delta log v in
            if
              header r "X-Signature-Mode" <> Some "delta"
              || r.Http.Response.body <> String.concat "\n" lines
            then fail "served delta since %d" v
          | _ -> ()
        done;
        List.iter
          (fun (since, interval) ->
            let start = max since !horizon in
            let points =
              List.filter
                (fun v -> v >= start && v < head && (v - start) mod interval = 0)
                (List.init (head + 1) Fun.id)
              @ [ head ]
            in
            let want =
              List.map
                (fun v -> (v, Changelog_oracle.checksum_set (set_at v)))
                points
            in
            if Changelog.digest log ~since ~interval <> want then fail "digest since %d interval %d" since interval)
          [ (0, 1); (0, 3); (!horizon + 1, 2); (max_int, 1); (1, max_int) ]
      in
      let append change =
        let v = head () + 1 in
        ignore (Changelog.append !log change);
        entries := { Changelog.version = v; change } :: !entries;
        sets := (v, Changelog.apply_change (set_at (v - 1)) change) :: !sets
      in
      List.iter
        (fun op ->
          (match op with
          | Op_add (id, v) -> append (Changelog.Add (sig_ id (tokens_of v)))
          | Op_retire id -> append (Changelog.Retire id)
          | Op_compact keep ->
            Changelog.compact !log ~keep;
            horizon := max !horizon (head () - keep)
          | Op_restore -> (
            match
              Changelog.restore ~base_version:(Changelog.horizon !log)
                ~base:(Changelog.base !log) ~next_id:(Changelog.next_id !log)
                ~entries:(Changelog.entries !log)
            with
            | Ok restored -> log := restored
            | Error e -> fail "restore: %s" e)
          | Op_truncate k ->
            let v = max !horizon (head () - k) in
            log := Changelog.truncate !log ~version:v;
            sets := List.filter (fun (w, _) -> w <= v) !sets;
            entries := List.filter (fun (e : Changelog.entry) -> e.Changelog.version <= v) !entries
          | Op_of_set ->
            let next_id = Changelog.next_id !log in
            log := Changelog.of_set ~version:(head ()) (Changelog.current_set !log);
            horizon := head ();
            if Changelog.next_id !log > next_id then fail "of_set next_id");
          check ())
        ops;
      true)

(* diff_changes compares signatures structurally instead of by their
   lines: exact only because the line codec is injective on them. *)
let prop_signature_equality_is_line_equality =
  let sig_gen =
    QCheck.Gen.(
      map3
        (fun id mode (size, variant) ->
          sig_ id ~mode:(if mode then Signature.Conjunction else Signature.Ordered)
            ~cluster_size:size (tokens_of variant))
        (int_range 0 2) bool
        (pair (int_range 1 2) (int_range 0 8)))
  in
  QCheck.Test.make ~name:"signature equality is line equality" ~count:1000
    (QCheck.make QCheck.Gen.(pair sig_gen sig_gen))
    (fun (a, b) -> (a = b) = (Signature_io.to_line a = Signature_io.to_line b))

(* The entry line decoder against the original, on lines cut from valid
   entries and on lines with bad tags, versions, retire ids and too few
   tabs. *)
let prop_entry_of_line_matches_oracle =
  let line_gen =
    QCheck.Gen.(
      let field = oneofl [ "a"; "r"; "x"; ""; "0"; "7"; "-3"; "+2"; "0x10"; "imei=35"; "b\\tc" ] in
      oneof
        [ map
            (fun (id, v, version) ->
              Changelog.entry_to_line
                { Changelog.version; change = Changelog.Add (sig_ id (tokens_of v)) })
            (triple (int_range 0 9) (int_range 0 17) (int_range 1 99));
          map (fun fields -> String.concat "\t" fields) (list_size (0 -- 6) field) ]
      >>= fun line ->
      map (fun cut -> if cut then String.sub line 0 (String.length line * 2 / 3) else line) bool)
  in
  QCheck.Test.make ~name:"entry_of_line = original codec" ~count:1000
    (QCheck.make ~print:String.escaped line_gen) (fun line ->
      Changelog.entry_of_line line = Changelog_oracle.entry_of_line line)

(* [append_encoded] with the entry's line against [append], over the
   same random history (compactions, restores, truncations and rebases
   included): both logs must agree on everything a reader can ask. *)
let prop_append_encoded_matches_append =
  QCheck.Test.make ~name:"append_encoded leaves the log append leaves" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_log_op ops))
       QCheck.Gen.(list_size (1 -- 40) log_op_gen))
    (fun ops ->
      let step log encoded op =
        let append change =
          (if encoded then
             let line =
               Changelog.entry_to_line
                 { Changelog.version = Changelog.version log + 1; change }
             in
             ignore (Changelog.append_encoded log change ~line)
           else ignore (Changelog.append log change));
          log
        in
        match op with
        | Op_add (id, v) -> append (Changelog.Add (sig_ id (tokens_of v)))
        | Op_retire id -> append (Changelog.Retire id)
        | Op_compact keep ->
          Changelog.compact log ~keep;
          log
        | Op_restore -> (
          match
            Changelog.restore ~base_version:(Changelog.horizon log)
              ~base:(Changelog.base log) ~next_id:(Changelog.next_id log)
              ~entries:(Changelog.entries log)
          with
          | Ok restored -> restored
          | Error e -> failwith e)
        | Op_truncate k ->
          Changelog.truncate log
            ~version:(max (Changelog.horizon log) (Changelog.version log - k))
        | Op_of_set ->
          Changelog.of_set ~version:(Changelog.version log) (Changelog.current_set log)
      in
      let view log =
        let horizon = Changelog.horizon log and head = Changelog.version log in
        ( (head, horizon, Changelog.next_id log, Changelog.entries log),
          ( lines (Changelog.base log),
            lines (Changelog.current log),
            Changelog.wire_checksum log,
            List.init (head - horizon + 1) (fun i ->
                (Changelog.checksum_at log (horizon + i), Changelog.since_lines log (horizon + i))) ) )
      in
      let plain = ref (Changelog.create ()) and encoded = ref (Changelog.create ()) in
      List.for_all
        (fun op ->
          plain := step !plain false op;
          encoded := step !encoded true op;
          view !plain = view !encoded)
        ops)

let test_restore_rejects_duplicate_ids () =
  let s1' = sig_ 1 [ "other" ] in
  match Changelog.restore ~base_version:0 ~base:[ s1; s2; s1' ] ~next_id:0 ~entries:[] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a base holding two signatures with one id must be refused"

(* --- shard map --- *)

let mk_map ~epoch origins =
  match Shard_map.create ~epoch ~origins () with
  | Ok m -> m
  | Error e -> Alcotest.failf "shard map: %s" e

let test_shard_map_basics () =
  (match Shard_map.create ~epoch:(-1) ~origins:[ "a" ] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative epoch must be rejected");
  (match Shard_map.create ~epoch:0 ~origins:[] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty origin set must be rejected");
  (match Shard_map.create ~epoch:0 ~origins:[ "a"; "a" ] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate origins must be rejected");
  (match Shard_map.create ~epoch:0 ~origins:[ "bad id" ] () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad origin id must be rejected");
  let m = mk_map ~epoch:3 [ "b"; "a" ] in
  Alcotest.(check int) "epoch" 3 (Shard_map.epoch m);
  let tenants = List.init 50 (fun i -> Printf.sprintf "t%d" i) in
  List.iter
    (fun t ->
      let o = Shard_map.owner m ~tenant:t in
      Alcotest.(check bool) "owner from the set" true (List.mem o [ "a"; "b" ]);
      Alcotest.(check string) "ownership is deterministic" o
        (Shard_map.owner m ~tenant:t))
    tenants;
  (* Advancing the epoch over the same origin set moves nothing: the
     rendezvous score ignores the epoch. *)
  let m' =
    match Shard_map.advance m ~origins:[ "a"; "b" ] with
    | Ok m -> m
    | Error e -> Alcotest.failf "advance: %s" e
  in
  Alcotest.(check int) "epoch advanced" 4 (Shard_map.epoch m');
  Alcotest.(check int) "same origins move nothing" 0
    (List.length (Shard_map.moved ~before:m ~after:m' ~tenants))

let test_shard_map_codec () =
  let m = mk_map ~epoch:7 [ "origin1"; "origin0"; "standby" ] in
  (match Shard_map.of_line (Shard_map.to_line m) with
  | Ok m' ->
    Alcotest.(check int) "epoch survives" 7 (Shard_map.epoch m');
    Alcotest.(check string) "origins survive" (Shard_map.to_line m)
      (Shard_map.to_line m');
    List.iter
      (fun i ->
        let t = Printf.sprintf "t%d" i in
        Alcotest.(check string) "ownership survives"
          (Shard_map.owner m ~tenant:t)
          (Shard_map.owner m' ~tenant:t))
      (List.init 20 Fun.id)
  | Error e -> Alcotest.failf "roundtrip: %s" e);
  List.iter
    (fun line ->
      match Shard_map.of_line line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "must reject %S" line)
    [ ""; "nope"; "-1\ta"; "3\t"; "3\ta,a"; "x\ta,b" ]

let test_shard_map_edges () =
  let tenants = List.init 60 (fun i -> Printf.sprintf "t%d" i) in
  let mk ?(weights = []) ?(proximity = []) ~epoch origins =
    match Shard_map.create ~weights ~proximity ~epoch ~origins () with
    | Ok m -> m
    | Error e -> Alcotest.failf "shard map: %s" e
  in
  (* A single-origin map routes everything to it. *)
  let solo = mk ~epoch:0 [ "only" ] in
  List.iter
    (fun t ->
      Alcotest.(check string) "solo origin owns all" "only"
        (Shard_map.owner solo ~tenant:t))
    tenants;
  (* An identical-origin-set epoch flip moves zero tenants even when the
     map carries weights and proximity. *)
  let m =
    mk ~weights:[ ("a", 3) ]
      ~proximity:[ ("r0", "a", 1); ("r0", "r1", 2) ]
      ~epoch:0 [ "a"; "b" ]
  in
  (match Shard_map.advance m ~origins:[ "a"; "b" ] with
  | Error e -> Alcotest.failf "advance: %s" e
  | Ok m' ->
    Alcotest.(check int) "epoch flipped" 1 (Shard_map.epoch m');
    Alcotest.(check int) "identical set moves nothing" 0
      (List.length (Shard_map.moved ~before:m ~after:m' ~tenants));
    Alcotest.(check int) "weight carried" 3 (Shard_map.weight m' ~origin:"a");
    Alcotest.(check (option int)) "relay-to-relay distance carried" (Some 2)
      (Shard_map.distance m' ~node:"r0" ~origin:"r1"));
  (* All-weight-1 scoring reduces to unweighted HRW exactly. *)
  let unweighted = mk ~epoch:0 [ "a"; "b"; "c" ] in
  let w1 =
    mk ~weights:[ ("a", 1); ("b", 1); ("c", 1) ] ~epoch:0 [ "a"; "b"; "c" ]
  in
  List.iter
    (fun t ->
      Alcotest.(check string) "weight 1 = unweighted"
        (Shard_map.owner unweighted ~tenant:t)
        (Shard_map.owner w1 ~tenant:t))
    tenants;
  (* Raising one origin's weight only pulls tenants toward it — nobody
     moves between the other origins — and pulls a larger share. *)
  let heavy = mk ~weights:[ ("a", 4) ] ~epoch:0 [ "a"; "b"; "c" ] in
  List.iter
    (fun t ->
      let o = Shard_map.owner heavy ~tenant:t in
      Alcotest.(check bool) "weight only attracts" true
        (o = "a" || o = Shard_map.owner unweighted ~tenant:t))
    tenants;
  let count m o =
    List.length (List.filter (fun t -> Shard_map.owner m ~tenant:t = o) tenants)
  in
  Alcotest.(check bool) "heavier origin owns more" true
    (count heavy "a" > count unweighted "a");
  (* Rejections: unknown-origin weight, weight < 1, negative distance. *)
  List.iter
    (fun (weights, proximity) ->
      match Shard_map.create ~weights ~proximity ~epoch:0 ~origins:[ "a" ] () with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "bad weights/proximity must be rejected")
    [ ([ ("ghost", 2) ], []); ([ ("a", 0) ], []); ([], [ ("r0", "a", -1) ]) ];
  (* Codec roundtrip carries weights and proximity. *)
  (match Shard_map.of_line (Shard_map.to_line heavy) with
  | Error e -> Alcotest.failf "roundtrip: %s" e
  | Ok heavy' ->
    Alcotest.(check int) "weight survives" 4 (Shard_map.weight heavy' ~origin:"a");
    List.iter
      (fun t ->
        Alcotest.(check string) "weighted ownership survives"
          (Shard_map.owner heavy ~tenant:t)
          (Shard_map.owner heavy' ~tenant:t))
      tenants);
  match Shard_map.of_line (Shard_map.to_line m) with
  | Error e -> Alcotest.failf "roundtrip: %s" e
  | Ok m' ->
    Alcotest.(check (option int)) "proximity survives" (Some 1)
      (Shard_map.distance m' ~node:"r0" ~origin:"a")

let prop_shard_map_minimal_disruption =
  let gen =
    QCheck.make
      ~print:(fun (n, seed) -> Printf.sprintf "%d origins, seed %d" n seed)
      QCheck.Gen.(pair (int_range 1 6) (int_range 0 999))
  in
  QCheck.Test.make
    ~name:"adding an origin only moves tenants onto it (and removal back off)"
    ~count:150 gen
    (fun (n, seed) ->
      let origins = List.init n (fun i -> Printf.sprintf "o%d-%d" seed i) in
      let tenants = List.init 40 (fun i -> Printf.sprintf "t%d-%d" seed i) in
      let before = mk_map ~epoch:0 origins in
      let joined = Printf.sprintf "new-%d" seed in
      match Shard_map.advance before ~origins:(joined :: origins) with
      | Error _ -> false
      | Ok after -> (
        let inbound = Shard_map.moved ~before ~after ~tenants in
        List.for_all (fun (_, _, dst) -> dst = joined) inbound
        &&
        match Shard_map.advance after ~origins with
        | Error _ -> false
        | Ok rolled_back ->
          let outbound = Shard_map.moved ~before:after ~after:rolled_back ~tenants in
          List.for_all (fun (_, src, _) -> src = joined) outbound
          (* and everyone lands back exactly where they started *)
          && List.for_all
               (fun t ->
                 Shard_map.owner rolled_back ~tenant:t
                 = Shard_map.owner before ~tenant:t)
               tenants))

(* --- delta client: an update is counted as the transfer it names --- *)

(* The soak and the distribution bench tell delta from snapshot updates by
   [last_update] alone, so it must agree with the counters: an [Updated]
   sync names [`Delta] exactly when [delta_updates] rose by one, and
   [`Snapshot] exactly when [snapshot_updates] did; any other sync moves
   neither.  Lossy, corrupting links (and, for [sync_via], a relay that
   corrupts more) drive deltas, snapshots past a compacted horizon, forced
   fulls and failed syncs. *)
let prop_sync_attribution =
  let gen =
    QCheck.make
      ~print:(fun (seed, rate, via) ->
        Printf.sprintf "seed %d, fault rate %.2f, %s" seed rate
          (if via then "sync_via" else "sync"))
      QCheck.Gen.(triple (int_range 0 9999) (float_range 0. 0.3) bool)
  in
  QCheck.Test.make ~name:"an update is counted as the transfer last_update names"
    ~count:200 gen
    (fun (seed, rate, via) ->
      let auth =
        Authority.create ~config:{ Authority.default_config with compact_keep = 1 } ()
      in
      let faults rate =
        { Fixtures.no_faults with
          Fault.corrupt_rate = rate;
          drop_rate = rate;
          truncate_rate = rate /. 2.;
          server_error_rate = rate }
      in
      let link seed rate =
        Fault.transport (Fault.create ~seed (faults rate)) (loss_free auth)
      in
      let origin = link seed rate and relay = link (seed + 1) (2. *. rate) in
      let c = Delta_client.create ~seed ~tenant:"t0" () in
      let k = Delta_client.counters c in
      List.for_all
        (fun round ->
          ignore
            (Authority.publish auth ~tenant:"t0"
               (s1 :: List.init round (fun i -> sig_ (10 + i) [ Printf.sprintf "tok%d" i ])));
          if round mod 3 = 0 then Authority.compact auth;
          let deltas = k.Delta_client.delta_updates
          and snapshots = k.Delta_client.snapshot_updates in
          let report =
            if via then Delta_client.sync_via c ~relays:[ relay ] ~origin
            else Delta_client.sync c ~transport:origin
          in
          let moved =
            (k.Delta_client.delta_updates - deltas, k.Delta_client.snapshot_updates - snapshots)
          in
          match (report.Signature_client.outcome, Delta_client.last_update c) with
          | Signature_client.Updated _, Some (`Delta _) -> moved = (1, 0)
          | Signature_client.Updated _, Some `Snapshot -> moved = (0, 1)
          | Signature_client.Updated _, None -> false
          | (Signature_client.Unchanged | Signature_client.Failed _), _ -> moved = (0, 0))
        (List.init 12 (fun i -> i + 1)))

(* --- delta client: 304 fork smell (split-brain defense) --- *)

let test_delta_client_304_fork_smell () =
  let auth = Authority.create () in
  ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  (* A forked authority at the same version holding a different history. *)
  let forked = Authority.create () in
  ignore (Authority.publish forked ~tenant:"t0" [ s3 ]);
  ignore (Authority.publish forked ~tenant:"t0" [ s3; s2 ]);
  let c = new_client "t0" in
  ignore (sync_updated "bootstrap from origin" c (loss_free auth));
  Alcotest.(check int) "at the origin head" 2 (Delta_client.version c);
  (* The forked relay answers our since=2 with a 304 whose checksum does
     not match our set at version 2.  Accepting it would silently pin us
     to the fork; the client must refuse and resync in full against the
     origin — never against the relay that smelled forked. *)
  let origin_fulls = ref 0 in
  let origin_transport raw =
    incr origin_fulls;
    loss_free auth raw
  in
  (match
     (Delta_client.sync_via c ~relays:[ loss_free forked ]
        ~origin:origin_transport)
       .Signature_client.outcome
   with
  | Signature_client.Updated _ | Signature_client.Unchanged -> ()
  | Signature_client.Failed e -> Alcotest.failf "fork recovery failed: %s" e);
  let k = Delta_client.counters c in
  Alcotest.(check bool) "fork smell counted" true (k.Delta_client.fork_smells > 0);
  Alcotest.(check bool) "recovered via the origin" true (!origin_fulls > 0);
  Alcotest.(check bool) "escalation counted" true (k.Delta_client.escalations > 0);
  check_set "landed on the origin's set, not the fork" [ s1; s2 ]
    (Delta_client.signatures c);
  Alcotest.(check int) "checksum agrees with the origin"
    (Authority.checksum auth ~tenant:"t0")
    (Delta_client.checksum c)

(* --- authority: shard gate and tenant migration --- *)

(* Find one tenant the map assigns to each origin. *)
let tenant_owned_by map name =
  let rec go i =
    if i > 10_000 then Alcotest.failf "no tenant hashes to %s" name
    else
      let t = Printf.sprintf "t%d" i in
      if Shard_map.owner map ~tenant:t = name then t else go (i + 1)
  in
  go 0

let test_authority_shard_gate () =
  let auth = Authority.create () in
  let map = mk_map ~epoch:2 [ "me"; "other" ] in
  let mine = tenant_owned_by map "me"
  and foreign = tenant_owned_by map "other" in
  ignore (Authority.publish auth ~tenant:mine [ s1 ]);
  ignore (Authority.publish auth ~tenant:foreign [ s3 ]);
  Authority.set_shard auth ~self:"me" map;
  Alcotest.(check bool) "owns its tenant" true (Authority.owns auth ~tenant:mine);
  Alcotest.(check bool) "does not own the foreign one" false
    (Authority.owns auth ~tenant:foreign);
  (* Owned tenants are served as before. *)
  let r = Authority.handle auth (get ("/signatures?tenant=" ^ mine ^ "&since=1")) in
  Alcotest.(check int) "owned tenant still serves" 304 r.Http.Response.status;
  (* Unowned tenants draw 421 naming the owner and epoch — even though we
     still hold their state. *)
  let r = Authority.handle auth (get ("/signatures?tenant=" ^ foreign ^ "&since=0")) in
  Alcotest.(check int) "unowned tenant misdirected" 421 r.Http.Response.status;
  Alcotest.(check (option string)) "owner advertised" (Some "other")
    (header r "X-Shard-Owner");
  Alcotest.(check (option string)) "epoch advertised" (Some "2")
    (header r "X-Shard-Epoch");
  let printed = Http.Response.print r in
  Alcotest.(check bool) "RFC 9110 reason phrase" true
    (String.starts_with ~prefix:"HTTP/1.1 421 Misdirected Request\r\n" printed);
  Alcotest.(check (option string)) "a router reads the owner back" (Some "other")
    (Protocol.misdirected_to printed);
  let r =
    Authority.handle auth (post ("/candidates?tenant=" ^ foreign ^ "&reporter=r") "x")
  in
  Alcotest.(check int) "candidates misdirected too" 421 r.Http.Response.status;
  (* An owned tenant we have not adopted yet draws a retryable 503 —
     never a fresh empty set a synced client would read as a rollback. *)
  let unborn =
    let rec go i =
      let t = Printf.sprintf "u%d" i in
      if Shard_map.owner map ~tenant:t = "me" then t else go (i + 1)
    in
    go 0
  in
  let r = Authority.handle auth (get ("/signatures?tenant=" ^ unborn ^ "&since=0")) in
  Alcotest.(check int) "owned but not adopted is retryable" 503
    r.Http.Response.status;
  Alcotest.(check (option string)) "retry hinted" (Some "1")
    (header r "Retry-After");
  Alcotest.(check (option string)) "a 503 redirects nowhere" None
    (Protocol.misdirected_to (Http.Response.print r))

let test_export_adopt_release () =
  let a = Authority.create () and b = Authority.create () in
  ignore (Authority.publish a ~tenant:"t0" [ s1 ]);
  ignore (Authority.publish a ~tenant:"t0" [ s1; s2 ]);
  (* A candidate one reporter short of promotion travels with the tenant. *)
  let c = candidate [ "cand"; "imsi=240080000000002" ] in
  (match Authority.report_candidate a ~tenant:"t0" ~reporter:"r1" c with
  | Authority.Accepted 1 -> ()
  | o -> Alcotest.failf "report: %s" (show_outcome o));
  (match Authority.report_candidate a ~tenant:"t0" ~reporter:"r2" c with
  | Authority.Accepted 2 -> ()
  | o -> Alcotest.failf "report: %s" (show_outcome o));
  let payload =
    match Authority.export_tenant a ~tenant:"t0" with
    | Ok p -> p
    | Error e -> Alcotest.failf "export: %s" e
  in
  (match Authority.adopt_tenant b payload with
  | Ok t -> Alcotest.(check string) "tenant name returned" "t0" t
  | Error e -> Alcotest.failf "adopt: %s" e);
  Alcotest.(check int) "version preserved across the handoff" 2
    (Authority.version b ~tenant:"t0");
  check_set "set preserved" [ s1; s2 ] (Authority.signatures b ~tenant:"t0");
  Alcotest.(check int) "checksum preserved"
    (Authority.checksum a ~tenant:"t0")
    (Authority.checksum b ~tenant:"t0");
  (* The new owner continues the committed version line, not a fresh one. *)
  ignore (Authority.publish b ~tenant:"t0" [ s1; s2; s3 ]);
  Alcotest.(check int) "monotonic across migration" 3
    (Authority.version b ~tenant:"t0");
  (* The travelled tally finishes promotion on the new owner. *)
  (match Authority.report_candidate b ~tenant:"t0" ~reporter:"r3" c with
  | Authority.Promoted _ -> ()
  | o ->
    Alcotest.failf "k-th reporter on the new owner: %s"
      (show_outcome o));
  (match Authority.release_tenant a ~tenant:"t0" with
  | Ok v -> Alcotest.(check int) "released at its head" 2 v
  | Error e -> Alcotest.failf "release: %s" e);
  Alcotest.(check int) "released tenant gone" 0 (Authority.version a ~tenant:"t0");
  (match Authority.release_tenant a ~tenant:"t0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "double release must error");
  (* Adopting a payload older than local state is refused. *)
  match Authority.adopt_tenant b payload with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "stale adopt must be refused"

let test_shard_state_replays () =
  with_dir (fun dir ->
      let map = mk_map ~epoch:5 [ "me"; "other" ] in
      let src = Authority.create () in
      ignore (Authority.publish src ~tenant:"mig" [ s1 ]);
      ignore (Authority.publish src ~tenant:"mig" [ s1; s2 ]);
      let payload =
        match Authority.export_tenant src ~tenant:"mig" with
        | Ok p -> p
        | Error e -> Alcotest.failf "export: %s" e
      in
      let auth, _ = reopen ~dir in
      Authority.set_shard auth ~self:"me" map;
      (match Authority.adopt_tenant auth payload with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "adopt: %s" e);
      Authority.close auth;
      (* Both the shard assignment and the adopted tenant ride the WAL. *)
      let auth, _ = reopen ~dir in
      (* With no map every tenant is owned; with the replayed one, only
         those the map gives to "me". *)
      List.iter
        (fun i ->
          let t = Printf.sprintf "t%d" i in
          Alcotest.(check bool) ("shard map replayed for " ^ t)
            (Shard_map.owner map ~tenant:t = "me")
            (Authority.owns auth ~tenant:t))
        (List.init 20 Fun.id);
      Alcotest.(check int) "adopted version replayed" 2
        (Authority.version auth ~tenant:"mig");
      check_set "adopted set replayed" [ s1; s2 ]
        (Authority.signatures auth ~tenant:"mig");
      (* Compaction folds the snapshot but re-journals the assignment. *)
      Authority.compact auth;
      Authority.close auth;
      let auth, _ = reopen ~dir in
      List.iter
        (fun i ->
          let t = Printf.sprintf "t%d" i in
          Alcotest.(check bool) ("shard map survives compaction for " ^ t)
            (Shard_map.owner map ~tenant:t = "me")
            (Authority.owns auth ~tenant:t))
        (List.init 20 Fun.id);
      Alcotest.(check int) "tenant survives compaction" 2
        (Authority.version auth ~tenant:"mig");
      Authority.close auth)

(* --- authority: the published-key index against a list scan --- *)

(* The index answers [report_candidate]'s "already published" test, so it
   is probed, after every step of a random history, with one report per
   key by a reporter that never reported before: [Duplicate] iff
   published. *)

type pub_op =
  | Pub_publish of (int * int) list  (* (id, key variant) *)
  | Pub_report of int * int  (* key variant, reporter *)
  | Pub_reopen of bool  (* compact (snapshot) first *)
  | Pub_migrate

let pub_key_tokens variant =
  [| [ "imei=355" ]; [ "loc=35.6"; "lon=139" ]; [ "mac=00:11" ]; [ "a\tb" ] |].(variant)

let pub_op_gen =
  QCheck.Gen.(
    frequency
      [ ( 4,
          map
            (fun l -> Pub_publish l)
            (list_size (0 -- 6) (pair (int_range 1 6) (int_range 0 3))) );
        (5, map2 (fun v r -> Pub_report (v, r)) (int_range 0 3) (int_range 0 5));
        (1, map (fun c -> Pub_reopen c) bool);
        (1, return Pub_migrate) ])

let show_pub_op = function
  | Pub_publish l ->
    Printf.sprintf "publish [%s]"
      (String.concat ";" (List.map (fun (id, v) -> Printf.sprintf "%d/%d" id v) l))
  | Pub_report (v, r) -> Printf.sprintf "report %d by r%d" v r
  | Pub_reopen c -> if c then "compact+reopen" else "reopen"
  | Pub_migrate -> "migrate"

(* Set-publish against the original lookup-per-member diff: over random
   live sets and desired lists (unsorted, duplicate ids with the last one
   winning, members passed again as themselves or as structurally equal
   copies, replacements, retires, either side empty), [publish] must
   commit exactly the oracle's change list and journal it in the bytes
   the original [Printf] codec writes. *)
type wanted =
  | Fresh of int * int  (* id, token variant *)
  | Same of int  (* the live member at this index, itself *)
  | Twin of int  (* a fresh copy of the live member at this index *)

let show_wanted = function
  | Fresh (id, v) -> Printf.sprintf "%d/%d" id v
  | Same i -> Printf.sprintf "same#%d" i
  | Twin i -> Printf.sprintf "twin#%d" i

let prop_publish_matches_diff_oracle =
  let gen =
    QCheck.Gen.(
      pair
        (list_size (0 -- 8) (pair (int_range 0 9) (int_range 0 5)))
        (list_size (0 -- 10)
           (frequency
              [ (3, map2 (fun id v -> Fresh (id, v)) (int_range 0 9) (int_range 0 5));
                (2, map (fun i -> Same i) (int_range 0 7));
                (2, map (fun i -> Twin i) (int_range 0 7)) ])))
  in
  let print (live, wanted) =
    Printf.sprintf "live [%s] want [%s]"
      (String.concat ";" (List.map (fun (id, v) -> Printf.sprintf "%d/%d" id v) live))
      (String.concat ";" (List.map show_wanted wanted))
  in
  QCheck.Test.make ~name:"publish commits the original diff's changes" ~count:300
    (QCheck.make ~print gen) (fun (live, wanted) ->
      let live =
        List.sort_uniq
          (fun a b -> compare a.Signature.id b.Signature.id)
          (List.map (fun (id, v) -> sig_ id (tokens_of v)) live)
      in
      let nth i = List.nth_opt live (i mod max 1 (List.length live)) in
      let desired =
        List.filter_map
          (function
            | Fresh (id, v) -> Some (sig_ id (tokens_of v))
            | Same i -> nth i
            | Twin i ->
              Option.map
                (fun (s : Signature.t) ->
                  Signature.make ~id:s.Signature.id ~mode:s.Signature.mode
                    ~cluster_size:s.Signature.cluster_size
                    (List.map (fun tok -> String.init (String.length tok) (String.get tok))
                       s.Signature.tokens))
                (nth i))
          wanted
      in
      let first = Publish_oracle.diff_changes Sigset.empty live in
      let set = List.fold_left Changelog.apply Sigset.empty first in
      let second = Publish_oracle.diff_changes set desired in
      let payloads =
        List.mapi
          (fun i change ->
            Printf.sprintf "change\tt0\t%s"
              (Changelog_oracle.entry_to_line { Changelog.version = i + 1; change }))
          (first @ second)
      in
      let read path = In_channel.with_open_bin path In_channel.input_all in
      with_dir (fun dir ->
          let wal = Authority.wal_path ~dir in
          let a =
            match Authority.open_ ~dir () with Ok (a, _) -> a | Error e -> failwith e
          in
          let v1 = Authority.publish a ~tenant:"t0" live in
          let v2 = Authority.publish a ~tenant:"t0" desired in
          let committed =
            List.map
              (fun (e : Changelog.entry) -> e.Changelog.change)
              (Authority.changelog_entries a ~tenant:"t0")
          in
          Authority.close a;
          let expected = Filename.concat dir "expected.log" in
          let w = Wal.create expected in
          List.iter (Wal.append w) payloads;
          Wal.close w;
          v1 = List.length first
          && v2 = v1 + List.length second
          && committed = first @ second
          && read wal = read expected))

let prop_published_index_matches_scan =
  QCheck.Test.make ~name:"published-key index equals a scan of the live set"
    ~count:60
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_pub_op ops))
       QCheck.Gen.(list_size (1 -- 25) pub_op_gen))
    (fun ops ->
      with_dir (fun root ->
          let dirs = ref 0 in
          let open_dir () =
            incr dirs;
            let dir = Filename.concat root (string_of_int !dirs) in
            match Authority.open_ ~dir () with
            | Ok (a, _) -> (dir, a)
            | Error e -> failwith e
          in
          let reopen dir =
            match Authority.open_ ~dir () with Ok (a, _) -> a | Error e -> failwith e
          in
          let dir, a = open_dir () in
          let cur = ref (dir, a) in
          (* Each check probes with reporters fresh to it, so an earlier
             probe's pending report cannot answer [Duplicate]. *)
          let checks = ref 0 in
          let agrees () =
            incr checks;
            let a = snd !cur in
            let live = Authority.signatures a ~tenant:"t0" in
            List.for_all
              (fun mode ->
                List.for_all
                  (fun v ->
                    let c = sig_ 0 ~mode (pub_key_tokens v) in
                    let probe =
                      Printf.sprintf "probe-%d-%d-%b" !checks v (mode = Signature.Ordered)
                    in
                    (Authority.report_candidate a ~tenant:"t0" ~reporter:probe c
                     = Authority.Duplicate)
                    = List.exists
                        (fun (s : Signature.t) ->
                          s.Signature.mode = mode && s.Signature.tokens = c.Signature.tokens)
                        live)
                  [ 0; 1; 2; 3 ])
              [ Signature.Conjunction; Signature.Ordered ]
          in
          let step op =
            let dir, a = !cur in
            (match op with
            | Pub_publish l ->
              ignore
                (Authority.publish a ~tenant:"t0"
                   (List.map (fun (id, v) -> sig_ id (pub_key_tokens v)) l))
            | Pub_report (v, r) ->
              ignore
                (Authority.report_candidate a ~tenant:"t0"
                   ~reporter:(Printf.sprintf "r%d" r)
                   (sig_ 0 (pub_key_tokens v)))
            | Pub_reopen compact ->
              if compact then Authority.compact a;
              Authority.close a;
              cur := (dir, reopen dir)
            | Pub_migrate -> (
              match Authority.export_tenant a ~tenant:"t0" with
              | Error _ -> () (* nothing published or reported yet *)
              | Ok payload ->
                Authority.close a;
                let dir', b = open_dir () in
                (match Authority.adopt_tenant b payload with
                | Ok _ -> ()
                | Error e -> failwith e);
                cur := (dir', b)));
            agrees ()
          in
          let ok = List.for_all step ops in
          Authority.close (snd !cur);
          ok))

(* --- relay: fail-static serving, staleness, forwarding --- *)

let test_relay_serves_and_fail_static () =
  let auth = Authority.create () in
  ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
  let relay = Relay.create ~id:"r0" ~tenants:[ "t0" ] () in
  (* Before any verified sync the relay refuses to serve: a 503, never an
     empty set that reads as a rollback. *)
  let r = Relay.handle relay (get "/signatures?tenant=t0&since=0") in
  Alcotest.(check int) "unsynced relay refuses" 503 r.Http.Response.status;
  Alcotest.(check (option string)) "retry hinted" (Some "1") (header r "Retry-After");
  let r = Relay.handle relay (get "/signatures?tenant=nope&since=0") in
  Alcotest.(check int) "unconfigured tenant" 404 r.Http.Response.status;
  (* One verified sync and it serves the origin's bytes. *)
  (match
     (Relay.sync_tenant relay ~tenant:"t0" ~transport:(loss_free auth))
       .Signature_client.outcome
   with
  | Signature_client.Updated 1 -> ()
  | _ -> Alcotest.fail "relay sync must land on v1");
  let c = new_client "t0" in
  ignore (sync_updated "client via relay" c (Relay.wire_transport relay));
  check_set "relay-served set" [ s1 ] (Delta_client.signatures c);
  Alcotest.(check int) "checksums agree through the relay"
    (Authority.checksum auth ~tenant:"t0")
    (Delta_client.checksum c);
  (* The origin moves on; the relay is partitioned: it keeps serving the
     last verified version, advertising how stale it is. *)
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  (match
     (Relay.sync_tenant relay ~tenant:"t0" ~transport:(fun _ -> Error "partitioned"))
       .Signature_client.outcome
   with
  | Signature_client.Failed _ -> ()
  | _ -> Alcotest.fail "partitioned sync must fail");
  let r = Relay.handle relay (get "/signatures?tenant=t0&since=0") in
  Alcotest.(check int) "fail-static still serves" 200 r.Http.Response.status;
  Alcotest.(check (option string)) "staleness advertised" (Some "1")
    (header r "X-Relay-Staleness");
  Alcotest.(check (option string)) "relay identifies itself" (Some "r0")
    (header r "X-Relay-Id");
  Alcotest.(check (option string)) "old version, honestly" (Some "1")
    (header r "X-Signature-Version");
  (* Partition heals: catch up, staleness resets, clients get the delta. *)
  (match
     (Relay.sync_tenant relay ~tenant:"t0" ~transport:(loss_free auth))
       .Signature_client.outcome
   with
  | Signature_client.Updated 2 -> ()
  | _ -> Alcotest.fail "healed sync must land on v2");
  Alcotest.(check (option string)) "staleness reset" (Some "0")
    (header (Relay.handle relay (get "/signatures?tenant=t0&since=2")) "X-Relay-Staleness");
  ignore (sync_updated "client catches up via relay" c (Relay.wire_transport relay));
  check_set "delta through the mirror" [ s1; s2 ] (Delta_client.signatures c);
  let k = Delta_client.counters c in
  Alcotest.(check int) "served as a delta, not a snapshot" 2
    k.Delta_client.delta_updates

let test_relay_forwards_candidates () =
  let auth = Authority.create () in
  ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
  let relay = Relay.create ~id:"r0" ~tenants:[ "t0" ] () in
  let body = lines [ candidate [ "cand"; "imsi=240080000000003" ] ] in
  (* No upstream configured: reports are refused retryably, not dropped. *)
  let r = Relay.handle relay (post "/candidates?tenant=t0&reporter=r1" body) in
  Alcotest.(check int) "no upstream is 503" 503 r.Http.Response.status;
  Relay.set_upstream relay (loss_free auth);
  let r = Relay.handle relay (post "/candidates?tenant=t0&reporter=r1" body) in
  Alcotest.(check int) "forwarded upstream" 200 r.Http.Response.status;
  (match
     Authority.report_candidate auth ~tenant:"t0" ~reporter:"r1"
       (candidate [ "cand"; "imsi=240080000000003" ])
   with
  | Authority.Duplicate -> ()
  | o -> Alcotest.failf "candidate landed on the origin: %s" (show_outcome o));
  let k = Relay.counters relay in
  Alcotest.(check int) "forward counted" 1 k.Relay.forwarded;
  Alcotest.(check int) "failure counted" 1 k.Relay.forward_failures

(* A candidate tally cut by its last byte on the way: [capped\t12]
   arrives as [capped\t1] under the [Content-Length: 43] of the whole
   body.  The reporter must refuse it (and retry) instead of counting one
   capped candidate, and a relay forwarding it must answer its retryable
   503 instead of passing the short tally on. *)
let test_candidate_answer_length_checked () =
  let whole =
    Http.Response.print
      (Http.Response.make
         ~body:"accepted\t0\nduplicate\t0\npromoted\t0\ncapped\t12" 200)
  in
  let cut = String.sub whole 0 (String.length whole - 1) in
  (match Http.Response.parse whole with
  | Ok r ->
    Alcotest.(check (option string)) "declares the whole body" (Some "43")
      (header r "Content-Length")
  | Error _ -> Alcotest.fail "intact answer does not parse");
  let report raw =
    Protocol.post_candidates (fun _ -> Ok raw) ~tenant:"t0" ~reporter:"r1"
      [ candidate [ "cand" ] ]
  in
  (match report whole with
  | Ok t -> Alcotest.(check int) "intact tally counted" 12 t.Protocol.capped
  | Error e -> Alcotest.failf "intact tally refused: %s" e);
  (match report cut with
  | Error _ -> ()
  | Ok t -> Alcotest.failf "cut tally accepted as capped = %d" t.Protocol.capped);
  let relay = Relay.create ~id:"r0" ~tenants:[ "t0" ] () in
  let body = lines [ candidate [ "cand"; "imsi=240080000000003" ] ] in
  let forward raw =
    Relay.set_upstream relay (fun _ -> Ok raw);
    Relay.handle relay (post "/candidates?tenant=t0&reporter=r1" body)
  in
  let r = forward whole in
  Alcotest.(check int) "intact answer passed on" 200 r.Http.Response.status;
  let r = forward cut in
  Alcotest.(check int) "cut answer is 503" 503 r.Http.Response.status;
  Alcotest.(check (option string)) "retry hinted" (Some "1") (header r "Retry-After");
  let k = Relay.counters relay in
  Alcotest.(check int) "one forwarded" 1 k.Relay.forwarded;
  Alcotest.(check int) "one failed" 1 k.Relay.forward_failures

(* A checkpoint interval from the query string may be as large as
   [max_int]: stepping past the head must not overflow into a version
   the log cannot answer for.  Both origin and relay must answer 200
   with a well-formed digest: the first checkpoint, then the head. *)
let test_digest_huge_interval () =
  let auth = Authority.create () in
  ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2; s3 ]);
  let relay = Relay.create ~id:"r0" ~tenants:[ "t0" ] () in
  ignore (Relay.sync_tenant relay ~tenant:"t0" ~transport:(loss_free auth));
  let target = Printf.sprintf "/digest?tenant=t0&since=1&interval=%d" max_int in
  let want =
    [ (1, Option.get (Authority.checksum_at auth ~tenant:"t0" ~version:1));
      (3, Authority.checksum auth ~tenant:"t0") ]
  in
  List.iter
    (fun (who, r) ->
      Alcotest.(check int) (who ^ " answers") 200 r.Http.Response.status;
      match Protocol.digest_of_body r.Http.Response.body with
      | Ok d -> Alcotest.(check (list (pair int int))) (who ^ " digest") want d
      | Error e -> Alcotest.failf "%s digest body: %s" who e)
    [ ("origin", Authority.handle auth (get target));
      ("relay", Relay.handle relay (get target)) ]

let test_relay_fork_repair () =
  let auth = Authority.create () in
  ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2; s3 ]);
  let relay =
    Relay.create
      ~config:{ Relay.compact_keep = 64; digest_interval = 1 }
      ~id:"r0" ~tenants:[ "t0" ] ()
  in
  (match
     (Relay.sync_tenant relay ~tenant:"t0" ~transport:(loss_free auth))
       .Signature_client.outcome
   with
  | Signature_client.Updated 3 -> ()
  | _ -> Alcotest.fail "relay sync must land on v3");
  Alcotest.(check bool) "consistent after sync" true
    (Relay.consistent relay ~tenant:"t0");
  let r = Relay.handle relay (get "/digest?tenant=t0&since=0&interval=1") in
  Alcotest.(check int) "digest served" 200 r.Http.Response.status;
  Alcotest.(check (option string)) "digest mode" (Some "digest")
    (header r "X-Signature-Mode");
  (* Fork the mirror: the serving guard must trip on both endpoints. *)
  Relay.inject_fork relay ~tenant:"t0";
  Alcotest.(check bool) "fork detected" false
    (Relay.consistent relay ~tenant:"t0");
  let r = Relay.handle relay (get "/signatures?tenant=t0&since=0") in
  Alcotest.(check int) "diverged mirror refuses" 503 r.Http.Response.status;
  let r = Relay.handle relay (get "/digest?tenant=t0&since=0&interval=1") in
  Alcotest.(check int) "diverged digest refuses too" 503 r.Http.Response.status;
  (* The origin is idle, so the next sync is a verified 304 — which must
     still notice the divergence and heal it by ranged repair, never a
     rebuild: the prefix up to head - 1 is intact. *)
  (match
     (Relay.sync_tenant relay ~tenant:"t0" ~transport:(loss_free auth))
       .Signature_client.outcome
   with
  | Signature_client.Unchanged -> ()
  | _ -> Alcotest.fail "idle origin must answer 304");
  Alcotest.(check bool) "consistent again" true
    (Relay.consistent relay ~tenant:"t0");
  let k = Relay.counters relay in
  Alcotest.(check int) "healed by ranged repair" 1 k.Relay.repairs;
  Alcotest.(check int) "no resnapshot" 0 k.Relay.resnapshots;
  Alcotest.(check bool) "repair bytes accounted" true (k.Relay.repair_bytes > 0);
  Alcotest.(check bool) "refusals counted" true
    (k.Relay.served_inconsistent >= 2);
  let c = new_client "t0" in
  ignore (sync_updated "client after repair" c (Relay.wire_transport relay));
  check_set "repaired mirror serves the true set" [ s1; s2; s3 ]
    (Delta_client.signatures c);
  (* Fork again with the origin moving underneath: the delta-absorb
     mismatch takes the same repair path. *)
  ignore (Authority.publish auth ~tenant:"t0" [ s2; s3 ]);
  Relay.inject_fork relay ~tenant:"t0";
  (match
     (Relay.sync_tenant relay ~tenant:"t0" ~transport:(loss_free auth))
       .Signature_client.outcome
   with
  | Signature_client.Updated 4 -> ()
  | _ -> Alcotest.fail "sync must land on v4");
  let k = Relay.counters relay in
  Alcotest.(check int) "second fork also repaired" 2 k.Relay.repairs;
  Alcotest.(check int) "still no resnapshot" 0 k.Relay.resnapshots;
  ignore (sync_updated "client follows" c (Relay.wire_transport relay));
  check_set "post-retire set through the mirror" [ s2; s3 ]
    (Delta_client.signatures c)

let test_relay_gossip_catchup () =
  let auth = Authority.create () in
  ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
  let ra = Relay.create ~id:"ra" ~tenants:[ "t0" ] () in
  let rb = Relay.create ~id:"rb" ~tenants:[ "t0" ] () in
  List.iter
    (fun r ->
      match
        (Relay.sync_tenant r ~tenant:"t0" ~transport:(loss_free auth))
          .Signature_client.outcome
      with
      | Signature_client.Updated 1 -> ()
      | _ -> Alcotest.fail "both relays must sync to v1")
    [ ra; rb ];
  (* The origin advances; only ra sees it before rb is partitioned. *)
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  (match
     (Relay.sync_tenant ra ~tenant:"t0" ~transport:(loss_free auth))
       .Signature_client.outcome
   with
  | Signature_client.Updated 2 -> ()
  | _ -> Alcotest.fail "ra must reach v2");
  Relay.set_peers rb
    [ ("ra", Relay.wire_transport ra);
      ("rb", fun _ -> Alcotest.fail "an entry matching self must be dropped") ];
  (* Gossip with the origin unreachable: rb catches up from its sibling
     through the full verification ladder. *)
  let origin_dead ~tenant:_ _ = Error "origin partitioned" in
  Relay.gossip rb ~upstream:origin_dead;
  Alcotest.(check int) "rb caught up sideways" 2 (Relay.version rb ~tenant:"t0");
  Alcotest.(check bool) "rb consistent" true (Relay.consistent rb ~tenant:"t0");
  let k = Relay.counters rb in
  Alcotest.(check int) "catch-up counted" 1 k.Relay.gossip_catchups;
  Alcotest.(check int) "round counted" 1 k.Relay.gossip_rounds;
  let c = new_client "t0" in
  ignore (sync_updated "client via the caught-up relay" c (Relay.wire_transport rb));
  check_set "sibling-sourced set" [ s1; s2 ] (Delta_client.signatures c);
  Alcotest.(check int) "checksums agree end to end"
    (Authority.checksum auth ~tenant:"t0")
    (Delta_client.checksum c);
  (* Nothing fresher anywhere: the next round moves nothing. *)
  Relay.gossip rb ~upstream:origin_dead;
  let k = Relay.counters rb in
  Alcotest.(check int) "no-op round" 1 k.Relay.gossip_catchups;
  Alcotest.(check int) "but still counted" 2 k.Relay.gossip_rounds

let test_relay_version_age_and_metrics () =
  let obs = Leakdetect_obs.Obs.create () in
  let auth = Authority.create () in
  ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
  let relay = Relay.create ~obs ~id:"r0" ~tenants:[ "t0" ] () in
  Relay.set_clock relay 3;
  (match
     (Relay.sync_tenant relay ~tenant:"t0" ~transport:(loss_free auth))
       .Signature_client.outcome
   with
  | Signature_client.Updated 1 -> ()
  | _ -> Alcotest.fail "sync must land");
  Relay.set_clock relay 10;
  let r = Relay.handle relay (get "/signatures?tenant=t0&since=1") in
  Alcotest.(check int) "up to date" 304 r.Http.Response.status;
  Alcotest.(check (option string)) "age advertised" (Some "7")
    (header r "X-Relay-Version-Age");
  Alcotest.(check (option string)) "fresh upstream" (Some "0")
    (header r "X-Relay-Staleness");
  (* A failed sync bumps staleness (transport health) but version age
     keeps measuring the clock alone. *)
  (match
     (Relay.sync_tenant relay ~tenant:"t0" ~transport:(fun _ -> Error "down"))
       .Signature_client.outcome
   with
  | Signature_client.Failed _ -> ()
  | _ -> Alcotest.fail "dead transport must fail");
  let r = Relay.handle relay (get "/signatures?tenant=t0&since=1") in
  Alcotest.(check (option string)) "staleness bumped" (Some "1")
    (header r "X-Relay-Staleness");
  Alcotest.(check (option string)) "age unchanged" (Some "7")
    (header r "X-Relay-Version-Age");
  let m = Relay.handle relay (get "/metrics") in
  Alcotest.(check int) "metrics served" 200 m.Http.Response.status;
  let contains body needle =
    let n = String.length body and m = String.length needle in
    let rec go i =
      i + m <= n && (String.sub body i m = needle || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun family ->
      Alcotest.(check bool) (family ^ " exported") true
        (contains m.Http.Response.body family))
    [ "leakdetect_relay_staleness";
      "leakdetect_relay_version_age";
      "leakdetect_relay_version";
      "leakdetect_relay_sync_rounds";
      "leakdetect_relay_gossip_rounds";
      "leakdetect_relay_repairs";
      "leakdetect_relay_resnapshots";
      "leakdetect_relay_served_inconsistent" ]

(* --- sync_via: escalation ladder and relay failover --- *)

let test_sync_via_escalates_past_byzantine_relay () =
  let auth = Authority.create () in
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  (* Every relay serves corrupted bytes: flip a character inside the
     payload, leaving the frame parseable so only verification catches it. *)
  let corrupting raw =
    match loss_free auth raw with
    | Error _ as e -> e
    | Ok response -> (
      let find_sub s sub =
        let n = String.length s and m = String.length sub in
        let rec go i =
          if i + m > n then None
          else if String.sub s i m = sub then Some i
          else go (i + 1)
        in
        go 0
      in
      match find_sub response "imei" with
      | None -> Ok response
      | Some i ->
        let b = Bytes.of_string response in
        Bytes.set b (i + 2) 'X';
        Ok (Bytes.to_string b))
  in
  let origin_calls = ref 0 in
  let origin raw =
    incr origin_calls;
    loss_free auth raw
  in
  let c = new_client "t0" in
  (match
     (Delta_client.sync_via c ~relays:[ corrupting; corrupting ] ~origin)
       .Signature_client.outcome
   with
  | Signature_client.Updated 2 -> ()
  | Signature_client.Failed e -> Alcotest.failf "escalation failed: %s" e
  | _ -> Alcotest.fail "must install the head, not skip");
  Alcotest.(check bool) "origin reached" true (!origin_calls > 0);
  check_set "true set installed despite the byzantine tier" [ s1; s2 ]
    (Delta_client.signatures c);
  let k = Delta_client.counters c in
  Alcotest.(check bool) "escalation counted" true (k.Delta_client.escalations > 0)

let test_sync_via_rotates_past_dead_relay () =
  let auth = Authority.create () in
  ignore (Authority.publish auth ~tenant:"t0" [ s1 ]);
  let relay = Relay.create ~id:"r1" ~tenants:[ "t0" ] () in
  (match
     (Relay.sync_tenant relay ~tenant:"t0" ~transport:(loss_free auth))
       .Signature_client.outcome
   with
  | Signature_client.Updated 1 -> ()
  | _ -> Alcotest.fail "relay must sync");
  let dead _ = Error "connection refused" in
  let c = new_client "t0" in
  (* The preferred relay is dead; the next attempt rotates to the live
     sibling without ever touching the origin. *)
  let origin _ = Alcotest.fail "origin must not be needed for a dead relay" in
  (match
     (Delta_client.sync_via c ~relays:[ dead; Relay.wire_transport relay ] ~origin)
       .Signature_client.outcome
   with
  | Signature_client.Updated 1 -> ()
  | _ -> Alcotest.fail "failover sync must land");
  check_set "served by the live relay" [ s1 ] (Delta_client.signatures c);
  let k = Delta_client.counters c in
  Alcotest.(check int) "no escalation for a mere dead relay" 0
    k.Delta_client.escalations

(* --- mini topology soak: the full tier end to end --- *)

let mini_topology =
  {
    Topology.default_config with
    Topology.clients = 40;
    tenants = 3;
    ticks = 400;
    sync_period = 16;
    publishes = 12;
    candidates = 2;
    partitions = 2;
    partition_ticks = 50;
    relay_crashes = 1;
    epoch_flips = 1;
    min_offload = 0.5;
    drain_rounds = 40;
    seed = 11;
  }

let test_mini_topology () =
  with_dir (fun dir ->
      let report = Topology.run ~dir mini_topology in
      let inv = report.Topology.invariants in
      Alcotest.(check int) "no divergence" 0 inv.Topology.divergences;
      Alcotest.(check int) "no regressions" 0 inv.Topology.regressions;
      Alcotest.(check int) "no sub-k promotions" 0 inv.Topology.sub_k_promotions;
      Alcotest.(check int) "no recovery mismatches" 0
        inv.Topology.recovery_mismatches;
      Alcotest.(check int) "everyone converged" 0 inv.Topology.unconverged;
      Alcotest.(check bool) "ok" true (Topology.ok report);
      Alcotest.(check int) "the epoch flipped" 1 report.Topology.epoch_flips_done;
      Alcotest.(check int) "partitions ran" 2 report.Topology.partitions_done;
      Alcotest.(check int) "the relay crashed" 1 report.Topology.relay_crashes_done;
      Alcotest.(check bool) "relays carried most of the load" true
        (report.Topology.offload > 0.5);
      Alcotest.(check bool) "faults actually fired" true
        (List.exists (fun (_, n) -> n > 0) report.Topology.fault_events))

(* Pinned: the relayed engine's whole report, byte for byte.  A change to
   the tick schedule, the PRNG stream or any counter moves this CRC. *)
let test_mini_topology_pinned () =
  with_dir (fun dir ->
      let report = Topology.run ~dir mini_topology in
      Alcotest.(check string) "report CRC32" "c4591cce"
        (Crc32.to_hex
           (Crc32.string (Json.to_string (Topology.report_to_json report)))))

(* --- journal bytes: known answers ---

   A fixed seeded history on two tenants: publishes that add, replace and
   retire signatures whose tokens carry every escape the line codec knows,
   pending candidate reports, one promotion at k, a compaction, then more
   of the same.  The CRC-32s of the WAL before the compaction, of the
   snapshot it writes and of the WAL at the end pin the journal payloads
   byte for byte. *)

let journal_known_answers () =
  let rng = Leakdetect_util.Prng.create 4242 in
  let pool = [| "imei=35"; "tab\there"; "nl\nx"; "back\\slash"; "cr\r"; "GET /t" |] in
  let token () =
    Printf.sprintf "%s%d" (Leakdetect_util.Prng.pick rng pool)
      (Leakdetect_util.Prng.int rng 1000)
  in
  let signature id =
    sig_ id
      ~mode:(if Leakdetect_util.Prng.bool rng then Signature.Conjunction else Signature.Ordered)
      ~cluster_size:(1 + Leakdetect_util.Prng.int rng 40)
      (List.init (1 + Leakdetect_util.Prng.int rng 3) (fun _ -> token ()))
  in
  let desired () =
    List.filter_map
      (fun id -> if Leakdetect_util.Prng.int rng 4 = 0 then None else Some (signature id))
      (List.init 10 (fun i -> i + 1))
  in
  let file_crc path =
    Crc32.to_hex (Crc32.string (In_channel.with_open_bin path In_channel.input_all))
  in
  let config = { Authority.default_config with Authority.compact_keep = 3 } in
  with_dir (fun dir ->
      let auth =
        match Authority.open_ ~config ~dir () with
        | Ok (a, _) -> a
        | Error e -> Alcotest.fail e
      in
      let round () =
        List.iter
          (fun tenant -> ignore (Authority.publish auth ~tenant (desired ())))
          [ "t0"; "t1" ];
        ignore
          (Authority.report_candidate auth ~tenant:"t0"
             ~reporter:(Printf.sprintf "r%d" (Leakdetect_util.Prng.int rng 5))
             (candidate [ token (); token () ]))
      in
      for _ = 1 to 4 do round () done;
      let promoted = candidate [ "promote\tme"; "imsi=2400" ] in
      List.iter
        (fun r -> ignore (Authority.report_candidate auth ~tenant:"t1" ~reporter:r promoted))
        [ "p1"; "p2"; "p3" ];
      let wal = Authority.wal_path ~dir in
      let before = file_crc wal in
      Authority.compact auth;
      let snapshot = file_crc (Authority.snapshot_path ~dir) in
      for _ = 1 to 2 do round () done;
      Authority.close auth;
      (before, snapshot, file_crc wal))

let test_journal_known_answers () =
  let before, snapshot, after = journal_known_answers () in
  Alcotest.(check string) "WAL before compaction" "5298150a" before;
  Alcotest.(check string) "snapshot" "df88f5ec" snapshot;
  Alcotest.(check string) "WAL after compaction" "2f986da2" after

let suite =
  [ ( "distrib.changelog",
      [ Alcotest.test_case "ops" `Quick test_changelog_ops;
        Alcotest.test_case "since + compact" `Quick
          test_changelog_since_and_compact;
        Alcotest.test_case "entry codec" `Quick test_changelog_codec;
        Alcotest.test_case "restore rejects gaps" `Quick
          test_changelog_restore_rejects_gaps;
        Alcotest.test_case "compact keep:0 boundary" `Quick
          test_changelog_compact_keep_zero;
        Alcotest.test_case "ranged digest" `Quick test_changelog_digest;
        qtest prop_delta_equals_snapshot;
        qtest prop_compact_since_boundary;
        qtest prop_changelog_matches_oracle;
        qtest prop_signature_equality_is_line_equality;
        qtest prop_entry_of_line_matches_oracle;
        qtest prop_append_encoded_matches_append;
        Alcotest.test_case "restore rejects duplicate ids" `Quick
          test_restore_rejects_duplicate_ids ] );
    ( "distrib.shard_map",
      [ Alcotest.test_case "validation + stability" `Quick test_shard_map_basics;
        Alcotest.test_case "line codec" `Quick test_shard_map_codec;
        Alcotest.test_case "weights + proximity edges" `Quick
          test_shard_map_edges;
        qtest prop_shard_map_minimal_disruption ] );
    ( "distrib.authority",
      [ Alcotest.test_case "http statuses" `Quick test_authority_http_statuses;
        Alcotest.test_case "snapshot below horizon" `Quick
          test_authority_snapshot_below_horizon;
        Alcotest.test_case "identical publish is a no-op" `Quick
          test_identical_publish_is_noop;
        Alcotest.test_case "promotion at k" `Quick test_promotion_at_k;
        Alcotest.test_case "reporter cap" `Quick test_reporter_cap;
        Alcotest.test_case "candidates tally" `Quick
          test_candidates_endpoint_tally;
        Alcotest.test_case "reads create no tenant" `Quick
          test_reads_create_no_tenant;
        qtest prop_published_index_matches_scan;
        qtest prop_publish_matches_diff_oracle ] );
    ( "distrib.durability",
      [ Alcotest.test_case "reopen replays" `Quick test_authority_reopen;
        Alcotest.test_case "compact + reopen" `Quick test_authority_compact_reopen;
        Alcotest.test_case "state files" `Quick test_state_files;
        Alcotest.test_case "publish crash-point sweep" `Quick
          test_publish_crash_point_sweep;
        Alcotest.test_case "compaction crash windows" `Quick
          test_compaction_crash_windows;
        Alcotest.test_case "promotion crash recovers" `Quick
          test_promotion_crash_recovers;
        Alcotest.test_case "torn journal tail" `Quick test_torn_journal_tail;
        Alcotest.test_case "torn tail repair then append" `Quick
          test_torn_tail_repair_then_append;
        Alcotest.test_case "duplicated tail replays stale" `Quick
          test_duplicated_tail_replays_stale;
        Alcotest.test_case "checkpoint per journal record" `Quick
          test_checkpoint_per_record;
        Alcotest.test_case "every cut lands on a checkpoint" `Quick
          test_every_cut_lands_on_a_checkpoint;
        Alcotest.test_case "torn writes recover committed" `Quick
          test_torn_writes_recover_committed;
        Alcotest.test_case "corrupt snapshot falls back" `Quick
          test_corrupt_snapshot_falls_back;
        Alcotest.test_case "journal known answers" `Quick
          test_journal_known_answers ] );
    ( "distrib.delta_client",
      [ Alcotest.test_case "happy path" `Quick test_delta_client_happy_path;
        Alcotest.test_case "Add of a held id replaces" `Quick
          test_delta_client_replace_by_id;
        Alcotest.test_case "horizon gap falls back" `Quick
          test_delta_client_gap_forces_full;
        Alcotest.test_case "corrupt body falls back" `Quick
          test_delta_client_rejects_corrupt_body;
        Alcotest.test_case "regression refused" `Quick
          test_delta_client_refuses_regression;
        Alcotest.test_case "304 fork smell" `Quick
          test_delta_client_304_fork_smell;
        Alcotest.test_case "escalates past byzantine relays" `Quick
          test_sync_via_escalates_past_byzantine_relay;
        Alcotest.test_case "rotates past a dead relay" `Quick
          test_sync_via_rotates_past_dead_relay;
        Alcotest.test_case "duplicate ids refused" `Quick
          test_delta_client_refuses_duplicate_ids;
        Alcotest.test_case "content-length check" `Quick
          test_delta_client_content_length_check;
        Alcotest.test_case "content-length overrun" `Quick
          test_delta_client_content_length_overrun;
        Alcotest.test_case "drives the monitor" `Quick
          test_delta_client_drives_monitor;
        qtest prop_sync_attribution ] );
    ( "distrib.sharding",
      [ Alcotest.test_case "shard gate" `Quick test_authority_shard_gate;
        Alcotest.test_case "export / adopt / release" `Quick
          test_export_adopt_release;
        Alcotest.test_case "shard state replays" `Quick
          test_shard_state_replays ] );
    ( "distrib.relay",
      [ Alcotest.test_case "serves + fail-static" `Quick
          test_relay_serves_and_fail_static;
        Alcotest.test_case "forwards candidates" `Quick
          test_relay_forwards_candidates;
        Alcotest.test_case "candidate answers length-checked" `Quick
          test_candidate_answer_length_checked;
        Alcotest.test_case "digest with a huge interval" `Quick
          test_digest_huge_interval;
        Alcotest.test_case "fork heals by ranged repair" `Quick
          test_relay_fork_repair;
        Alcotest.test_case "gossip catch-up from a sibling" `Quick
          test_relay_gossip_catchup;
        Alcotest.test_case "version age + metrics" `Quick
          test_relay_version_age_and_metrics ] );
    ( "distrib.soak",
      [ Alcotest.test_case "publish rounds" `Quick test_publish_rounds;
        Alcotest.test_case "chaos run passes" `Quick test_chaos_run_passes;
        Alcotest.test_case "chaos run stops at a failed check" `Quick test_chaos_run_stops;
        Alcotest.test_case "chaos sync converges" `Quick test_chaos_sync_converges;
        Alcotest.test_case "chaos sync over a lossy link" `Quick
          test_chaos_sync_converges_lossy;
        Alcotest.test_case "mini soak" `Quick test_mini_soak;
        Alcotest.test_case "relay-free refuses relay hostilities" `Quick
          test_relay_free_refuses_relay_hostilities;
        Alcotest.test_case "relay-free ignores the offload floor" `Quick
          test_relay_free_ignores_offload_floor;
        Alcotest.test_case "relay-free candidates promote" `Quick
          test_relay_free_candidates_promote;
        Alcotest.test_case "relay-free epoch flip" `Quick
          test_relay_free_epoch_flip;
        Alcotest.test_case "steady delta ratio" `Quick test_steady_delta_ratio;
        Alcotest.test_case "mini topology" `Quick test_mini_topology;
        Alcotest.test_case "mini topology report pinned" `Quick
          test_mini_topology_pinned ] ) ]
