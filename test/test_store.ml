(* Tests for the durable-storage primitives (Leakdetect_store): WAL
   framing and salvage, snapshot atomicity, crash-point sweeps and the
   qcheck never-an-unwritten-record property.  Recovery of journaled state
   built on them is tested with the authority, in test_distrib. *)

module Crc32 = Leakdetect_util.Crc32
module Fault = Leakdetect_fault.Fault
module Wal = Leakdetect_store.Wal
module Snapshot = Leakdetect_store.Snapshot

let qtest = QCheck_alcotest.to_alcotest

(* --- scratch directories --- *)

let fresh_dir () =
  let f = Filename.temp_file "ld_store_test" "" in
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

let slurp path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let spit path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* --- WAL --- *)

let test_wal_roundtrip () =
  with_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let payloads = [ "alpha"; ""; "beta\ngamma"; String.make 300 '\x00' ] in
      let w = Wal.create path in
      List.iter (Wal.append w) payloads;
      let size = Wal.size w in
      Wal.close w;
      Alcotest.(check int) "size tracks file" size
        (String.length (slurp path));
      match Wal.read path with
      | Error e -> Alcotest.fail e
      | Ok (got, tail) ->
        Alcotest.(check (list string)) "payloads back" payloads got;
        Alcotest.(check string) "clean tail" "clean" (Wal.tail_to_string tail))

let test_wal_open_append_extends () =
  with_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let w = Wal.create path in
      Wal.append w "one";
      Wal.close w;
      (match Wal.open_append path with
      | Error e -> Alcotest.fail e
      | Ok w ->
        Wal.append w "two";
        Wal.close w);
      match Wal.read path with
      | Error e -> Alcotest.fail e
      | Ok (got, _) ->
        Alcotest.(check (list string)) "both records" [ "one"; "two" ] got)

(* Every possible crash point of a small log: salvage must be exactly the
   records whose frames fit inside the cut, and the tail must be clean
   exactly on record boundaries. *)
let test_wal_crash_point_sweep () =
  let payloads = [ "a"; "bb"; "ccc"; ""; "dddd" ] in
  let image =
    Wal.magic ^ String.concat "" (List.map Wal.frame payloads)
  in
  let boundaries =
    (* Byte offset at which each record ends, in order. *)
    let off = ref (String.length Wal.magic) in
    List.map
      (fun p ->
        off := !off + String.length (Wal.frame p);
        !off)
      payloads
  in
  for cut = 0 to String.length image do
    let prefix = String.sub image 0 cut in
    match Wal.read_string prefix with
    | Error e -> Alcotest.failf "cut %d: %s" cut e
    | Ok (got, tail) ->
      let expected =
        List.filteri (fun i _ -> List.nth boundaries i <= cut) payloads
      in
      Alcotest.(check (list string))
        (Printf.sprintf "cut %d salvages committed prefix" cut)
        expected got;
      let on_boundary =
        cut = String.length Wal.magic || List.mem cut boundaries
      in
      Alcotest.(check bool)
        (Printf.sprintf "cut %d tail cleanliness" cut)
        on_boundary (tail = Wal.Clean)
  done

let test_wal_bitflip_truncates () =
  let payloads = [ "first"; "second"; "third" ] in
  let image = Wal.magic ^ String.concat "" (List.map Wal.frame payloads) in
  (* Flip a bit inside the second record's payload. *)
  let second_off = String.length Wal.magic + String.length (Wal.frame "first") in
  let b = Bytes.of_string image in
  let i = second_off + 8 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  match Wal.read_string (Bytes.to_string b) with
  | Error e -> Alcotest.fail e
  | Ok (got, tail) ->
    Alcotest.(check (list string)) "only the intact prefix" [ "first" ] got;
    (match tail with
    | Wal.Torn { offset; _ } ->
      Alcotest.(check int) "torn at the damaged record" second_off offset
    | Wal.Clean -> Alcotest.fail "bit flip must tear the tail")

let test_wal_implausible_length () =
  let image = Wal.magic ^ Wal.frame "ok" in
  let bogus = Bytes.make 8 '\xff' in
  match Wal.read_string (image ^ Bytes.to_string bogus) with
  | Error e -> Alcotest.fail e
  | Ok (got, tail) ->
    Alcotest.(check (list string)) "prefix kept" [ "ok" ] got;
    (match tail with
    | Wal.Torn { reason; _ } ->
      Alcotest.(check bool) "length flagged" true
        (String.length reason > 0)
    | Wal.Clean -> Alcotest.fail "implausible length must tear")

let test_wal_truncated_header () =
  (match Wal.read_string (String.sub Wal.magic 0 3) with
  | Ok ([], Wal.Torn { offset = 0; _ }) -> ()
  | Ok _ -> Alcotest.fail "truncated header must salvage the empty log"
  | Error e -> Alcotest.failf "truncated header must not be fatal: %s" e);
  match Wal.read_string "NOTALOG!" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong magic must be fatal"

let test_wal_repair_then_append () =
  with_dir (fun dir ->
      let path = Filename.concat dir "wal.log" in
      let image =
        Wal.magic ^ Wal.frame "keep1" ^ Wal.frame "keep2"
        ^ String.sub (Wal.frame "lost") 0 5
      in
      spit path image;
      (match Wal.repair path with
      | Ok (Wal.Torn _) -> ()
      | Ok Wal.Clean -> Alcotest.fail "repair must report the torn tail"
      | Error e -> Alcotest.fail e);
      (* Idempotent: a second repair finds nothing to cut. *)
      (match Wal.repair path with
      | Ok Wal.Clean -> ()
      | Ok (Wal.Torn _) -> Alcotest.fail "second repair must be clean"
      | Error e -> Alcotest.fail e);
      (match Wal.open_append path with
      | Error e -> Alcotest.fail e
      | Ok w ->
        Wal.append w "after";
        Wal.close w);
      match Wal.read path with
      | Error e -> Alcotest.fail e
      | Ok (got, tail) ->
        Alcotest.(check (list string))
          "clean prefix survives, appends extend it"
          [ "keep1"; "keep2"; "after" ] got;
        Alcotest.(check bool) "clean" true (tail = Wal.Clean))

(* --- snapshot --- *)

let test_snapshot_roundtrip () =
  with_dir (fun dir ->
      let path = Filename.concat dir "snapshot" in
      (match Snapshot.read path with
      | Ok None -> ()
      | _ -> Alcotest.fail "absent snapshot reads as None");
      Snapshot.write path "hello snapshot";
      (match Snapshot.read path with
      | Ok (Some p) -> Alcotest.(check string) "payload back" "hello snapshot" p
      | _ -> Alcotest.fail "snapshot must read back");
      (* Overwrite is atomic-by-rename; the new payload replaces the old. *)
      Snapshot.write path "v2";
      (match Snapshot.read path with
      | Ok (Some p) -> Alcotest.(check string) "replaced" "v2" p
      | _ -> Alcotest.fail "second snapshot must read back");
      Alcotest.(check bool) "no temp file left" false
        (Sys.file_exists (path ^ ".tmp")))

let test_snapshot_corruption_detected () =
  with_dir (fun dir ->
      let path = Filename.concat dir "snapshot" in
      Snapshot.write path "payload to damage";
      let image = slurp path in
      let b = Bytes.of_string image in
      let i = String.length image - 1 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
      spit path (Bytes.to_string b);
      (match Snapshot.read path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "flipped byte must fail the checksum");
      spit path (String.sub image 0 10);
      (match Snapshot.read path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "truncated snapshot must be an error");
      spit path "XXXXXXXX";
      match Snapshot.read path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "bad header must be an error")

(* --- properties --- *)

(* Crash at any offset never yields a record that was not written, and
   what it does yield is a prefix of the append sequence. *)
let prop_crash_salvages_prefix =
  QCheck.Test.make ~name:"crash salvage is a prefix of written records"
    ~count:300
    QCheck.(
      pair
        (small_list (string_of_size Gen.(0 -- 40)))
        (float_bound_inclusive 1.0))
    (fun (payloads, cut_frac) ->
      let image =
        Wal.magic ^ String.concat "" (List.map Wal.frame payloads)
      in
      let cut =
        int_of_float (cut_frac *. float_of_int (String.length image))
      in
      match Wal.read_string (String.sub image 0 cut) with
      | Error _ -> false
      | Ok (got, _) ->
        let rec is_prefix got written =
          match (got, written) with
          | [], _ -> true
          | g :: gs, w :: ws -> g = w && is_prefix gs ws
          | _ :: _, [] -> false
        in
        is_prefix got payloads)

(* Rate-0 fault plans are strict identities on log bytes. *)
let prop_rate0_log_identity =
  QCheck.Test.make ~name:"rate-0 plan never touches log bytes" ~count:200
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun s ->
      let plan = Fault.create ~seed:11 Fault.none in
      Fault.torn_write plan ~protect:8 ~tail_start:(String.length s / 2) s = s
      && Fault.crash_point plan ~len:(String.length s) = None
      && Fault.total plan = 0)

let suite =
  [ ( "store.wal",
      [ Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
        Alcotest.test_case "open_append extends" `Quick
          test_wal_open_append_extends;
        Alcotest.test_case "crash-point sweep" `Quick test_wal_crash_point_sweep;
        Alcotest.test_case "bit flip truncates" `Quick test_wal_bitflip_truncates;
        Alcotest.test_case "implausible length" `Quick
          test_wal_implausible_length;
        Alcotest.test_case "truncated header" `Quick test_wal_truncated_header;
        Alcotest.test_case "repair then append" `Quick
          test_wal_repair_then_append;
        qtest prop_crash_salvages_prefix;
        qtest prop_rate0_log_identity ] );
    ( "store.snapshot",
      [ Alcotest.test_case "roundtrip" `Quick test_snapshot_roundtrip;
        Alcotest.test_case "corruption detected" `Quick
          test_snapshot_corruption_detected ] ) ]
