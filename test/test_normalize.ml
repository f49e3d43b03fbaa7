(* Tests for Leakdetect_normalize: the bounded canonicalization lattice. *)

module Normalize = Leakdetect_normalize.Normalize
module Base64 = Leakdetect_util.Base64
module Hex = Leakdetect_util.Hex
module Url = Leakdetect_net.Url

let qtest = QCheck_alcotest.to_alcotest

let texts_of ?budgets ?steps s =
  let t = Normalize.create ?budgets ?steps () in
  Normalize.texts t s

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec loop i = i + n <= h && (String.sub hay i n = needle || loop (i + 1)) in
  n = 0 || loop 0

let any_view_contains ?budgets ?steps ~needle s =
  List.exists (contains ~needle) (texts_of ?budgets ?steps s)

(* --- single steps -------------------------------------------------------- *)

let test_percent_view () =
  let s = "GET /p?imei=%33%35%36%39%38%37 HTTP/1.1" in
  Alcotest.(check bool) "percent view restores" true
    (any_view_contains ~needle:"imei=356987" s)

let test_plus_form_view () =
  let s = "q=hello+world&id=%34%32" in
  Alcotest.(check bool) "form view decodes + and %XX" true
    (any_view_contains ~needle:"hello world" s);
  Alcotest.(check bool) "percent strict keeps + literal" true
    (any_view_contains ~needle:"hello+world&id=42" s)

let test_base64_run_view () =
  let secret = "imei=356938035643809&x=1" in
  let s = "POST /r\nsid=1\nv=2&d=" ^ Base64.encode secret in
  Alcotest.(check bool) "base64 run decodes in place" true
    (any_view_contains ~needle:"d=imei=356938035643809" s)

let test_base64url_run_view () =
  let secret = "aid=9774d56d682e549c!!" in
  let s = "v=2&d=" ^ Base64.encode_url secret in
  Alcotest.(check bool) "base64url run decodes in place" true
    (any_view_contains ~needle:"d=aid=9774d56d682e549c" s)

let test_hex_run_view () =
  let secret = "356938035643809" in
  let s = "id=" ^ Hex.encode secret in
  Alcotest.(check bool) "hex run decodes in place" true
    (any_view_contains ~needle:("id=" ^ secret) s)

let test_case_fold_digest_only () =
  let digest = String.uppercase_ascii "9b74c9897bac770ffc029102a200c5de" in
  let s = "GET /t?h=" ^ digest ^ " HTTP/1.1" in
  Alcotest.(check bool) "digest folded" true
    (any_view_contains ~needle:"9b74c9897bac770ffc029102a200c5de" s);
  (* Boilerplate case must survive in every view that folded the digest. *)
  List.iter
    (fun text ->
      if contains ~needle:"9b74c9897bac770ffc029102a200c5de" text then
        Alcotest.(check bool) "GET survives folding" true (contains ~needle:"GET" text))
    (texts_of s)

let test_chunked_view () =
  let body = "7\r\nimei=35\r\n8\r\n69380356\r\n5\r\n43809\r\n0\r\n" in
  let s = "POST /r HTTP/1.1\nsid=1\n" ^ body in
  Alcotest.(check bool) "chunked body reassembled" true
    (any_view_contains ~needle:"imei=356938035643809" s)

let test_layered_percent_base64 () =
  let secret = "imei=356938035643809&x=1" in
  let b64 = Base64.encode secret in
  let buf = Buffer.create 64 in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c))) b64;
  let s = "v=2&d=" ^ Buffer.contents buf in
  Alcotest.(check bool) "depth-2 percent+base64 recovered" true
    (any_view_contains ~needle:"imei=356938035643809" s)

(* --- budgets and bombs --------------------------------------------------- *)

let lattice_of ?budgets s =
  let t = Normalize.create ?budgets () in
  Normalize.lattice t s

let total_derived_bytes l =
  List.fold_left
    (fun acc (v : Normalize.view) -> acc + String.length v.Normalize.text)
    0 l.Normalize.derived

let test_depth_budget () =
  (* base64^4 of a long secret: strictly deeper than the depth-3 budget. *)
  let s = ref (String.make 64 'a') in
  for _ = 1 to 4 do
    s := Base64.encode !s
  done;
  let budgets = { Normalize.default_budgets with Normalize.max_depth = 2 } in
  let l = lattice_of ~budgets ("d=" ^ !s) in
  List.iter
    (fun (v : Normalize.view) ->
      Alcotest.(check bool) "no view deeper than budget" true
        (List.length v.Normalize.steps <= 2))
    l.Normalize.derived

let test_views_budget_fails_closed () =
  let budgets = { Normalize.default_budgets with Normalize.max_views = 2 } in
  let l = lattice_of ~budgets "a=%41%42&b=68656c6c6f20776f726c6421&c=aGVsbG8gd29ybGQhIQ" in
  Alcotest.(check bool) "at most max_views views" true
    (List.length l.Normalize.derived <= 2);
  Alcotest.(check bool) "exhaustion reported" true
    (List.exists
       (function Normalize.Views_exhausted _ -> true | _ -> false)
       l.Normalize.errors)

let test_bytes_budget_fails_closed () =
  (* A decode bomb: a big base64 blob whose every decoded view stays large.
     The byte budget must stop the lattice, keep what fits, and say so. *)
  let blob = Base64.encode (String.init 4096 (fun i -> Char.chr (32 + (i mod 90)))) in
  let budgets = { Normalize.default_budgets with Normalize.max_total_bytes = 1024 } in
  let l = lattice_of ~budgets ("d=" ^ blob) in
  Alcotest.(check bool) "derived bytes bounded" true (total_derived_bytes l <= 1024);
  Alcotest.(check bool) "byte exhaustion reported" true
    (List.exists
       (function Normalize.Bytes_exhausted _ -> true | _ -> false)
       l.Normalize.errors)

let test_view_bytes_budget () =
  let blob = Base64.encode (String.make 2048 'x') in
  let budgets = { Normalize.default_budgets with Normalize.max_view_bytes = 256 } in
  let l = lattice_of ~budgets ("d=" ^ blob) in
  List.iter
    (fun (v : Normalize.view) ->
      Alcotest.(check bool) "no oversized view" true
        (String.length v.Normalize.text <= 256))
    l.Normalize.derived;
  Alcotest.(check bool) "oversize reported" true
    (List.exists
       (function Normalize.View_too_large _ -> true | _ -> false)
       l.Normalize.errors)

let test_invalid_budgets_rejected () =
  Alcotest.check_raises "non-positive depth"
    (Invalid_argument "Normalize.create: budgets must be positive") (fun () ->
      ignore
        (Normalize.create
           ~budgets:{ Normalize.default_budgets with Normalize.max_depth = 0 }
           ()));
  Alcotest.check_raises "empty steps"
    (Invalid_argument "Normalize.create: empty step list") (fun () ->
      ignore (Normalize.create ~steps:[] ()))

let test_step_names_roundtrip () =
  List.iter
    (fun step ->
      match Normalize.step_of_name (Normalize.step_name step) with
      | Some s -> Alcotest.(check bool) "roundtrip" true (s = step)
      | None -> Alcotest.failf "step name %s does not parse" (Normalize.step_name step))
    Normalize.all_steps

(* --- properties ---------------------------------------------------------- *)

let printable = QCheck.string_of_size QCheck.Gen.(0 -- 200)

let prop_lattice_bounded =
  QCheck.Test.make ~name:"lattice respects every budget on arbitrary input"
    ~count:300 printable (fun s ->
      let l = lattice_of s in
      let b = Normalize.default_budgets in
      List.length l.Normalize.derived <= b.Normalize.max_views
      && total_derived_bytes l <= b.Normalize.max_total_bytes
      && List.for_all
           (fun (v : Normalize.view) ->
             List.length v.Normalize.steps <= b.Normalize.max_depth)
           l.Normalize.derived)

let prop_views_distinct =
  QCheck.Test.make ~name:"derived views are distinct from root and each other"
    ~count:300 printable (fun s ->
      let l = lattice_of s in
      let texts = l.Normalize.root :: List.map (fun (v : Normalize.view) -> v.Normalize.text) l.Normalize.derived in
      List.length texts = List.length (List.sort_uniq compare texts))

let prop_fixpoint_idempotent =
  (* Expanding any derived view again yields nothing not already reachable:
     a view that is a fixpoint has no derived children of its own. *)
  QCheck.Test.make ~name:"fixpoint views expand to nothing" ~count:100 printable
    (fun s ->
      let t = Normalize.create () in
      let l = Normalize.lattice t s in
      List.for_all
        (fun (v : Normalize.view) ->
          (not (Normalize.is_fixpoint t v.Normalize.text))
          || (Normalize.lattice t v.Normalize.text).Normalize.derived = [])
        l.Normalize.derived)

let prop_percent_roundtrip =
  QCheck.Test.make ~name:"percent_decode_strict inverts full escaping" ~count:300
    printable (fun s ->
      let buf = Buffer.create (String.length s * 3) in
      String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c))) s;
      Url.percent_decode_strict (Buffer.contents buf) = Some s)

let prop_lenient_passthrough =
  QCheck.Test.make ~name:"percent_decode_lenient never fails" ~count:300 printable
    (fun s ->
      let decoded, _n = Url.percent_decode_lenient s in
      String.length decoded <= String.length s)

(* --- chunk sizes that overflow an int ------------------------------------ *)

(* 0x7FFFFFFFFFFFFFFE wraps to -2 under [int_of_string "0x..."]; such a
   size once reached the splice arithmetic and raised out of the lattice. *)
let overflow_content = "POST /u HTTP/1.1\ns=1\n7FFFFFFFFFFFFFFE\r\nab\r\n0\r\n\r\n"

let test_chunked_overflow_inapplicable () =
  let l = Normalize.lattice (Normalize.create ~steps:[ Normalize.Chunked ] ()) overflow_content in
  Alcotest.(check int) "no chunked view" 0 (List.length l.Normalize.derived);
  Alcotest.(check int) "not a failed decode" 0 l.Normalize.failed_decodes;
  (* The whole lattice survives it too. *)
  ignore (Normalize.lattice (Normalize.create ()) overflow_content);
  ignore (Normalize.lattice (Normalize.create ()) "3\r\nabc\r\n3FFFFFFFFFFFFFFF\r\nab\r\n0\r\n\r\n")

let test_int_of_sub_bounds () =
  let read s = Hex.int_of_sub s ~pos:0 ~len:(String.length s) in
  Alcotest.(check int) "max_int fits" max_int (read "3FFFFFFFFFFFFFFF");
  Alcotest.(check int) "2^62 does not" (-1) (read "4000000000000000");
  Alcotest.(check int) "the wrapping size" (-1) (read "7FFFFFFFFFFFFFFE");
  Alcotest.(check int) "leading zeros" 10 (read "0000000000000000000a");
  Alcotest.(check int) "empty" (-1) (read "");
  Alcotest.(check int) "sub-range" 0xab (Hex.int_of_sub "x=ab;" ~pos:2 ~len:2)

let test_detector_survives_overflow () =
  let module Detector = Leakdetect_core.Detector in
  let module Signature = Leakdetect_core.Signature in
  let module Packet = Leakdetect_http.Packet in
  let d =
    Detector.create
      [ Signature.make ~id:0 ~mode:Signature.Conjunction ~cluster_size:1 [ "secret" ] ]
  in
  let p =
    Packet.v
      ~ip:(Option.get (Leakdetect_net.Ipv4.of_string "1.2.3.4"))
      ~port:80 ~host:"h.jp" ~request_line:"POST /u HTTP/1.1" ~cookie:"s=1"
      ~body:"7FFFFFFFFFFFFFFE\r\nab\r\n0\r\n\r\n"
  in
  Alcotest.(check bool) "no match, no exception" false
    (Option.is_some
       (Detector.first_match_with ~normalize:(Normalize.create ()) d (Detector.scratch d) p))

(* --- differential: the lattice and codecs against the original code ------ *)

let mutated_contents =
  lazy
    (let module Mutator = Leakdetect_adversary.Mutator in
     let module Packet = Leakdetect_http.Packet in
     let ds = Leakdetect_android.Workload.generate ~seed:23 ~scale:0.005 () in
     let rng = Leakdetect_util.Prng.create 23 in
     let packets = Array.map (fun (r : Leakdetect_http.Trace.record) -> r.packet) ds.records in
     Array.concat
       [ Array.map Packet.content_string packets;
         Array.of_list
           (List.concat_map
              (fun (m : Mutator.t) ->
                List.init 40 (fun _ ->
                    let p = packets.(Leakdetect_util.Prng.int rng (Array.length packets)) in
                    Packet.content_string (m.Mutator.apply rng p)))
              Mutator.all) ])

(* Inputs that blow up under repeated decoding: nested base64, percent
   escapes of escapes, long mixed runs. *)
let decode_bomb st =
  let rec nest k s = if k = 0 then s else nest (k - 1) (Base64.encode s) in
  let printable _ = Char.chr (32 + Random.State.int st 95) in
  let seed = String.init (8 + Random.State.int st 24) printable in
  match Random.State.int st 4 with
  | 0 -> "d=" ^ nest (1 + Random.State.int st 5) seed
  | 1 -> "q=" ^ String.concat "" (List.init (1 + Random.State.int st 6) (fun _ -> "%25")) ^ "41"
  | 2 ->
    let param i = Printf.sprintf "p%d=%s" i (Base64.encode (Hex.encode seed)) in
    String.concat "&" (List.init (2 + Random.State.int st 8) param)
  | _ -> Base64.encode_url (String.make (64 + Random.State.int st 512) 'x')

(* Runs of each decoder's alphabet with lengths around the 16-byte run
   threshold, glued by separators: the boundaries of run splicing, case
   folding and chunk framing. *)
let boundary_runs st =
  let alphabets =
    [| "0123456789abcdef"; "0123456789ABCDEFabcdef";
       "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
       "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-_" |]
  in
  let run () =
    let a = alphabets.(Random.State.int st (Array.length alphabets)) in
    String.init (13 + Random.State.int st 7) (fun _ -> a.[Random.State.int st (String.length a)])
    ^ String.make (Random.State.int st 3) '='
  in
  let seps = [| "="; "&d="; "\n"; "\r\n"; " "; "%3D" |] in
  let piece _ = run () ^ seps.(Random.State.int st (Array.length seps)) in
  String.concat "" (List.init (1 + Random.State.int st 4) piece)

let flip st s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  if n > 0 then
    for _ = 1 to 1 + Random.State.int st 3 do
      let specials = "%=+/-_\r\n0aF;" in
      Bytes.set b (Random.State.int st n)
        (if Random.State.bool st then specials.[Random.State.int st (String.length specials)]
         else Char.chr (Random.State.int st 256))
    done;
  Bytes.to_string b

let random_budgets st =
  if Random.State.bool st then Normalize.default_budgets
  else
    { Normalize.max_depth = 1 + Random.State.int st 4;
      max_views = 1 + Random.State.int st 8;
      max_total_bytes = 16 + Random.State.int st 2048;
      max_view_bytes = 16 + Random.State.int st 1024 }

let random_steps st =
  match List.filter (fun _ -> Random.State.int st 4 > 0) Normalize.all_steps with
  | [] -> Normalize.all_steps
  | steps -> steps

let gen_lattice_case st =
  let contents = Lazy.force mutated_contents in
  let root =
    match Random.State.int st 5 with
    | 0 -> decode_bomb st
    | 1 -> flip st contents.(Random.State.int st (Array.length contents))
    | 2 -> boundary_runs st
    | _ -> contents.(Random.State.int st (Array.length contents))
  in
  (random_budgets st, random_steps st, root)

let prop_lattice_matches_oracle =
  QCheck.Test.make ~name:"lattice = per-character oracle (views, chains, errors, failed)"
    ~count:1500
    (QCheck.make ~print:(fun (_, _, root) -> Printf.sprintf "%S" root) gen_lattice_case)
    (fun (budgets, steps, root) ->
      let got = Normalize.lattice (Normalize.create ~budgets ~steps ()) root in
      (* The oracle raises on chunk sizes that overflow an int; those
         inputs, and only those, are left out. *)
      match Normalize_oracle.lattice ~budgets ~steps root with
      | exception Invalid_argument _ -> QCheck.assume_fail ()
      | want -> got = want)

(* Random strings over both base64 alphabets, padding and a few strays:
   valid encodings of either alphabet with and without padding, mixed
   alphabets, every padding length and misplaced '='. *)
let gen_b64_text st =
  let raw = String.init (Random.State.int st 24) (fun _ -> Char.chr (Random.State.int st 256)) in
  let base =
    match Random.State.int st 3 with
    | 0 -> Base64.encode raw
    | 1 -> Base64.encode_url raw
    | _ ->
      let alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/-_=.%" in
      let pick _ = alphabet.[Random.State.int st (String.length alphabet)] in
      String.init (Random.State.int st 30) pick
  in
  match Random.State.int st 4 with
  | 0 -> base ^ String.make (Random.State.int st 4) '='
  | 1 when base <> "" -> String.sub base 0 (Random.State.int st (String.length base))
  | 2 when base <> "" ->
    let b = Bytes.of_string base in
    Bytes.set b (Random.State.int st (Bytes.length b)) "+/-_=".[Random.State.int st 5];
    Bytes.to_string b
  | _ -> base

let gen_hex_text st =
  let digits = "0123456789abcdefABCDEF" in
  let s = String.init (Random.State.int st 40) (fun _ -> digits.[Random.State.int st 22]) in
  if Random.State.int st 4 = 0 && s <> "" then
    let b = Bytes.of_string s in
    Bytes.set b (Random.State.int st (Bytes.length b)) "gz %\r".[Random.State.int st 5];
    Bytes.to_string b
  else s

(* [decode_into] on the text embedded between junk, appending to a
   non-empty buffer, against the oracle's [decode] on the text alone. *)
let decode_into_agrees decode_into oracle s =
  let buf = Buffer.create 8 in
  Buffer.add_string buf "kept";
  let ok = decode_into buf ("<<" ^ s ^ ">>") ~pos:2 ~len:(String.length s) in
  match oracle s with
  | Some d -> ok && Buffer.contents buf = "kept" ^ d
  | None -> (not ok) && Buffer.contents buf = "kept"

let text_case gen = QCheck.make ~print:(Printf.sprintf "%S") gen

let prop_base64_matches_oracle =
  QCheck.Test.make ~name:"Base64.decode/decode_into = per-character oracle" ~count:2000
    (text_case gen_b64_text) (fun s ->
      Base64.decode s = Normalize_oracle.Base64.decode s
      && decode_into_agrees Base64.decode_into Normalize_oracle.Base64.decode s)

let prop_hex_matches_oracle =
  QCheck.Test.make ~name:"Hex.decode/decode_into/int_of_sub = per-character oracle" ~count:2000
    (text_case gen_hex_text) (fun s ->
      let fits =
        match int_of_string_opt ("0x" ^ s) with
        | Some v when v >= 0 && s <> "" && String.for_all Hex.is_digit s -> v
        | _ -> -1
      in
      Hex.decode s = Normalize_oracle.Hex.decode s
      && decode_into_agrees Hex.decode_into Normalize_oracle.Hex.decode s
      && Hex.int_of_sub s ~pos:0 ~len:(String.length s) = fits)

let suite =
  [
    ( "normalize.steps",
      [
        Alcotest.test_case "percent view" `Quick test_percent_view;
        Alcotest.test_case "form + decoding" `Quick test_plus_form_view;
        Alcotest.test_case "base64 run splice" `Quick test_base64_run_view;
        Alcotest.test_case "base64url run splice" `Quick test_base64url_run_view;
        Alcotest.test_case "hex run splice" `Quick test_hex_run_view;
        Alcotest.test_case "case fold digests only" `Quick test_case_fold_digest_only;
        Alcotest.test_case "chunked reassembly" `Quick test_chunked_view;
        Alcotest.test_case "percent+base64 layering" `Quick test_layered_percent_base64;
        Alcotest.test_case "step names roundtrip" `Quick test_step_names_roundtrip;
      ] );
    ( "normalize.budgets",
      [
        Alcotest.test_case "depth budget" `Quick test_depth_budget;
        Alcotest.test_case "views budget fails closed" `Quick test_views_budget_fails_closed;
        Alcotest.test_case "bytes budget fails closed" `Quick test_bytes_budget_fails_closed;
        Alcotest.test_case "view size budget" `Quick test_view_bytes_budget;
        Alcotest.test_case "invalid budgets rejected" `Quick test_invalid_budgets_rejected;
        qtest prop_lattice_bounded;
        qtest prop_views_distinct;
        qtest prop_fixpoint_idempotent;
        qtest prop_percent_roundtrip;
        qtest prop_lenient_passthrough;
      ] );
    ( "normalize.differential",
      [
        Alcotest.test_case "chunk size overflowing int" `Quick test_chunked_overflow_inapplicable;
        Alcotest.test_case "int_of_sub bounds" `Quick test_int_of_sub_bounds;
        Alcotest.test_case "detector survives overflowing chunk" `Quick
          test_detector_survives_overflow;
        qtest prop_lattice_matches_oracle;
        qtest prop_base64_matches_oracle;
        qtest prop_hex_matches_oracle;
      ] );
  ]
