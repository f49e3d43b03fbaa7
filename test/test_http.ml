(* Tests for Leakdetect_http: headers, cookies, requests, wire codec,
   packets, trace serialization. *)

open Leakdetect_http

let qtest = QCheck_alcotest.to_alcotest

(* --- Headers --- *)

let test_headers_case_insensitive () =
  let h = Headers.of_list [ ("Host", "a.example"); ("Cookie", "k=v") ] in
  Alcotest.(check (option string)) "exact" (Some "a.example") (Headers.get h "Host");
  Alcotest.(check (option string)) "lower" (Some "a.example") (Headers.get h "host");
  Alcotest.(check (option string)) "upper" (Some "k=v") (Headers.get h "COOKIE");
  Alcotest.(check bool) "mem" true (Headers.mem h "hOsT");
  Alcotest.(check (option string)) "absent" None (Headers.get h "Accept")

let test_headers_order_preserved () =
  let h = Headers.empty in
  let h = Headers.add h "B" "2" in
  let h = Headers.add h "A" "1" in
  Alcotest.(check (list (pair string string))) "insertion order"
    [ ("B", "2"); ("A", "1") ]
    (Headers.to_list h)

let test_headers_replace_remove () =
  let h = Headers.of_list [ ("X", "1"); ("Y", "2"); ("x", "3") ] in
  let r = Headers.replace h "x" "9" in
  Alcotest.(check (list string)) "replace collapses duplicates" [ "9" ]
    (List.filter_map
       (fun (n, v) -> if String.lowercase_ascii n = "x" then Some v else None)
       (Headers.to_list r));
  let d = Headers.remove h "X" in
  Alcotest.(check int) "remove drops all spellings" 1 (List.length (Headers.to_list d));
  let added = Headers.replace Headers.empty "New" "v" in
  Alcotest.(check (option string)) "replace on absent adds" (Some "v") (Headers.get added "new")

(* --- Cookie --- *)

let test_cookie_to_string () =
  Alcotest.(check string) "pairs" "session=abc123; uid=42"
    (Cookie.to_string [ ("session", "abc123"); ("uid", "42") ]);
  Alcotest.(check string) "flag without value" "secure" (Cookie.to_string [ ("secure", "") ])

let test_cookie_jar_order () =
  Alcotest.(check string) "empty jar" "" (Cookie.to_string []);
  Alcotest.(check string) "order and duplicates kept" "b=2; a=1; flag; b=3"
    (Cookie.to_string [ ("b", "2"); ("a", "1"); ("flag", ""); ("b", "3") ])

(* --- Request + Wire --- *)

let sample_request () =
  Request.make
    ~headers:(Headers.of_list [ ("Host", "r.admob.com"); ("Cookie", "s=1") ])
    ~body:"" Request.GET "/ad?x=1&y=2"

let test_request_accessors () =
  let r = sample_request () in
  Alcotest.(check string) "request line" "GET /ad?x=1&y=2 HTTP/1.1" (Request.request_line r);
  Alcotest.(check string) "cookie" "s=1" (Request.cookie r);
  Alcotest.(check (option string)) "host" (Some "r.admob.com")
    (Headers.get r.Request.headers "Host")

let test_wire_print () =
  let out = Wire.print (sample_request ()) in
  Alcotest.(check bool) "request line first" true
    (String.length out > 24 && String.sub out 0 24 = "GET /ad?x=1&y=2 HTTP/1.1");
  Alcotest.(check bool) "blank line" true
    (Leakdetect_text.Search.contains ~needle:"\r\n\r\n" out)

let test_wire_content_length () =
  let r = Request.make ~body:"a=1" Request.POST "/submit" in
  let out = Wire.print r in
  Alcotest.(check bool) "adds content-length" true
    (Leakdetect_text.Search.contains ~needle:"Content-Length: 3" out)

let test_wire_parse_roundtrip () =
  let r =
    Request.make
      ~headers:(Headers.of_list [ ("Host", "x.jp"); ("User-Agent", "t/1.0") ])
      ~body:"k=v&l=w" Request.POST "/path"
  in
  match Wire.parse (Wire.print r) with
  | Error e -> Alcotest.failf "parse failed: %s" (Wire.error_to_string e)
  | Ok parsed ->
    Alcotest.(check string) "method+target" (Request.request_line r) (Request.request_line parsed);
    Alcotest.(check string) "body" r.Request.body parsed.Request.body;
    Alcotest.(check (option string)) "host kept" (Some "x.jp")
      (Headers.get parsed.Request.headers "Host")

let test_wire_parse_errors () =
  let is_err s = match Wire.parse s with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "empty" true (is_err "");
  Alcotest.(check bool) "bad method" true (is_err "PUT / HTTP/1.1\r\n\r\n");
  Alcotest.(check bool) "bad request line" true (is_err "GEThello\r\n\r\n");
  Alcotest.(check bool) "bad header" true (is_err "GET / HTTP/1.1\r\nnocolon\r\n\r\n")

let test_wire_parse_body_with_separator () =
  (* A body containing CRLFCRLF must survive. *)
  let r = Request.make ~body:"x\r\n\r\ny" Request.POST "/p" in
  match Wire.parse (Wire.print r) with
  | Ok parsed -> Alcotest.(check string) "body intact" "x\r\n\r\ny" parsed.Request.body
  | Error e -> Alcotest.failf "parse failed: %s" (Wire.error_to_string e)

let chunked_raw ?(te = "chunked") body =
  "POST /upload HTTP/1.1\r\nHost: x.jp\r\nTransfer-Encoding: " ^ te ^ "\r\n\r\n"
  ^ body

let test_wire_chunked_reassembly () =
  let raw = chunked_raw "5\r\nhello\r\n6;ext=1\r\n world\r\n0\r\n\r\n" in
  match Wire.parse raw with
  | Error e -> Alcotest.failf "parse failed: %s" (Wire.error_to_string e)
  | Ok parsed ->
    Alcotest.(check string) "body reassembled" "hello world" parsed.Request.body;
    Alcotest.(check (option string)) "transfer-encoding consumed" None
      (Headers.get parsed.Request.headers "Transfer-Encoding");
    Alcotest.(check (option string)) "content-length rewritten" (Some "11")
      (Headers.get parsed.Request.headers "Content-Length")

let test_wire_chunked_trailers_ignored () =
  let raw = chunked_raw "3\r\nabc\r\n0\r\nX-Trailer: 1\r\n\r\n" in
  match Wire.parse raw with
  | Error e -> Alcotest.failf "parse failed: %s" (Wire.error_to_string e)
  | Ok parsed -> Alcotest.(check string) "body" "abc" parsed.Request.body

let test_wire_chunked_last_coding_only () =
  (* Transfer-Encoding: gzip means the body is not chunk-framed; it must
     pass through untouched. *)
  let raw = chunked_raw ~te:"gzip" "not-chunks" in
  match Wire.parse raw with
  | Error e -> Alcotest.failf "parse failed: %s" (Wire.error_to_string e)
  | Ok parsed ->
    Alcotest.(check string) "body untouched" "not-chunks" parsed.Request.body;
    Alcotest.(check (option string)) "header kept" (Some "gzip")
      (Headers.get parsed.Request.headers "Transfer-Encoding")

let test_wire_chunked_malformed () =
  let is_syntax s =
    match Wire.parse s with Error (Wire.Syntax _) -> true | _ -> false
  in
  Alcotest.(check bool) "bad chunk-size line" true
    (is_syntax (chunked_raw "zz\r\nhello\r\n0\r\n\r\n"));
  Alcotest.(check bool) "truncated chunk data" true
    (is_syntax (chunked_raw "5\r\nhel"));
  Alcotest.(check bool) "missing terminator" true
    (is_syntax (chunked_raw "3\r\nabcXX0\r\n\r\n"));
  Alcotest.(check bool) "no final chunk" true (is_syntax (chunked_raw "3\r\nabc\r\n"))

let test_wire_chunked_max_body () =
  (* The limit binds the reassembled body, not the framed wire form: four
     5-byte chunks decode to 20 bytes against a 16-byte budget, even though
     any single chunk fits. *)
  let limits = { Wire.default_limits with Wire.max_body = 16 } in
  let body =
    String.concat "" (List.init 4 (fun _ -> "5\r\naaaaa\r\n")) ^ "0\r\n\r\n"
  in
  (match Wire.parse ~limits (chunked_raw body) with
  | Error (Wire.Body_too_large n) ->
    Alcotest.(check bool) "reports decoded size" true (n > 16)
  | Ok _ | Error _ -> Alcotest.fail "expected Body_too_large");
  (* A lying chunk size must not bypass the budget either. *)
  match Wire.parse ~limits (chunked_raw "ffffff\r\nshort\r\n0\r\n\r\n") with
  | Error (Wire.Body_too_large _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Body_too_large for huge declared size"

(* RFC 7230 §3.2.2: repeated fields combine in order, so a coding list
   split over several lines frames the body by its last coding, as the
   same list on one line does. *)
let framed = "5\r\nhello\r\n0\r\n\r\n"

let te_lines codings =
  "POST /upload HTTP/1.1\r\nHost: x.jp\r\n"
  ^ String.concat "" (List.map (fun c -> "Transfer-Encoding: " ^ c ^ "\r\n") codings)
  ^ "\r\n" ^ framed

let transfer_encodings (r : Request.t) =
  List.filter_map
    (fun (n, v) -> if String.lowercase_ascii n = "transfer-encoding" then Some v else None)
    (Headers.to_list r.Request.headers)

let parsed_ok raw =
  match Wire.parse raw with
  | Ok r -> r
  | Error e -> Alcotest.failf "parse failed: %s" (Wire.error_to_string e)

let test_wire_te_lines_chunked_then_gzip () =
  let r = parsed_ok (te_lines [ "chunked"; "gzip" ]) in
  Alcotest.(check string) "framed body kept" framed r.Request.body;
  Alcotest.(check (list string)) "both lines kept" [ "chunked"; "gzip" ] (transfer_encodings r)

let test_wire_te_list_chunked_gzip () =
  let r = parsed_ok (te_lines [ "chunked, gzip" ]) in
  Alcotest.(check string) "framed body kept" framed r.Request.body;
  Alcotest.(check (list string)) "line kept" [ "chunked, gzip" ] (transfer_encodings r)

let test_wire_te_lines_gzip_then_chunked () =
  let r = parsed_ok (te_lines [ "gzip"; "chunked" ]) in
  Alcotest.(check string) "de-chunked" "hello" r.Request.body;
  Alcotest.(check (list string)) "both lines consumed" [] (transfer_encodings r);
  Alcotest.(check (option string)) "content-length" (Some "5")
    (Headers.get r.Request.headers "Content-Length")

(* --- Packet --- *)

let sample_packet () =
  Packet.v
    ~ip:(Option.get (Leakdetect_net.Ipv4.of_string "74.125.1.2"))
    ~port:80 ~host:"r.admob.com" ~request_line:"GET /ad HTTP/1.1" ~cookie:"s=1"
    ~body:""

let test_packet_content_string () =
  let p = sample_packet () in
  Alcotest.(check string) "joined with newlines" "GET /ad HTTP/1.1\ns=1\n"
    (Packet.content_string p)

let test_packet_make_from_request () =
  let dst =
    { Packet.ip = Option.get (Leakdetect_net.Ipv4.of_string "1.2.3.4"); port = 80; host = "h.jp" }
  in
  let p = Packet.make ~dst ~request:(sample_request ()) in
  Alcotest.(check string) "request line" "GET /ad?x=1&y=2 HTTP/1.1"
    p.Packet.content.Packet.request_line;
  Alcotest.(check string) "cookie pulled from headers" "s=1" p.Packet.content.Packet.cookie

(* --- Trace --- *)

let test_trace_escape_roundtrip () =
  let tricky = "a\tb\nc\\d\re" in
  Alcotest.(check (option string)) "roundtrip" (Some tricky)
    (Trace.unescape_field (Trace.escape_field tricky))

let prop_trace_line_roundtrip =
  let field_gen = QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (0 -- 40)) in
  QCheck.Test.make ~name:"trace record line roundtrip" ~count:300
    (QCheck.make QCheck.Gen.(triple field_gen field_gen (int_bound 5000)))
    (fun (rline, body, app_id) ->
      let record =
        {
          Trace.packet =
            Packet.v
              ~ip:(Leakdetect_net.Ipv4.of_int 12345)
              ~port:80 ~host:"h.example.jp" ~request_line:rline ~cookie:"c=1"
              ~body;
          app_id;
          labels = [ "imei"; "carrier" ];
        }
      in
      match Trace.record_of_line (Trace.record_to_line record) with
      | Ok r ->
        r.Trace.app_id = record.Trace.app_id
        && r.Trace.labels = record.Trace.labels
        && Packet.content_string r.Trace.packet = Packet.content_string record.Trace.packet
      | Error _ -> false)

let test_trace_bad_lines () =
  let is_err l = match Trace.record_of_line l with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "wrong arity" true (is_err "a\tb");
  Alcotest.(check bool) "bad ip" true (is_err "1\tnotip\t80\th\trl\tc\tb\t");
  Alcotest.(check bool) "bad port" true (is_err "1\t1.2.3.4\tx\th\trl\tc\tb\t");
  Alcotest.(check bool) "bad app id" true (is_err "x\t1.2.3.4\t80\th\trl\tc\tb\t")

let test_trace_save_load () =
  let records =
    List.init 5 (fun i ->
        {
          Trace.packet =
            Packet.v ~ip:(Leakdetect_net.Ipv4.of_int (i * 1000)) ~port:80
              ~host:(Printf.sprintf "h%d.jp" i)
              ~request_line:(Printf.sprintf "GET /%d HTTP/1.1" i)
              ~cookie:"" ~body:(if i mod 2 = 0 then "x\ty" else "");
          app_id = i;
          labels = (if i = 0 then [ "imei" ] else []);
        })
  in
  let path = Filename.temp_file "leakdetect_test" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save path records;
      match Trace.load path with
      | Error e -> Alcotest.failf "load failed: %s" e
      | Ok (loaded, _) ->
        Alcotest.(check int) "count" 5 (List.length loaded);
        List.iter2
          (fun a b ->
            Alcotest.(check string) "content"
              (Packet.content_string a.Trace.packet)
              (Packet.content_string b.Trace.packet);
            Alcotest.(check (list string)) "labels" a.Trace.labels b.Trace.labels)
          records loaded)

(* --- Trace_binary --- *)

let sample_records () =
  List.init 7 (fun i ->
      {
        Trace.packet =
          Packet.v ~ip:(Leakdetect_net.Ipv4.of_int (i * 99991)) ~port:(80 + i)
            ~host:(Printf.sprintf "h%d.example.jp" i)
            ~request_line:(Printf.sprintf "GET /p/%d?x=%d HTTP/1.1" i (i * i))
            ~cookie:(if i mod 2 = 0 then Printf.sprintf "s=%d" i else "")
            ~body:(if i mod 3 = 0 then String.make i '\xff' else "");
        app_id = i * 13;
        labels = (if i = 2 then [ "imei"; "carrier" ] else []);
      })

let test_binary_roundtrip () =
  let records = sample_records () in
  match Trace_binary.decode (Trace_binary.encode records) with
  | Error e -> Alcotest.failf "decode: %s" e
  | Ok (loaded, _) ->
    Alcotest.(check int) "count" (List.length records) (List.length loaded);
    List.iter2
      (fun a b ->
        Alcotest.(check int) "app id" a.Trace.app_id b.Trace.app_id;
        Alcotest.(check (list string)) "labels" a.Trace.labels b.Trace.labels;
        Alcotest.(check string) "content"
          (Packet.content_string a.Trace.packet)
          (Packet.content_string b.Trace.packet);
        Alcotest.(check int) "port" a.Trace.packet.Packet.dst.Packet.port
          b.Trace.packet.Packet.dst.Packet.port)
      records loaded

let test_binary_file_roundtrip () =
  let records = sample_records () in
  let path = Filename.temp_file "leakdetect_bin" ".ldtb" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_binary.save path records;
      match Trace_binary.load path with
      | Error e -> Alcotest.failf "load: %s" e
      | Ok (loaded, _) -> Alcotest.(check int) "count" 7 (List.length loaded))

let test_binary_corruption () =
  let encoded = Trace_binary.encode (sample_records ()) in
  let is_err s = match Trace_binary.decode s with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "truncated" true
    (is_err (String.sub encoded 0 (String.length encoded - 3)));
  Alcotest.(check bool) "bad magic" true (is_err ("XXXX" ^ String.sub encoded 4 (String.length encoded - 4)));
  Alcotest.(check bool) "trailing garbage" true (is_err (encoded ^ "z"));
  Alcotest.(check bool) "empty" true (is_err "")

let test_binary_empty_list () =
  match Trace_binary.decode (Trace_binary.encode []) with
  | Ok ([], _) -> ()
  | Ok _ -> Alcotest.fail "expected empty"
  | Error e -> Alcotest.failf "decode: %s" e

let prop_binary_roundtrip =
  let field = QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (0 -- 30)) in
  QCheck.Test.make ~name:"binary trace roundtrip (arbitrary bytes)" ~count:200
    (QCheck.make QCheck.Gen.(triple field field (int_bound 100000)))
    (fun (host_raw, body, app_id) ->
      let record =
        {
          Trace.packet =
            Packet.v ~ip:(Leakdetect_net.Ipv4.of_int 77) ~port:80
              ~host:host_raw ~request_line:"GET / HTTP/1.1" ~cookie:"" ~body;
          app_id;
          labels = [ "imsi" ];
        }
      in
      match Trace_binary.decode (Trace_binary.encode [ record ]) with
      | Ok ([ r ], _) ->
        r.Trace.app_id = app_id
        && Packet.content_string r.Trace.packet = Packet.content_string record.Trace.packet
        && r.Trace.packet.Packet.dst.Packet.host = host_raw
      | _ -> false)

let test_trace_fold_streaming () =
  let records =
    List.init 10 (fun i ->
        {
          Trace.packet =
            Packet.v ~ip:(Leakdetect_net.Ipv4.of_int i) ~port:80 ~host:"h.jp"
              ~request_line:"GET / HTTP/1.1" ~cookie:"" ~body:"";
          app_id = i;
          labels = (if i mod 2 = 0 then [ "imei" ] else []);
        })
  in
  let path = Filename.temp_file "leakdetect_fold" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save path records;
      (match Trace.fold path ~init:0 ~f:(fun acc r -> acc + r.Trace.app_id) with
      | Ok (sum, skips) ->
        Alcotest.(check int) "fold sums app ids" 45 sum;
        Alcotest.(check int) "nothing skipped" 0 skips.Trace.skipped
      | Error e -> Alcotest.failf "fold: %s" e))

let test_trace_fold_stops_on_error () =
  let path = Filename.temp_file "leakdetect_foldbad" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "not a record\n";
      close_out oc;
      match Trace.fold path ~init:0 ~f:(fun acc _ -> acc + 1) with
      | Ok _ -> Alcotest.fail "expected error"
      | Error e ->
        Alcotest.(check bool) "line number reported" true
          (Leakdetect_text.Search.contains ~needle:"line 1" e))

(* A path where no file is. *)
let missing_path () =
  let path = Filename.temp_file "leakdetect_missing" ".trace" in
  Sys.remove path;
  path

let test_trace_unreadable_file () =
  let path = missing_path () in
  Alcotest.(check bool) "missing file: load is an Error" true (Result.is_error (Trace.load path));
  Alcotest.(check bool) "missing file: fold is an Error" true
    (Result.is_error (Trace.fold path ~init:0 ~f:(fun n _ -> n + 1)));
  Alcotest.(check bool) "directory: load is an Error" true
    (Result.is_error (Trace.load (Filename.get_temp_dir_name ())))

let test_binary_missing_file () =
  Alcotest.(check bool) "missing file is an Error" true
    (Result.is_error (Trace_binary.load (missing_path ())))

(* --- Response --- *)

let test_response_print_parse () =
  let r =
    Response.make
      ~headers:(Headers.of_list [ ("X-Signature-Version", "3") ])
      ~body:"0\tconjunction\t2\ttok" 200
  in
  Alcotest.(check string) "status line" "HTTP/1.1 200 OK" (Response.status_line r);
  match Response.parse (Response.print r) with
  | Error e -> Alcotest.failf "parse: %s" (Wire.error_to_string e)
  | Ok parsed ->
    Alcotest.(check int) "status" 200 parsed.Response.status;
    Alcotest.(check (option string)) "header kept" (Some "3")
      (Headers.get parsed.Response.headers "x-signature-version");
    Alcotest.(check string) "body" r.Response.body parsed.Response.body;
    Alcotest.(check bool) "content-length added" true
      (Headers.mem parsed.Response.headers "Content-Length")

let test_response_reasons () =
  Alcotest.(check string) "304" "Not Modified" (Response.reason_for 304);
  Alcotest.(check string) "unknown" "Unknown" (Response.reason_for 299)

let test_response_parse_errors () =
  let is_err s = match Response.parse s with Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "empty" true (is_err "");
  Alcotest.(check bool) "bad code" true (is_err "HTTP/1.1 abc OK\r\n\r\n");
  Alcotest.(check bool) "bad header" true (is_err "HTTP/1.1 200 OK\r\nnocolon\r\n\r\n")

(* --- Chunk sizes that overflow an int --- *)

(* 0x7FFFFFFFFFFFFFFE is 2^63 - 2: [int_of_string "0x..."] wraps it to -2,
   which once reached the chunk arithmetic and crashed or misframed. *)
let overflow_size = "7FFFFFFFFFFFFFFE"

let test_wire_chunked_overflow () =
  let expect_syntax what raw =
    match Wire.parse raw with
    | Error (Wire.Syntax m) ->
      Alcotest.(check string) what
        (Printf.sprintf "chunked: bad chunk-size line %S" overflow_size) m
    | Ok _ -> Alcotest.failf "%s: parsed" what
    | Error e -> Alcotest.failf "%s: %s" what (Wire.error_to_string e)
  in
  expect_syntax "first chunk" (chunked_raw (overflow_size ^ "\r\nab\r\n0\r\n\r\n"));
  expect_syntax "after a chunk"
    (chunked_raw ("3\r\nabc\r\n" ^ overflow_size ^ "\r\nab\r\n0\r\n\r\n"));
  (* [max_int] itself fits, and is far above any budget. *)
  match Wire.parse (chunked_raw "3\r\nabc\r\n3FFFFFFFFFFFFFFF\r\nab\r\n0\r\n\r\n") with
  | Error (Wire.Body_too_large n) -> Alcotest.(check int) "saturated size" max_int n
  | Ok _ | Error _ -> Alcotest.fail "expected Body_too_large for a max_int chunk"

(* --- Differential fuzz of the framing ------------------------------------ *)

(* Printed workload traffic, as the handset intercepts it: each packet's
   request line, Host and Cookie, and body. *)
let workload_requests =
  lazy
    (let ds = Leakdetect_android.Workload.generate ~seed:19 ~scale:0.005 () in
     Array.of_list
       (List.filter_map
          (fun (r : Trace.record) ->
            let c = r.Trace.packet.Packet.content in
            match String.split_on_char ' ' c.Packet.request_line with
            | [ meth; target; version ] ->
              Some (meth, target, version, r.Trace.packet.Packet.dst.Packet.host, c.Packet.cookie,
                    c.Packet.body)
            | _ -> None)
          (Array.to_list ds.Leakdetect_android.Workload.records)))

let random_case st s =
  String.map
    (fun c -> if Random.State.bool st then Char.uppercase_ascii c else Char.lowercase_ascii c)
    s

let hex_size st n =
  let digits = Printf.sprintf (if Random.State.bool st then "%x" else "%X") n in
  let zeros = if Random.State.int st 6 = 0 then String.make (1 + Random.State.int st 3) '0' else "" in
  let ext = if Random.State.int st 5 = 0 then ";ext=1" else "" in
  let pad = if Random.State.int st 8 = 0 then " " else "" in
  pad ^ zeros ^ digits ^ pad ^ ext

(* A chunk-framed body: random chunk sizes, and now and then a size line
   that lies, is too long for an int, or is not hex at all. *)
let chunk_frame st body =
  let buf = Buffer.create (String.length body + 64) in
  let n = String.length body in
  let pos = ref 0 in
  while !pos < n do
    let len = 1 + Random.State.int st (n - !pos) in
    (match Random.State.int st 24 with
    | 0 -> Buffer.add_string buf (hex_size st (len + 1 + Random.State.int st 3))
    | 1 -> Buffer.add_string buf "fffffff"
    | 2 -> Buffer.add_string buf "10000000000000000"
    | 3 -> Buffer.add_string buf "zz"
    | _ -> Buffer.add_string buf (hex_size st len));
    Buffer.add_string buf "\r\n";
    Buffer.add_string buf (String.sub body !pos len);
    Buffer.add_string buf "\r\n";
    pos := !pos + len
  done;
  Buffer.add_string buf "0\r\n";
  if Random.State.int st 4 = 0 then Buffer.add_string buf "X-Trailer: 1\r\n";
  Buffer.add_string buf "\r\n";
  Buffer.contents buf

let flip_bytes st raw =
  let b = Bytes.of_string raw in
  let n = Bytes.length b in
  if n > 0 then
    for _ = 1 to 1 + Random.State.int st 4 do
      let specials = "\r\n: ;=\t0aF" in
      let c =
        if Random.State.bool st then specials.[Random.State.int st (String.length specials)]
        else Char.chr (Random.State.int st 256)
      in
      Bytes.set b (Random.State.int st n) c
    done;
  Bytes.to_string b

(* Truncations, byte flips, or the message as it is. *)
let damage st raw =
  match Random.State.int st 6 with
  | 0 -> String.sub raw 0 (Random.State.int st (String.length raw + 1))
  | 1 | 2 -> flip_bytes st raw
  | _ -> raw

(* Default limits, or small ones that some messages exceed. *)
let random_limits st =
  if Random.State.int st 3 > 0 then Wire.default_limits
  else
    { Wire.max_headers = Random.State.int st 5; max_header_line = Random.State.int st 80;
      max_body = Random.State.int st 300 }

let random_headers st fields =
  let extras =
    List.filter
      (fun _ -> Random.State.int st 3 = 0)
      [ ("User-Agent", "t/1.0"); ("X-Pad", " \t spaced value \t"); ("Accept", "*/*") ]
  in
  let line (name, value) =
    random_case st name ^ ":" ^ (if Random.State.bool st then " " else "") ^ value ^ "\r\n"
  in
  String.concat "" (List.map line (fields @ extras))

let gen_request st =
  let reqs = Lazy.force workload_requests in
  let meth, target, version, host, cookie, body = reqs.(Random.State.int st (Array.length reqs)) in
  (* Most workload requests are GETs; borrow a body for half of those. *)
  let body = if body = "" && Random.State.bool st then target else body in
  let body =
    if Random.State.int st 4 = 0 then
      let i = Random.State.int st (String.length body + 1) in
      String.sub body 0 i ^ "\r\n\r\n" ^ String.sub body i (String.length body - i)
    else body
  in
  let fields = ("Host", host) :: (if cookie = "" then [] else [ ("Cookie", cookie) ]) in
  let fields, body =
    if body <> "" && Random.State.bool st then
      let te = [| "chunked"; "CHUNKED"; "gzip, chunked"; " Chunked "; "chunked, gzip" |] in
      (fields @ [ ("Transfer-Encoding", te.(Random.State.int st (Array.length te))) ],
       chunk_frame st body)
    else (fields @ [ ("Content-Length", string_of_int (String.length body)) ], body)
  in
  let raw =
    String.concat " " [ meth; target; version ] ^ "\r\n" ^ random_headers st fields ^ "\r\n" ^ body
  in
  (random_limits st, damage st raw)

let gen_response st =
  let codes = [| "200"; "404"; "abc"; ""; "0x1F"; "-5" |] in
  let reasons = [| ""; " OK"; " Not Found"; " Bad  Gateway "; " " |] in
  let status =
    "HTTP/1.1 " ^ codes.(Random.State.int st (Array.length codes))
    ^ reasons.(Random.State.int st (Array.length reasons))
  in
  let body = String.init (Random.State.int st 40) (fun _ -> "ab\r\n:".[Random.State.int st 5]) in
  let raw =
    status ^ "\r\n"
    ^ random_headers st
        [ ("X-Signature-Version", "3"); ("Content-Length", string_of_int (String.length body)) ]
    ^ "\r\n" ^ body
  in
  (random_limits st, damage st raw)

let same_outcome a b =
  match (a, b) with
  | Ok x, Ok y -> x = y
  | Error e, Error e' -> e = e' && Wire.error_to_string e = Wire.error_to_string e'
  | _ -> false

let framing_case gen = QCheck.make ~print:(fun (_, raw) -> Printf.sprintf "%S" raw) gen

let prop_wire_matches_oracle =
  QCheck.Test.make ~name:"Wire.parse = split-and-concat oracle" ~count:2000
    (framing_case gen_request) (fun (limits, raw) ->
      QCheck.assume (not (Wire_oracle.overflowing_chunk_size raw));
      QCheck.assume (not (Wire_oracle.repeated_transfer_encoding raw));
      same_outcome (Wire.parse ~limits raw) (Wire_oracle.parse ~limits raw))

let prop_response_matches_oracle =
  QCheck.Test.make ~name:"Response.parse = split-and-concat oracle" ~count:1000
    (framing_case gen_response) (fun (limits, raw) ->
      same_outcome (Response.parse ~limits raw) (Wire_oracle.parse_response ~limits raw))

(* --- The head walk's corners ------------------------------------------- *)

(* Heads built from the bytes and words the walk branches on, under small
   limits, so every stop byte, line shape and limit meets every other. *)
let structural_tokens =
  [| "\r"; "\n"; "\r\n"; "\r\n"; " "; " "; ":"; "\t"; "x"; "GET"; "POST"; "HTTP/1.1"; "200";
     "Transfer-Encoding: chunked"; "5\r\nhello\r\n"; "3;x\r\nabc\r\n"; "0\r\n\r\n" |]

let gen_structural st =
  let starts = [| ""; "GET / HTTP/1.1\r\n"; "POST /p HTTP/1.1\r\n"; "HTTP/1.1 200 OK\r\n" |] in
  let buf = Buffer.create 128 in
  Buffer.add_string buf starts.(Random.State.int st (Array.length starts));
  for _ = 1 to Random.State.int st 40 do
    Buffer.add_string buf structural_tokens.(Random.State.int st (Array.length structural_tokens))
  done;
  let limits =
    if Random.State.int st 4 = 0 then Wire.default_limits
    else
      { Wire.max_headers = Random.State.int st 5; max_header_line = Random.State.int st 30;
        max_body = Random.State.int st 40 }
  in
  (limits, Buffer.contents buf)

let prop_walk_matches_oracle =
  QCheck.Test.make ~name:"head walk = oracle on structural heads" ~count:20_000
    (framing_case gen_structural) (fun (limits, raw) ->
      same_outcome (Response.parse ~limits raw) (Wire_oracle.parse_response ~limits raw)
      && (Wire_oracle.overflowing_chunk_size raw
         || Wire_oracle.repeated_transfer_encoding raw
         || same_outcome (Wire.parse ~limits raw) (Wire_oracle.parse ~limits raw)))

let check_outcome what expected actual =
  match (expected, actual) with
  | Error e, Error e' when e = e' -> ()
  | Error e, Error e' ->
    Alcotest.failf "%s: expected %s, got %s" what (Wire.error_to_string e) (Wire.error_to_string e')
  | Error e, Ok _ -> Alcotest.failf "%s: expected %s, parsed" what (Wire.error_to_string e)
  | Ok check, Ok v -> check v
  | Ok _, Error e -> Alcotest.failf "%s: %s" what (Wire.error_to_string e)

(* Both parsers give [request] and [response] on [raw], and the oracle
   agrees with each. *)
let corner ?(limits = Wire.default_limits) raw ~request ~response =
  check_outcome (Printf.sprintf "Wire.parse %S" raw) request (Wire.parse ~limits raw);
  check_outcome (Printf.sprintf "Response.parse %S" raw) response (Response.parse ~limits raw);
  Alcotest.(check bool) (Printf.sprintf "Wire.parse %S = oracle" raw) true
    (same_outcome (Wire.parse ~limits raw) (Wire_oracle.parse ~limits raw));
  Alcotest.(check bool) (Printf.sprintf "Response.parse %S = oracle" raw) true
    (same_outcome (Response.parse ~limits raw) (Wire_oracle.parse_response ~limits raw))

let syntax fmt = Printf.ksprintf (fun m -> Error (Wire.Syntax m)) fmt
let malformed what line = syntax "malformed %s %S" what line
let unsupported meth = syntax "unsupported method %S" meth
let bad_code code = syntax "bad status code %S" code
let no_headers = Alcotest.(check (list (pair string string))) "no headers" []

let test_head_crlf_without_blank_line () =
  (* The CRLF ends the Host line and opens an empty last line, which has
     no colon. *)
  corner "GET /a HTTP/1.1\r\nHost: x\r\n" ~request:(malformed "header line" "")
    ~response:(bad_code "/a");
  corner "HTTP/1.1 200 OK\r\nHost: x\r\n" ~request:(unsupported "HTTP/1.1")
    ~response:(malformed "header line" "")

let test_head_cr_cr_lf () =
  (* The lone '\r' is an ordinary start-line byte; the CRLF after it opens
     an empty header line. *)
  corner "\r\r\n" ~request:(malformed "request line" "\r") ~response:(malformed "status line" "\r")

let test_head_blank_after_start_line () =
  let limits = { Wire.default_limits with Wire.max_headers = 0 } in
  corner ~limits "POST /a HTTP/1.1\r\n\r\nk=v"
    ~request:
      (Ok
         (fun r ->
           no_headers (Headers.to_list r.Request.headers);
           Alcotest.(check string) "body" "k=v" r.Request.body))
    ~response:(bad_code "/a");
  corner ~limits "HTTP/1.1 204 No Content\r\n\r\n"
    ~request:(malformed "request line" "HTTP/1.1 204 No Content")
    ~response:
      (Ok
         (fun r ->
           no_headers (Headers.to_list r.Response.headers);
           Alcotest.(check string) "reason" "No Content" r.Response.reason))

let test_head_three_spaces () =
  corner "GET /a HTTP/1.1 \r\n\r\n" ~request:(malformed "request line" "GET /a HTTP/1.1 ")
    ~response:(bad_code "/a");
  corner "GET  /a HTTP/1.1\r\n\r\n" ~request:(malformed "request line" "GET  /a HTTP/1.1")
    ~response:(bad_code "")

let test_head_exactly_max_headers () =
  let limits = { Wire.default_limits with Wire.max_headers = 2 } in
  corner ~limits "GET / HTTP/1.1\r\nA: 1\r\nB:2\r\n\r\n"
    ~request:
      (Ok
         (fun r ->
           Alcotest.(check (list (pair string string))) "both built" [ ("A", "1"); ("B", "2") ]
             (Headers.to_list r.Request.headers)))
    ~response:(bad_code "/");
  corner ~limits "HTTP/1.1 200 OK\r\nA: 1\r\nB:2\r\n\r\n" ~request:(unsupported "HTTP/1.1")
    ~response:(Ok ignore);
  (* One line more is counted, not built, and the count is checked before
     the extra line's missing colon. *)
  corner ~limits "HTTP/1.1 200 OK\r\nA: 1\r\nB:2\r\nnocolon\r\n\r\n"
    ~request:(unsupported "HTTP/1.1") ~response:(Error (Wire.Too_many_headers 3))

let test_head_reason_with_spaces () =
  let reason expected = Ok (fun r -> Alcotest.(check string) "reason" expected r.Response.reason) in
  corner "HTTP/1.1 502 Bad  Gateway \r\n\r\n"
    ~request:(malformed "request line" "HTTP/1.1 502 Bad  Gateway ")
    ~response:(reason "Bad  Gateway ");
  corner "HTTP/1.1 200\r\n\r\n" ~request:(malformed "request line" "HTTP/1.1 200")
    ~response:(reason "")

(* --- Allocation: no per-byte garbage in the framing ---------------------- *)

let test_walk_allocation () =
  (* A 64 KiB header block costs what it builds, never a word per byte:
     one long field costs its value copy (counted in bytes: at this size it
     goes straight to the major heap), and ten thousand short lines past
     [max_headers] are counted, not built. *)
  let allocated_bytes f =
    ignore (f ());
    let before = Gc.allocated_bytes () in
    let r = Sys.opaque_identity (f ()) in
    (r, Gc.allocated_bytes () -. before)
  in
  let value = String.make (64 * 1024) 'v' in
  let long = "GET / HTTP/1.1\r\nX-Big: " ^ value ^ "\r\n\r\n" in
  let limits = { Wire.default_limits with Wire.max_header_line = 1 lsl 20 } in
  let parsed, bytes = allocated_bytes (fun () -> Wire.parse ~limits long) in
  (match parsed with
  | Ok r ->
    Alcotest.(check (option string)) "value" (Some value) (Headers.get r.Request.headers "X-Big")
  | Error e -> Alcotest.failf "parse: %s" (Wire.error_to_string e));
  let overhead = bytes -. float_of_int (String.length value) in
  if overhead > 2048. then
    Alcotest.failf "a 64 KiB header line allocated %.0f bytes beyond its value copy" overhead;
  let lines = 64 * 1024 / 6 in
  let many =
    "GET / HTTP/1.1\r\n" ^ String.concat "" (List.init lines (fun _ -> "a: b\r\n")) ^ "\r\n"
  in
  let parsed, bytes = allocated_bytes (fun () -> Wire.parse many) in
  (match parsed with
  | Error (Wire.Too_many_headers n) -> Alcotest.(check int) "lines counted" lines n
  | Ok _ | Error _ -> Alcotest.fail "expected Too_many_headers");
  if bytes > 8192. then
    Alcotest.failf "%d header lines past max_headers allocated %.0f bytes" lines bytes

let test_wire_parse_allocation () =
  (* The body is copied once (straight to the major heap at this size, so
     it is counted in bytes, not minor words); everything else is a small
     constant, whatever the body's length. *)
  let body = String.make (64 * 1024) 'x' in
  let headers = Headers.of_list [ ("Host", "x.jp") ] in
  let raw = Wire.print (Request.make ~headers ~body Request.POST "/up") in
  ignore (Wire.parse raw);
  let before = Gc.allocated_bytes () in
  let parsed = Sys.opaque_identity (Wire.parse raw) in
  let bytes = Gc.allocated_bytes () -. before in
  (match parsed with
  | Ok r -> Alcotest.(check int) "body" (String.length body) (String.length r.Request.body)
  | Error e -> Alcotest.failf "parse: %s" (Wire.error_to_string e));
  let overhead = bytes -. float_of_int (String.length body) in
  if overhead > 2048. then
    Alcotest.failf "Wire.parse of a 64 KiB body allocated %.0f bytes beyond the body copy" overhead

let suite =
  [
    ( "http.headers",
      [
        Alcotest.test_case "case insensitive" `Quick test_headers_case_insensitive;
        Alcotest.test_case "order preserved" `Quick test_headers_order_preserved;
        Alcotest.test_case "replace/remove" `Quick test_headers_replace_remove;
      ] );
    ( "http.cookie",
      [
        Alcotest.test_case "roundtrip" `Quick test_cookie_to_string;
        Alcotest.test_case "jar order" `Quick test_cookie_jar_order;
      ] );
    ( "http.wire",
      [
        Alcotest.test_case "request accessors" `Quick test_request_accessors;
        Alcotest.test_case "print" `Quick test_wire_print;
        Alcotest.test_case "content-length" `Quick test_wire_content_length;
        Alcotest.test_case "parse roundtrip" `Quick test_wire_parse_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_wire_parse_errors;
        Alcotest.test_case "body with CRLFCRLF" `Quick test_wire_parse_body_with_separator;
        Alcotest.test_case "chunked reassembly" `Quick test_wire_chunked_reassembly;
        Alcotest.test_case "chunked trailers ignored" `Quick
          test_wire_chunked_trailers_ignored;
        Alcotest.test_case "chunked last coding only" `Quick
          test_wire_chunked_last_coding_only;
        Alcotest.test_case "chunked malformed" `Quick test_wire_chunked_malformed;
        Alcotest.test_case "chunked max_body" `Quick test_wire_chunked_max_body;
        Alcotest.test_case "chunk size overflowing int" `Quick test_wire_chunked_overflow;
        Alcotest.test_case "transfer-encoding lines: chunked then gzip" `Quick
          test_wire_te_lines_chunked_then_gzip;
        Alcotest.test_case "transfer-encoding list: chunked, gzip" `Quick
          test_wire_te_list_chunked_gzip;
        Alcotest.test_case "transfer-encoding lines: gzip then chunked" `Quick
          test_wire_te_lines_gzip_then_chunked;
        Alcotest.test_case "head: CRLF without a blank line" `Quick
          test_head_crlf_without_blank_line;
        Alcotest.test_case "head: \\r\\r\\n" `Quick test_head_cr_cr_lf;
        Alcotest.test_case "head: blank line after the start line" `Quick
          test_head_blank_after_start_line;
        Alcotest.test_case "head: three spaces in a request line" `Quick test_head_three_spaces;
        Alcotest.test_case "head: exactly max_headers lines" `Quick test_head_exactly_max_headers;
        Alcotest.test_case "head: reason phrase with spaces" `Quick test_head_reason_with_spaces;
        Alcotest.test_case "head walk allocates per field, not per byte" `Quick
          test_walk_allocation;
        Alcotest.test_case "parse allocates body + O(1)" `Quick test_wire_parse_allocation;
        qtest prop_wire_matches_oracle;
        qtest prop_response_matches_oracle;
        qtest prop_walk_matches_oracle;
      ] );
    ( "http.packet",
      [
        Alcotest.test_case "content string" `Quick test_packet_content_string;
        Alcotest.test_case "make from request" `Quick test_packet_make_from_request;
      ] );
    ( "http.trace",
      [
        Alcotest.test_case "escape roundtrip" `Quick test_trace_escape_roundtrip;
        Alcotest.test_case "bad lines" `Quick test_trace_bad_lines;
        Alcotest.test_case "save/load" `Quick test_trace_save_load;
        Alcotest.test_case "streaming fold" `Quick test_trace_fold_streaming;
        Alcotest.test_case "fold stops on error" `Quick test_trace_fold_stops_on_error;
        Alcotest.test_case "unreadable file" `Quick test_trace_unreadable_file;
        qtest prop_trace_line_roundtrip;
      ] );
    ( "http.response",
      [
        Alcotest.test_case "print/parse" `Quick test_response_print_parse;
        Alcotest.test_case "reasons" `Quick test_response_reasons;
        Alcotest.test_case "parse errors" `Quick test_response_parse_errors;
      ] );
    ( "http.trace_binary",
      [
        Alcotest.test_case "roundtrip" `Quick test_binary_roundtrip;
        Alcotest.test_case "file roundtrip" `Quick test_binary_file_roundtrip;
        Alcotest.test_case "corruption detected" `Quick test_binary_corruption;
        Alcotest.test_case "empty list" `Quick test_binary_empty_list;
        Alcotest.test_case "missing file" `Quick test_binary_missing_file;
        qtest prop_binary_roundtrip;
      ] );
  ]
