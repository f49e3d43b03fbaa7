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
  Alcotest.(check (list string)) "replace collapses duplicates" [ "9" ] (Headers.get_all r "X");
  let d = Headers.remove h "X" in
  Alcotest.(check int) "remove drops all spellings" 1 (Headers.length d);
  let added = Headers.replace Headers.empty "New" "v" in
  Alcotest.(check (option string)) "replace on absent adds" (Some "v") (Headers.get added "new")

(* --- Cookie --- *)

let test_cookie_parse () =
  Alcotest.(check (list (pair string string))) "two pairs"
    [ ("a", "1"); ("b", "2") ]
    (Cookie.parse "a=1; b=2");
  Alcotest.(check (list (pair string string))) "flag without value" [ ("secure", "") ]
    (Cookie.parse "secure");
  Alcotest.(check (list (pair string string))) "empty" [] (Cookie.parse "");
  Alcotest.(check (option string)) "get" (Some "2") (Cookie.get "a=1; b=2" "b")

let test_cookie_roundtrip () =
  let pairs = [ ("session", "abc123"); ("uid", "42") ] in
  Alcotest.(check (list (pair string string))) "roundtrip" pairs
    (Cookie.parse (Cookie.to_string pairs))

(* --- Request + Wire --- *)

let sample_request () =
  Request.make
    ~headers:(Headers.of_list [ ("Host", "r.admob.com"); ("Cookie", "s=1") ])
    ~body:"" Request.GET "/ad?x=1&y=2"

let test_request_accessors () =
  let r = sample_request () in
  Alcotest.(check string) "request line" "GET /ad?x=1&y=2 HTTP/1.1" (Request.request_line r);
  Alcotest.(check string) "cookie" "s=1" (Request.cookie r);
  Alcotest.(check (option string)) "host" (Some "r.admob.com") (Request.host r);
  Alcotest.(check (list (pair string string))) "query" [ ("x", "1"); ("y", "2") ]
    (Request.query_params r)

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
    Alcotest.(check (option string)) "host kept" (Some "x.jp") (Request.host parsed)

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

let test_packet_compare_dst () =
  let d ip port host =
    { Packet.ip = Option.get (Leakdetect_net.Ipv4.of_string ip); port; host }
  in
  Alcotest.(check bool) "equal" true (Packet.compare_dst (d "1.1.1.1" 80 "a") (d "1.1.1.1" 80 "a") = 0);
  Alcotest.(check bool) "ip dominates" true (Packet.compare_dst (d "1.1.1.1" 99 "z") (d "2.1.1.1" 80 "a") < 0)

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
      | Error e -> Alcotest.failf "fold: %s" e);
      let count = ref 0 in
      (match Trace.iter path ~f:(fun r -> if r.Trace.labels <> [] then incr count) with
      | Ok _ -> Alcotest.(check int) "iter counts sensitive" 5 !count
      | Error e -> Alcotest.failf "iter: %s" e))

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

let test_chunked_fragments_overflow () =
  let lens = ref [] in
  let result =
    Wire.chunked_fragments ("2\r\nok\r\n" ^ overflow_size ^ "\r\nxx\r\n0\r\n\r\n")
      (fun _ ~pos:_ ~len -> lens := len :: !lens)
  in
  (match result with
  | Error (Wire.Syntax _) -> ()
  | Ok n -> Alcotest.failf "framed %d bytes" n
  | Error e -> Alcotest.failf "unexpected %s" (Wire.error_to_string e));
  Alcotest.(check (list int)) "only the valid chunk was delivered" [ 2 ] !lens

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
      same_outcome (Wire.parse ~limits raw) (Wire_oracle.parse ~limits raw))

let prop_response_matches_oracle =
  QCheck.Test.make ~name:"Response.parse = split-and-concat oracle" ~count:1000
    (framing_case gen_response) (fun (limits, raw) ->
      same_outcome (Response.parse ~limits raw) (Wire_oracle.parse_response ~limits raw))

(* --- Allocation: no per-byte garbage in the framing ---------------------- *)

let allocated_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let test_find_from_allocation () =
  let s = String.make (64 * 1024) 'a' ^ "\r\n\r\n" in
  let find () = Leakdetect_util.Strutil.find_from s ~pos:0 ~stop:(String.length s) "\r\n\r\n" in
  Alcotest.(check int) "found last" (64 * 1024) (find ());
  let words = allocated_words find in
  if words > 16. then Alcotest.failf "find_from over 64 KiB allocated %.0f words" words

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
        Alcotest.test_case "parse" `Quick test_cookie_parse;
        Alcotest.test_case "roundtrip" `Quick test_cookie_roundtrip;
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
        Alcotest.test_case "fragments: chunk size overflowing int" `Quick
          test_chunked_fragments_overflow;
        Alcotest.test_case "find_from allocates O(1)" `Quick test_find_from_allocation;
        Alcotest.test_case "parse allocates body + O(1)" `Quick test_wire_parse_allocation;
        qtest prop_wire_matches_oracle;
        qtest prop_response_matches_oracle;
      ] );
    ( "http.packet",
      [
        Alcotest.test_case "content string" `Quick test_packet_content_string;
        Alcotest.test_case "make from request" `Quick test_packet_make_from_request;
        Alcotest.test_case "compare destinations" `Quick test_packet_compare_dst;
      ] );
    ( "http.trace",
      [
        Alcotest.test_case "escape roundtrip" `Quick test_trace_escape_roundtrip;
        Alcotest.test_case "bad lines" `Quick test_trace_bad_lines;
        Alcotest.test_case "save/load" `Quick test_trace_save_load;
        Alcotest.test_case "streaming fold/iter" `Quick test_trace_fold_streaming;
        Alcotest.test_case "fold stops on error" `Quick test_trace_fold_stops_on_error;
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
        qtest prop_binary_roundtrip;
      ] );
  ]
