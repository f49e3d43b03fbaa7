(* Reference HTTP framing: the original split-and-concat implementation of
   [Leakdetect_http.Wire.parse] and [Leakdetect_http.Response.parse], kept
   as the differential-test oracle for the offset-based head splitter.  It
   splits the whole message on every "\r\n\r\n" (testing each offset with a
   fresh substring), concatenates the body back together and splits the
   head into line strings; only its output matters here, not its speed.

   It is the original code, defects included: a chunk size too large for an
   [int] wraps negative here, which makes it raise or misframe.  Callers
   exclude such inputs (see [overflowing_chunk_size]). *)

module Headers = Leakdetect_http.Headers
module Request = Leakdetect_http.Request
module Response = Leakdetect_http.Response
module Wire = Leakdetect_http.Wire
module Strutil = Leakdetect_util.Strutil
module Hex = Leakdetect_util.Hex

let find_from s pos sub =
  let n = String.length s and m = String.length sub in
  let rec loop i =
    if i + m > n then None else if String.sub s i m = sub then Some i else loop (i + 1)
  in
  loop pos

let split_on_string ~sep s =
  let m = String.length sep in
  let rec loop pos acc =
    match find_from s pos sep with
    | None -> List.rev (String.sub s pos (String.length s - pos) :: acc)
    | Some i -> loop (i + m) (String.sub s pos (i - pos) :: acc)
  in
  loop 0 []

let parse_header_lines ~(limits : Wire.limits) lines =
  let n = List.length lines in
  if n > limits.max_headers then Error (Wire.Too_many_headers n)
  else
    List.fold_left
      (fun acc line ->
        match acc with
        | Error _ as e -> e
        | Ok headers ->
          if String.length line > limits.max_header_line then
            Error (Wire.Header_line_too_long (String.length line))
          else (
            match String.index_opt line ':' with
            | None -> Error (Wire.Syntax (Printf.sprintf "malformed header line %S" line))
            | Some i ->
              let name = String.sub line 0 i in
              let value =
                Strutil.trim_spaces (String.sub line (i + 1) (String.length line - i - 1))
              in
              Ok (Headers.add headers name value)))
      (Ok Headers.empty) lines

let chunked_fragments ~(limits : Wire.limits) body f =
  let len = String.length body in
  let rec chunk pos total =
    match String.index_from_opt body pos '\n' with
    | None -> Error (Wire.Syntax "chunked: chunk-size line not CRLF-terminated")
    | Some nl when nl = pos || body.[nl - 1] <> '\r' ->
      Error (Wire.Syntax "chunked: chunk-size line not CRLF-terminated")
    | Some nl -> (
      let line = String.sub body pos (nl - 1 - pos) in
      let size_part =
        Strutil.trim_spaces
          (match String.index_opt line ';' with None -> line | Some i -> String.sub line 0 i)
      in
      let size =
        if size_part = "" || not (String.for_all Hex.is_digit size_part) then None
        else int_of_string_opt ("0x" ^ size_part)
      in
      match size with
      | None -> Error (Wire.Syntax (Printf.sprintf "chunked: bad chunk-size line %S" line))
      | Some 0 -> Ok total
      | Some size ->
        let data_start = nl + 1 in
        if total + size > limits.max_body then Error (Wire.Body_too_large (total + size))
        else if data_start + size + 2 > len then Error (Wire.Syntax "chunked: truncated chunk data")
        else if body.[data_start + size] <> '\r' || body.[data_start + size + 1] <> '\n' then
          Error (Wire.Syntax "chunked: chunk data not CRLF-terminated")
        else begin
          f body ~pos:data_start ~len:size;
          chunk (data_start + size + 2) (total + size)
        end)
  in
  chunk 0 0

let decode_chunked ~limits body =
  let buf = Buffer.create (min (String.length body) 1024) in
  match
    chunked_fragments ~limits body (fun raw ~pos ~len -> Buffer.add_substring buf raw pos len)
  with
  | Ok _total -> Ok (Buffer.contents buf)
  | Error _ as e -> e

let is_chunked headers =
  match Headers.get headers "Transfer-Encoding" with
  | None -> false
  | Some v ->
    let last =
      match List.rev (String.split_on_char ',' v) with
      | last :: _ -> Strutil.trim_spaces last
      | [] -> ""
    in
    String.lowercase_ascii last = "chunked"

let parse ?(limits = Wire.default_limits) raw =
  match split_on_string ~sep:"\r\n\r\n" raw with
  | [] -> Error (Wire.Syntax "empty input")
  | head :: rest -> (
    let body = String.concat "\r\n\r\n" rest in
    match split_on_string ~sep:"\r\n" head with
    | [] | [ "" ] -> Error (Wire.Syntax "missing request line")
    | rline :: header_lines -> (
      match String.split_on_char ' ' rline with
      | [ meth_s; target; version ] -> (
        match Request.meth_of_string meth_s with
        | None -> Error (Wire.Syntax (Printf.sprintf "unsupported method %S" meth_s))
        | Some meth -> (
          match parse_header_lines ~limits header_lines with
          | Error _ as e -> e
          | Ok headers -> (
            if not (is_chunked headers) then
              if String.length body > limits.max_body then
                Error (Wire.Body_too_large (String.length body))
              else Ok (Request.make ~version ~headers ~body meth target)
            else
              match decode_chunked ~limits body with
              | Error _ as e -> e
              | Ok decoded ->
                let headers = Headers.remove headers "Transfer-Encoding" in
                let headers =
                  if decoded = "" then Headers.remove headers "Content-Length"
                  else
                    Headers.replace headers "Content-Length" (string_of_int (String.length decoded))
                in
                Ok (Request.make ~version ~headers ~body:decoded meth target))))
      | _ -> Error (Wire.Syntax (Printf.sprintf "malformed request line %S" rline))))

let parse_response ?(limits = Wire.default_limits) raw =
  match split_on_string ~sep:"\r\n\r\n" raw with
  | [] -> Error (Wire.Syntax "empty input")
  | head :: rest -> (
    let body = String.concat "\r\n\r\n" rest in
    if String.length body > limits.Wire.max_body then
      Error (Wire.Body_too_large (String.length body))
    else
      match split_on_string ~sep:"\r\n" head with
      | [] | [ "" ] -> Error (Wire.Syntax "missing status line")
      | status_line :: header_lines -> (
        match String.split_on_char ' ' status_line with
        | version :: code :: reason_parts -> (
          match int_of_string_opt code with
          | None -> Error (Wire.Syntax (Printf.sprintf "bad status code %S" code))
          | Some status -> (
            match parse_header_lines ~limits header_lines with
            | Error _ as e -> e
            | Ok headers ->
              Ok
                { Response.version; status; reason = String.concat " " reason_parts; headers; body }
            ))
        | _ -> Error (Wire.Syntax (Printf.sprintf "malformed status line %S" status_line))))

(* True when some line that starts the message or follows a '\n' reads as a
   chunk-size line whose hex value lies in [2^62, 2^63): too large for an
   [int], yet accepted by this oracle's [int_of_string_opt "0x..."], which
   wraps it negative.  (From 2^63 up it returns [None], a [Syntax] error
   like the parser's.)  Every chunk-size line the framing reads starts at
   such a line start. *)
let overflowing_chunk_size raw =
  let n = String.length raw in
  let overflows pos =
    let stop = match Strutil.find_from raw ~pos ~stop:n "\r\n" with -1 -> n | i -> i in
    let stop = match Strutil.index_in raw ~pos ~stop ';' with -1 -> stop | i -> i in
    let a = ref pos and b = ref stop in
    while !a < !b && (raw.[!a] = ' ' || raw.[!a] = '\t') do incr a done;
    while !b > !a && (raw.[!b - 1] = ' ' || raw.[!b - 1] = '\t') do decr b done;
    while !a < !b && raw.[!a] = '0' do incr a done;
    let digits = !b - !a in
    let all_hex = ref true in
    for i = !a to !b - 1 do
      if not (Hex.is_digit raw.[i]) then all_hex := false
    done;
    !all_hex && digits = 16 && Hex.value raw.[!a] >= 4
  in
  let rec scan pos =
    pos < n
    && (overflows pos
       || match String.index_from_opt raw pos '\n' with Some nl -> scan (nl + 1) | None -> false)
  in
  scan 0
