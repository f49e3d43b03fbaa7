type limits = { max_headers : int; max_header_line : int; max_body : int }

let default_limits = { max_headers = 64; max_header_line = 4096; max_body = 1 lsl 20 }

type error = Leakdetect_util.Leak_error.t =
  | Syntax of string
  | Too_many_headers of int
  | Header_line_too_long of int
  | Body_too_large of int
  | Bad_field of string * string
  | Bad_escape of string
  | Invalid of string

let error_to_string = Leakdetect_util.Leak_error.to_string

let print (r : Request.t) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Request.request_line r);
  Buffer.add_string buf "\r\n";
  let headers =
    if r.body <> "" && not (Headers.mem r.headers "Content-Length") then
      Headers.add r.headers "Content-Length" (string_of_int (String.length r.body))
    else r.headers
  in
  List.iter
    (fun (name, value) ->
      Buffer.add_string buf name;
      Buffer.add_string buf ": ";
      Buffer.add_string buf value;
      Buffer.add_string buf "\r\n")
    (Headers.to_list headers);
  Buffer.add_string buf "\r\n";
  Buffer.add_string buf r.body;
  Buffer.contents buf

module Strutil = Leakdetect_util.Strutil

let crlf = "\r\n"

(* [s.[a .. b-1]] with ASCII spaces and tabs trimmed from both ends. *)
let trimmed s a b =
  let is_sp c = c = ' ' || c = '\t' in
  let a = ref a and b = ref b in
  while !a < !b && is_sp s.[!a] do incr a done;
  while !b > !a && is_sp s.[!b - 1] do decr b done;
  (!a, !b)

let trimmed_sub s a b =
  let a, b = trimmed s a b in
  String.sub s a (b - a)

type head = { raw : string; line_end : int; head_end : int; body_start : int }

(* One pass finds the first blank line; the start line and the header
   lines are then walked by offset inside [0, head_end), so a "\r\n" can
   never straddle the blank line, and nothing is copied until a field is
   taken. *)
let split_head raw =
  let n = String.length raw in
  let head_end, body_start =
    match Strutil.find_from raw ~pos:0 ~stop:n "\r\n\r\n" with -1 -> (n, n) | i -> (i, i + 4)
  in
  let line_end =
    match Strutil.find_from raw ~pos:0 ~stop:head_end crlf with -1 -> head_end | i -> i
  in
  { raw; line_end; head_end; body_start }

let start_line h = String.sub h.raw 0 h.line_end
let body_length h = String.length h.raw - h.body_start
let body h = String.sub h.raw h.body_start (body_length h)

let header_fields ~limits h =
  let raw = h.raw and stop = h.head_end in
  let next_line pos = match Strutil.find_from raw ~pos ~stop crlf with -1 -> stop | i -> i in
  (* Header lines follow the start line's CRLF; a head without one has
     none.  Each line is the span up to the next CRLF or the head's end. *)
  let first = if h.line_end < stop then h.line_end + 2 else stop + 1 in
  let rec count pos acc = if pos > stop then acc else count (next_line pos + 2) (acc + 1) in
  let n = count first 0 in
  if n > limits.max_headers then Error (Too_many_headers n)
  else
    let rec fields pos acc =
      if pos > stop then Ok (Headers.of_list (List.rev acc))
      else
        let eol = next_line pos in
        let len = eol - pos in
        if len > limits.max_header_line then Error (Header_line_too_long len)
        else
          match Strutil.index_in raw ~pos ~stop:eol ':' with
          | -1 ->
            Error (Syntax (Printf.sprintf "malformed header line %S" (String.sub raw pos len)))
          | i ->
            let field = (String.sub raw pos (i - pos), trimmed_sub raw (i + 1) eol) in
            fields (eol + 2) (field :: acc)
    in
    fields first []

(* RFC 7230 §4.1 chunked bodies: [<hex-size>[;ext]\r\n<data>\r\n]* 0\r\n.
   The decoded payload is bounded by [max_body]; a malformed chunk-size
   line or truncated chunk data is a typed error.  Trailer fields after the
   last chunk are ignored.  A size too large for an [int] is a malformed
   line and one above the remaining budget is [Body_too_large], both
   rejected before the size enters any arithmetic.

   [chunked_fragments] is the streaming form: instead of reassembling, it
   hands each chunk's payload to the callback as an in-place slice of the
   raw buffer — [f raw ~pos ~len] — so a streaming detector can scan
   fragments as they are framed, without a reassembly copy followed by a
   rescan.  Returns the total decoded length. *)
let fragments_from ~limits raw start f =
  let len = String.length raw in
  let rec chunk pos total =
    match String.index_from_opt raw pos '\n' with
    | None -> Error (Syntax "chunked: chunk-size line not CRLF-terminated")
    | Some nl when nl = pos || raw.[nl - 1] <> '\r' ->
      Error (Syntax "chunked: chunk-size line not CRLF-terminated")
    | Some nl -> (
      let line_end = nl - 1 in
      let size_end =
        match Strutil.index_in raw ~pos ~stop:line_end ';' with -1 -> line_end | i -> i
      in
      let a, b = trimmed raw pos size_end in
      match Leakdetect_util.Hex.int_of_sub raw ~pos:a ~len:(b - a) with
      | -1 ->
        let line = String.sub raw pos (line_end - pos) in
        Error (Syntax (Printf.sprintf "chunked: bad chunk-size line %S" line))
      | 0 -> Ok total
      | size ->
        let data_start = nl + 1 in
        if size > limits.max_body - total then
          Error (Body_too_large (if size > max_int - total then max_int else total + size))
        else if size > len - data_start - 2 then Error (Syntax "chunked: truncated chunk data")
        else if raw.[data_start + size] <> '\r' || raw.[data_start + size + 1] <> '\n'
        then Error (Syntax "chunked: chunk data not CRLF-terminated")
        else begin
          f raw ~pos:data_start ~len:size;
          chunk (data_start + size + 2) (total + size)
        end)
  in
  chunk start 0

let chunked_fragments ?(limits = default_limits) body f = fragments_from ~limits body 0 f

let is_chunked headers =
  match Headers.get headers "Transfer-Encoding" with
  | None -> false
  | Some v ->
    let from = match String.rindex_opt v ',' with Some i -> i + 1 | None -> 0 in
    Strutil.equal_caseless (trimmed_sub v from (String.length v)) "chunked"

(* The two spaces of a request line [raw.[0 .. stop-1]] that splits into
   exactly three space-separated parts, or [None]. *)
let request_line_spaces raw stop =
  let i = Strutil.index_in raw ~pos:0 ~stop ' ' in
  let j = if i < 0 then -1 else Strutil.index_in raw ~pos:(i + 1) ~stop ' ' in
  if j < 0 || Strutil.index_in raw ~pos:(j + 1) ~stop ' ' >= 0 then None else Some (i, j)

let parse ?(limits = default_limits) raw =
  let h = split_head raw in
  if h.head_end = 0 then Error (Syntax "missing request line")
  else
    match request_line_spaces raw h.line_end with
    | None -> Error (Syntax (Printf.sprintf "malformed request line %S" (start_line h)))
    | Some (i, j) -> (
      let meth_s = String.sub raw 0 i in
      match Request.meth_of_string meth_s with
      | None -> Error (Syntax (Printf.sprintf "unsupported method %S" meth_s))
      | Some meth -> (
        let target = String.sub raw (i + 1) (j - i - 1) in
        let version = String.sub raw (j + 1) (h.line_end - j - 1) in
        match header_fields ~limits h with
        | Error _ as e -> e
        | Ok headers ->
          (* [max_body] bounds the payload the request carries: the raw
             body when identity-coded, the reassembled body when chunked
             (the framing itself only shrinks on decode). *)
          if not (is_chunked headers) then
            if body_length h > limits.max_body then Error (Body_too_large (body_length h))
            else Ok (Request.make ~version ~headers ~body:(body h) meth target)
          else
            let buf = Buffer.create (min (body_length h) 1024) in
            match
              fragments_from ~limits raw h.body_start (fun raw ~pos ~len ->
                  Buffer.add_substring buf raw pos len)
            with
            | Error _ as e -> e
            | Ok decoded ->
              (* The framing is consumed here, so the surviving request
                 describes the payload it actually carries. *)
              let headers = Headers.remove headers "Transfer-Encoding" in
              let headers =
                if decoded = 0 then Headers.remove headers "Content-Length"
                else Headers.replace headers "Content-Length" (string_of_int decoded)
              in
              Ok (Request.make ~version ~headers ~body:(Buffer.contents buf) meth target)))
