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

(* [s.[a .. b-1]] trims to [s.[trim_start s a b .. trim_end s a b - 1]]:
   ASCII spaces and tabs go from both ends. *)
let is_sp c = c = ' ' || c = '\t'
let rec trim_start s a b =
  if a < b && is_sp (String.unsafe_get s a) then trim_start s (a + 1) b else a

let rec trim_end s a b =
  if b > a && is_sp (String.unsafe_get s (b - 1)) then trim_end s a (b - 1) else b

let trimmed_sub s a b =
  let a = trim_start s a b in
  String.sub s a (trim_end s a b - a)

(* The head walk's byte classes: each state skips every byte whose class
   misses its mask, so only ' ', ':' and '\r' can stop it, and only when
   the state looks for them. *)
let c_space = 1
let c_colon = 2
let c_cr = 4

let classes =
  String.init 256 (fun i ->
      Char.unsafe_chr
        (match Char.unsafe_chr i with ' ' -> c_space | ':' -> c_colon | '\r' -> c_cr | _ -> 0))

(* The first offset in [i, n) whose byte class meets [mask], or [n]. *)
let class_of raw i = Char.code (String.unsafe_get classes (Char.code (String.unsafe_get raw i)))

let rec skip raw i n mask =
  if i < n && class_of raw i land mask = 0 then skip raw (i + 1) n mask else i

let crlf_at raw i n =
  i + 1 < n && String.unsafe_get raw i = '\r' && String.unsafe_get raw (i + 1) = '\n'

(* The first CRLF at or after [i], or [n]. *)
let rec crlf_from raw i n =
  let j = skip raw i n c_cr in
  if j >= n || crlf_at raw j n then j else crlf_from raw (j + 1) n

(* The first ':' or CRLF at or after [i], or [n]. *)
let rec colon_or_crlf raw i n =
  let j = skip raw i n (c_colon lor c_cr) in
  if j >= n || String.unsafe_get raw j = ':' || crlf_at raw j n then j
  else colon_or_crlf raw (j + 1) n

type head = {
  raw : string;
  line_end : int;
  sp1 : int;
  sp2 : int;
  sp3 : bool;
  head_end : int;
  body_start : int;
  headers : (Headers.t, error) result;
}

(* One forward walk.  The head ends at the first CRLF followed by another
   CRLF, which is exactly where the first "\r\n\r\n" falls, since two CRLFs
   cannot overlap; every CRLF before it ends a line.  On the start line the
   walk records its first two spaces and whether a third exists; on each
   header line, its first colon.  The first [max_headers] lines are checked
   and built as they go (length, then colon); past that, or past the first
   bad line, lines are only counted, and the count is checked first. *)
let read_head ~limits raw =
  let n = String.length raw in
  let sp1 = ref (-1) and sp2 = ref (-1) and sp3 = ref false in
  let pos = ref 0 and line_end = ref (-1) in
  while !line_end < 0 do
    let j = skip raw !pos n (if !sp3 then c_cr else c_space lor c_cr) in
    if j >= n then line_end := n
    else if String.unsafe_get raw j = ' ' then begin
      if !sp1 < 0 then sp1 := j else if !sp2 < 0 then sp2 := j else sp3 := true;
      pos := j + 1
    end
    else if crlf_at raw j n then line_end := j
    else pos := j + 1
  done;
  let line_end = !line_end in
  let head_end = ref (if line_end = n || crlf_at raw (line_end + 2) n then line_end else -1) in
  let lines = ref 0 and fields = ref [] and bad = ref None in
  pos := line_end + 2;
  while !head_end < 0 do
    let p = !pos in
    incr lines;
    let eol =
      if !lines > limits.max_headers || Option.is_some !bad then crlf_from raw p n
      else
        let stop = colon_or_crlf raw p n in
        if stop < n && String.unsafe_get raw stop = ':' then begin
          let eol = crlf_from raw (stop + 1) n in
          if eol - p > limits.max_header_line then bad := Some (Header_line_too_long (eol - p))
          else fields := (String.sub raw p (stop - p), trimmed_sub raw (stop + 1) eol) :: !fields;
          eol
        end
        else begin
          let len = stop - p in
          bad :=
            Some
              (if len > limits.max_header_line then Header_line_too_long len
               else Syntax (Printf.sprintf "malformed header line %S" (String.sub raw p len)));
          stop
        end
    in
    if eol = n || crlf_at raw (eol + 2) n then head_end := eol else pos := eol + 2
  done;
  let head_end = !head_end in
  let headers =
    if !lines > limits.max_headers then Error (Too_many_headers !lines)
    else match !bad with Some e -> Error e | None -> Ok (Headers.of_list (List.rev !fields))
  in
  {
    raw;
    line_end;
    sp1 = !sp1;
    sp2 = !sp2;
    sp3 = !sp3;
    head_end;
    body_start = (if head_end = n then n else head_end + 4);
    headers;
  }

let start_line h = String.sub h.raw 0 h.line_end
let body_length h = String.length h.raw - h.body_start
let body h = String.sub h.raw h.body_start (body_length h)

(* RFC 7230 §4.1 chunked bodies: [<hex-size>[;ext]\r\n<data>\r\n]* 0\r\n.
   The decoded payload is bounded by [max_body]; a malformed chunk-size
   line or truncated chunk data is a typed error.  Trailer fields after the
   last chunk are ignored.  A size too large for an [int] is a malformed
   line and one above the remaining budget is [Body_too_large], both
   rejected before the size enters any arithmetic.

   Each chunk's payload goes to the callback as an in-place slice of the
   raw buffer — [f raw ~pos ~len] — starting at offset [start]; returns
   the total decoded length. *)
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
      let a = trim_start raw pos size_end in
      match Leakdetect_util.Hex.int_of_sub raw ~pos:a ~len:(trim_end raw a size_end - a) with
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

(* RFC 7230 §3.2.2: repeated fields combine in order, so the framing is
   the last coding of the last [Transfer-Encoding] field. *)
let is_chunked headers =
  let rec last_coding found = function
    | [] -> found
    | (name, v) :: rest ->
      last_coding (if Strutil.equal_caseless name "Transfer-Encoding" then Some v else found) rest
  in
  match last_coding None (Headers.to_list headers) with
  | None -> false
  | Some v ->
    let from = match String.rindex_opt v ',' with Some i -> i + 1 | None -> 0 in
    Strutil.equal_caseless (trimmed_sub v from (String.length v)) "chunked"

let rec same_prefix raw s i =
  i = String.length s
  || (String.unsafe_get raw i = String.unsafe_get s i && same_prefix raw s (i + 1))

(* The method [raw.[0 .. len-1]], matched in place. *)
let meth_in raw len =
  if len = 3 && same_prefix raw "GET" 0 then Some Request.GET
  else if len = 4 && same_prefix raw "POST" 0 then Some Request.POST
  else None

let parse ?(limits = default_limits) raw =
  let h = read_head ~limits raw in
  if h.head_end = 0 then Error (Syntax "missing request line")
  else if h.sp2 < 0 || h.sp3 then
    Error (Syntax (Printf.sprintf "malformed request line %S" (start_line h)))
  else
    let i = h.sp1 and j = h.sp2 in
    match meth_in raw i with
    | None -> Error (Syntax (Printf.sprintf "unsupported method %S" (String.sub raw 0 i)))
    | Some meth -> (
      match h.headers with
      | Error _ as e -> e
      | Ok headers ->
        let target = String.sub raw (i + 1) (j - i - 1) in
        let version = String.sub raw (j + 1) (h.line_end - j - 1) in
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
            Ok (Request.make ~version ~headers ~body:(Buffer.contents buf) meth target))
