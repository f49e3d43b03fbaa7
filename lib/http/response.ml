type t = {
  version : string;
  status : int;
  reason : string;
  headers : Headers.t;
  body : string;
}

let reason_for = function
  | 200 -> "OK"
  | 204 -> "No Content"
  | 304 -> "Not Modified"
  | 400 -> "Bad Request"
  | 403 -> "Forbidden"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 421 -> "Misdirected Request"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

let make ?(version = "HTTP/1.1") ?(headers = Headers.empty) ?(body = "") status =
  { version; status; reason = reason_for status; headers; body }

let status_line t = Printf.sprintf "%s %d %s" t.version t.status t.reason

let print t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (status_line t);
  Buffer.add_string buf "\r\n";
  let headers =
    if t.body <> "" && not (Headers.mem t.headers "Content-Length") then
      Headers.add t.headers "Content-Length" (string_of_int (String.length t.body))
    else t.headers
  in
  List.iter
    (fun (name, value) ->
      Buffer.add_string buf name;
      Buffer.add_string buf ": ";
      Buffer.add_string buf value;
      Buffer.add_string buf "\r\n")
    (Headers.to_list headers);
  Buffer.add_string buf "\r\n";
  Buffer.add_string buf t.body;
  Buffer.contents buf

let parse ?(limits = Wire.default_limits) raw =
  let h = Wire.read_head ~limits raw in
  let body_length = String.length raw - h.Wire.body_start in
  if body_length > limits.Wire.max_body then Error (Wire.Body_too_large body_length)
  else if h.Wire.head_end = 0 then Error (Wire.Syntax "missing status line")
  else
    (* "version code reason...": the reason is everything after the second
       space, and may itself hold spaces or be absent. *)
    let stop = h.Wire.line_end and i = h.Wire.sp1 in
    if i < 0 then
      Error (Wire.Syntax (Printf.sprintf "malformed status line %S" (String.sub raw 0 stop)))
    else
      let code_end = if h.Wire.sp2 < 0 then stop else h.Wire.sp2 in
      let code = String.sub raw (i + 1) (code_end - i - 1) in
      match int_of_string_opt code with
      | None -> Error (Wire.Syntax (Printf.sprintf "bad status code %S" code))
      | Some status -> (
        match h.Wire.headers with
        | Error _ as e -> e
        | Ok headers ->
          let reason =
            if code_end = stop then "" else String.sub raw (code_end + 1) (stop - code_end - 1)
          in
          Ok
            {
              version = String.sub raw 0 i;
              status;
              reason;
              headers;
              body = String.sub raw h.Wire.body_start body_length;
            })
