type meth = GET | POST

let meth_to_string = function GET -> "GET" | POST -> "POST"

let meth_of_string = function
  | "GET" -> Some GET
  | "POST" -> Some POST
  | _ -> None

type t = {
  meth : meth;
  target : string;
  version : string;
  headers : Headers.t;
  body : string;
}

let make ?(version = "HTTP/1.1") ?(headers = Headers.empty) ?(body = "") meth target =
  { meth; target; version; headers; body }

let request_line t =
  String.concat " " [ meth_to_string t.meth; t.target; t.version ]

let cookie t = Option.value ~default:"" (Headers.get t.headers "Cookie")
