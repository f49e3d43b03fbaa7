type t =
  | Syntax of string
  | Too_many_headers of int
  | Header_line_too_long of int
  | Body_too_large of int
  | Bad_field of string * string
  | Bad_escape of string
  | Invalid of string

let to_string = function
  | Syntax m -> m
  | Too_many_headers n -> Printf.sprintf "too many headers (%d)" n
  | Header_line_too_long n -> Printf.sprintf "header line too long (%d bytes)" n
  | Body_too_large n -> Printf.sprintf "body too large (%d bytes)" n
  | Bad_field (field, value) -> Printf.sprintf "bad %s %S" field value
  | Bad_escape token -> Printf.sprintf "bad token escape %S" token
  | Invalid m -> m
