(** HTTP/1.1 requests (GET and POST only — the paper's trace consists of
    GET/POST packets, Sec. III-B). *)

type meth = GET | POST

val meth_to_string : meth -> string
val meth_of_string : string -> meth option

type t = {
  meth : meth;
  target : string;  (** Path plus optional [?query], as on the wire. *)
  version : string;  (** e.g. ["HTTP/1.1"]. *)
  headers : Headers.t;
  body : string;
}

val make :
  ?version:string -> ?headers:Headers.t -> ?body:string -> meth -> string -> t

val request_line : t -> string
(** ["GET /path?q HTTP/1.1"], without the terminating CRLF. *)

val cookie : t -> string
(** The [Cookie] header value, or [""]. *)
