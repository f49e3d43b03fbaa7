(** The unit the paper's whole pipeline operates on (Sec. IV-B/IV-C): an
    observed HTTP packet, i.e. a destination
    [{ip; port; host}] plus the content triple
    [{request-line; cookie; message-body}]. *)

type destination = {
  ip : Leakdetect_net.Ipv4.t;
  port : int;
  host : string;  (** FQDN from the Host header. *)
}

type content = {
  request_line : string;
  cookie : string;
  body : string;
}

type t = { dst : destination; content : content }

val make : dst:destination -> request:Request.t -> t
(** Projects the request onto the content triple the distances compare. *)

val v :
  ip:Leakdetect_net.Ipv4.t -> port:int -> host:string ->
  request_line:string -> cookie:string -> body:string -> t

val content_string : t -> string
(** The canonical flattened content used for token extraction and signature
    matching: request-line, cookie and body joined with ['\n'] (a byte that
    occurs in none of the three fields). *)
