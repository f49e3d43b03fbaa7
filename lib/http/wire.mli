(** Raw HTTP/1.1 request bytes: printing for the traffic generator and a
    strict, bounded parser for round-trip testing and for feeding
    externally captured requests into the pipeline.

    The parser enforces explicit limits — header count, header line length
    and body size — so unbounded or hostile input is rejected with a typed
    error instead of being accumulated.  The same limits and error type are
    shared by {!Response.parse}. *)

type limits = {
  max_headers : int;  (** Maximum number of header lines. *)
  max_header_line : int;  (** Maximum bytes in one header line. *)
  max_body : int;  (** Maximum body bytes after the blank line. *)
}

val default_limits : limits
(** 64 headers, 4 KiB header lines, 1 MiB bodies. *)

type error = Leakdetect_util.Leak_error.t =
  | Syntax of string  (** Malformed request/status/header line. *)
  | Too_many_headers of int  (** Header lines seen. *)
  | Header_line_too_long of int  (** Offending line length. *)
  | Body_too_large of int  (** Body length. *)
  | Bad_field of string * string  (** Used by the signature codec. *)
  | Bad_escape of string  (** Used by the signature codec. *)
  | Invalid of string  (** Used by the signature codec. *)
(** Re-export of {!Leakdetect_util.Leak_error.t}: one error variant shared
    by the wire, response and signature parsers. *)

val error_to_string : error -> string
(** Alias of {!Leakdetect_util.Leak_error.to_string}. *)

val print : Request.t -> string
(** Request line, headers, CRLF CRLF, body.  A [Content-Length] header is
    added for non-empty bodies when absent. *)

val parse : ?limits:limits -> string -> (Request.t, error) result
(** Parses exactly one request.  The body is everything after the blank
    line; when the last coding of the last [Transfer-Encoding] field is
    [chunked] (repeated fields combine in order, RFC 7230 §3.2.2) the chunks
    are reassembled (under [max_body], trailers ignored) and the returned
    request carries the decoded body with [Transfer-Encoding] removed and
    [Content-Length] rewritten.  A malformed chunk-size line (a size too
    large for an [int] included) or a truncated chunk is a [Syntax] error,
    a chunk size above what is left of [max_body] a [Body_too_large].  Errors describe the first offending line
    or the first limit exceeded. *)

(** {2 The shared head walk}

    {!parse} and {!Response.parse} frame a message with one forward walk
    over its head that visits each head byte once.  A 256-entry class
    table skips ordinary bytes; only [' '], [':'] and ['\r'] stop it.  The
    head ends at the first CRLF followed by another CRLF (the first
    ["\r\n\r\n"]); every CRLF before it ends a line. *)

type head = private {
  raw : string;  (** The whole message. *)
  line_end : int;  (** End of the start line: its CRLF, or [head_end]. *)
  sp1 : int;  (** The start line's first space, or [-1]. *)
  sp2 : int;  (** Its second space, or [-1]. *)
  sp3 : bool;  (** Whether it has a third space. *)
  head_end : int;  (** Offset of the first blank line, or [String.length raw]. *)
  body_start : int;  (** [head_end + 4], or [String.length raw] without a blank line. *)
  headers : (Headers.t, error) result;
      (** The header lines between the start line and the blank line, in
          wire order.  The line count is checked against [max_headers]
          first; then, line by line, its length against [max_header_line]
          and its [':'] (a [Syntax] error naming the line).  Values are
          trimmed of spaces and tabs. *)
}

val read_head : limits:limits -> string -> head
