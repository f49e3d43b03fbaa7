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
    line; when the last [Transfer-Encoding] coding is [chunked] the chunks
    are reassembled (under [max_body], trailers ignored) and the returned
    request carries the decoded body with [Transfer-Encoding] removed and
    [Content-Length] rewritten.  A malformed chunk-size line (a size too
    large for an [int] included) or a truncated chunk is a [Syntax] error,
    a chunk size above what is left of [max_body] a [Body_too_large].  Errors describe the first offending line
    or the first limit exceeded. *)

(** {2 The shared head splitter}

    {!parse} and {!Response.parse} frame a message the same way: one pass
    finds the first blank line (["\r\n\r\n"]), and the start line, the
    header lines and the body are then read by offset into the raw bytes.
    Nothing is copied until a field is taken, and the body is taken with
    one [String.sub]. *)

type head = private {
  raw : string;  (** The whole message. *)
  line_end : int;  (** End of the start line: its first CRLF, or [head_end]. *)
  head_end : int;  (** Offset of the first blank line, or [String.length raw]. *)
  body_start : int;  (** [head_end + 4], or [String.length raw] without a blank line. *)
}

val split_head : string -> head

val start_line : head -> string
(** [raw.\[0 .. line_end-1\]]; [""] when [head_end = 0], which both parsers
    report as a missing start line. *)

val body_length : head -> int

val body : head -> string
(** Everything after the blank line ([""] without one), copied once. *)

val header_fields : limits:limits -> head -> (Headers.t, error) result
(** The header lines between the start line and the blank line, in wire
    order.  The line count is checked against [max_headers] first; then,
    line by line, its length against [max_header_line] and its [':']
    (a [Syntax] error naming the line).  Values are trimmed of spaces and
    tabs. *)

