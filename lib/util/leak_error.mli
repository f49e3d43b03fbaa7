(** The one typed error for every leakdetect parser.

    Before this module, the HTTP wire parser ({!constructor:Syntax} through
    {!constructor:Body_too_large}), the HTTP response parser (which borrowed
    the wire type) and the signature line codec (bare strings) each carried
    their own stringly rendering.  They now share this variant and the
    single {!to_string}; the old per-module types are kept as equations on
    this one so existing constructor references still compile. *)

type t =
  | Syntax of string  (** Malformed request/status/record line or structure. *)
  | Too_many_headers of int  (** Header lines seen. *)
  | Header_line_too_long of int  (** Offending line length. *)
  | Body_too_large of int  (** Body length. *)
  | Bad_field of string * string
      (** [(field, value)]: a named field failed to parse (signature id,
          mode, cluster size, ...). *)
  | Bad_escape of string  (** A backslash escape that is not [\\ \t \n \r]. *)
  | Invalid of string  (** Semantic validation failed after parsing. *)

val to_string : t -> string
