(** URL paths and query strings, as transmitted by advertisement modules.
    Only the pieces HTTP GET/POST requests need: percent-encoding and
    [application/x-www-form-urlencoded] query handling. *)

val percent_encode : string -> string
(** Encode everything outside the RFC 3986 unreserved set.  Space becomes
    [%20] (not [+]). *)

type percent_mode =
  | Strict  (** Decode [%XX] escapes; [+] is literal (path components). *)
  | Lenient
      (** Decode every valid [%XX] escape and pass malformed ones through
          literally, for the canonicalization lattice; never [None]. *)
  | Form  (** [application/x-www-form-urlencoded]: [Strict] plus [+] as space. *)

val percent_decode : percent_mode -> string -> string option
(** [percent_decode Form] inverts {!percent_encode}.  [None] on a malformed
    escape, except in [Lenient] mode.  An input that nothing rewrote comes
    back physically equal. *)

val encode_query : (string * string) list -> string
(** [k1=v1&k2=v2...] with percent-encoded keys and values. *)

val decode_query : string -> (string * string) list option
(** Inverse of {!encode_query}.  A bare key decodes to [(key, "")]. *)

val split_path_query : string -> string * string
(** [split_path_query "/a/b?x=1"] is [("/a/b", "x=1")]; no [?] gives an
    empty query. *)
