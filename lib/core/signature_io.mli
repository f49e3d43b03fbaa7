(** Signature-set persistence.

    The Figure 3 architecture separates the generation server from the
    on-device application, which periodically fetches the signature set;
    this module defines the interchange format.  Line-oriented:

      id TAB mode TAB cluster_size TAB token1 TAB token2 ...

    with tokens escaped by {!Leakdetect_http.Trace.escape_field}
    (backslash, tab, newline and carriage return), the trace format's
    field codec. *)

val to_line : Signature.t -> string

val add_line : Buffer.t -> Signature.t -> unit
(** Append [to_line s] to the buffer: for a caller that frames the line
    with more fields, in one buffer. *)

val of_line : string -> (Signature.t, Leakdetect_util.Leak_error.t) result
(** Parse errors use the unified {!Leakdetect_util.Leak_error.t} shared
    with the wire and response parsers; render with
    {!Leakdetect_util.Leak_error.to_string}. *)

val save : string -> Signature.t list -> unit

val load :
  ?config:Pipeline_config.t ->
  string ->
  (Signature.t list * Leakdetect_http.Trace.skipped, string) result
(** Reads a signature file.  Like the trace readers, [`Fail] reports the
    first malformed line with its line number; [`Skip] salvages every
    parseable signature and counts the skipped lines, keeping a sample of
    the offending line numbers and errors.  The policy is
    [config.on_error] (default [`Fail]).  A file that cannot be opened or
    read is an [Error] too. *)
