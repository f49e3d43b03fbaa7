(** Binary trace format.

    The text format ({!Trace}) is greppable but costs escaping and ~30%
    size; full-scale traces (100k+ packets) are better served by this
    length-prefixed binary layout:

    - header: magic ["LDTB"], format version (1 byte), record count (u32 LE);
    - per record: app id (u32), IPv4 (u32), port (u16), then host /
      request-line / cookie / body / each label as (u32 length, bytes),
      preceded by a u16 label count.

    All integers little-endian.  {!load} validates the magic, version and
    every length field against the remaining input.

    In [`Skip] mode a bad header (magic / version) is still an error, but a
    corrupt record salvages everything decoded before it: the stream is
    length-prefixed with no sync markers, so the remainder is counted as
    skipped rather than resynced. *)

val magic : string

val save : string -> Trace.record list -> unit

val load :
  ?on_error:Trace.on_error -> string -> (Trace.record list * Trace.skipped, string) result
(** Reads and decodes a binary trace file; a file that cannot be opened or
    read is an [Error]. *)

val encode : Trace.record list -> string
(** In-memory encoding (what {!save} writes). *)

val decode :
  ?on_error:Trace.on_error -> string -> (Trace.record list * Trace.skipped, string) result
