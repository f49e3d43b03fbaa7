(** Append-only write-ahead log of checksummed records.

    On-disk layout: an 8-byte magic header ({!magic}), then zero or more
    records, each framed as

      u32le payload length | u32le CRC-32 of payload | payload bytes

    Appends are flushed before {!append} returns, so a record is
    *committed* once [append] comes back; a crash mid-append leaves a torn
    tail that {!read} detects and reports rather than propagating.

    Reading is salvage-oriented: {!read} returns every record up to the
    first undecodable one, plus a {!tail} describing why and where the
    scan stopped.  A torn or bit-flipped tail never raises — the damaged
    suffix is simply reported as dropped bytes.  Only header damage (the
    file does not start with {!magic}) is fatal, because then nothing
    about the framing can be trusted. *)

val magic : string
(** ["LDWAL001"], 8 bytes. *)

val frame : string -> string
(** [frame payload] is the on-disk framing of one record (no header). *)

val get_u32le : string -> int -> int
(** Read the little-endian 32-bit field at an offset (shared with the
    snapshot format).  @raise Invalid_argument past the end. *)

(** {1 Writing} *)

type writer

val create : string -> writer
(** Truncate/create the file and write the header. *)

val open_append : string -> (writer, string) result
(** Open an existing log for appending, validating the header; creates
    the file (with header) if absent.  The caller is responsible for
    repairing a torn tail first — see {!repair}. *)

val append : writer -> string -> unit
(** Append one record and flush. *)

val size : writer -> int
(** Bytes committed so far, header included. *)

val close : writer -> unit

(** {1 Reading and recovery} *)

type tail =
  | Clean  (** The scan consumed the file exactly. *)
  | Torn of { offset : int; dropped_bytes : int; reason : string }
      (** The first undecodable record starts at [offset]; everything from
          there to end-of-file ([dropped_bytes] bytes) was not salvaged. *)

val tail_to_string : tail -> string

val read : string -> (string list * tail, string) result
(** Salvage-scan a log file: all records before the first undecodable
    one, in append order.  [Error] only on a missing/garbled header or an
    unreadable file. *)

val read_string : string -> (string list * tail, string) result
(** {!read} over an in-memory log image (for crash-point simulation). *)

val repair : string -> (tail, string) result
(** Truncate the file in place at the first undecodable record so that
    subsequent appends extend a clean log.  Returns what was cut. *)
