(** Atomic point-in-time snapshots.

    A snapshot is one checksummed payload: an 8-byte magic (["LDSNAP01"])
    followed by the same [u32le length | u32le CRC-32 | payload] framing
    the WAL uses for records.  {!write} goes through a temp file in the
    same directory and [Sys.rename], so at every instant the snapshot
    path holds either the complete old image or the complete new one —
    never a partial write.

    A snapshot that fails its checksum is reported as [Error], not
    silently ignored: the caller decides whether to fall back to WAL-only
    recovery ([Leakdetect_distrib.Authority] does, and says so in its
    recovery report). *)

val write : string -> string -> unit
(** [write path payload]: atomically replace [path] with a snapshot of
    [payload]. *)

val read : string -> (string option, string) result
(** [Ok None] when no snapshot exists; [Ok (Some payload)] for an intact
    one; [Error] for a damaged header, frame or checksum. *)
