(** Deterministic fault injection for resilience testing.

    A {!plan} is a seeded source of faults: byte corruption, truncation,
    record drops, duplicated records, simulated response delays and
    transient server errors, each fired independently at a configurable
    rate.  All randomness comes from {!Leakdetect_util.Prng}, so a plan is
    fully determined by its seed — a test can replay the exact fault
    schedule and assert recovery against it.  Every fault that fires is
    counted by {!kind}.

    At rate 0 every injector is the identity: no draw can fire, nothing is
    counted and payloads pass through byte-identical.  This is the anchor
    for the "fault-free run reproduces baseline metrics exactly" property
    the chaos soak checks. *)

type kind =
  | Corrupt
  | Truncate
  | Drop
  | Duplicate
  | Delay
  | Server_error
  | Crash  (** A write dies partway through: only a prefix reaches disk. *)
  | Torn_write
      (** Committed storage bytes are damaged: a bit flip inside a committed
          record, or a tail record replayed (duplicated) by a half-applied
          rewrite. *)

val kind_name : kind -> string
val all_kinds : kind list

type config = {
  corrupt_rate : float;  (** Probability a payload gets bytes flipped. *)
  corrupt_bytes : int;  (** Bytes flipped per corruption (>= 1). *)
  truncate_rate : float;  (** Probability a payload loses its tail. *)
  drop_rate : float;  (** Probability a stream record is dropped. *)
  duplicate_rate : float;  (** Probability a stream record is doubled. *)
  delay_rate : float;  (** Probability a server interaction is delayed. *)
  max_delay : int;  (** Upper bound on delay, in simulated ticks. *)
  server_error_rate : float;  (** Probability of a transient server error. *)
  crash_rate : float;  (** Probability a storage write is cut short. *)
  torn_write_rate : float;  (** Probability committed bytes get damaged. *)
}

val default : config
(** The chaos-soak default: 10% corruption, 20% transient server errors,
    10% crash points, light truncation / drop / duplication / delay /
    torn writes. *)

type plan

val create : seed:int -> config -> plan

val count : plan -> kind -> int

val summary : plan -> (kind * int) list
(** Counts for every kind (including zeroes), in {!all_kinds} order. *)

val corrupt_string : plan -> string -> string
(** Byte-level injector: may flip [corrupt_bytes] bytes (each XORed with a
    non-zero mask, so a hit always changes the payload) and may then drop a
    suffix.  Empty strings pass through untouched. *)

val apply_stream : plan -> 'a list -> 'a list
(** Record-level injector: each element is independently dropped, doubled
    or passed through. *)

val crash_point : plan -> len:int -> int option
(** Storage-crash injector: with probability [crash_rate], [Some n] with
    [0 <= n < len] — the process dies after [n] bytes of a [len]-byte
    write reach disk.  [None] (the write completes) otherwise, always at
    rate 0, and always when [len <= 0]. *)

val torn_write : plan -> protect:int -> tail_start:int -> string -> string
(** Committed-bytes injector for a log image: with probability
    [torn_write_rate] either flips one bit of a byte at offset
    [>= protect] (the protected file header) or appends a copy of the
    tail record starting at [tail_start].  Identity otherwise, and on
    images no longer than [protect]. *)

type server_fate = Respond | Respond_delayed of int | Fail of int

val server_fate : plan -> server_fate
(** Fate of one server interaction: a transient error (HTTP status to fail
    with), a delayed-but-successful response (ticks in [1, max_delay]), or
    a normal response. *)

val transport :
  plan -> (string -> (string, string) result) -> string -> (string, string) result
(** [transport plan server] is [server] (printed request bytes in,
    printed response bytes out) behind a faulty link.  Each call draws,
    in order: the {!server_fate} ([Fail] answers [Error]; a delay is
    counted as a {!Delay} and otherwise passes), then for the
    request and again for the response a {!apply_stream} drop/duplicate
    draw (a drop answers [Error]) and a {!corrupt_string} pass. *)
