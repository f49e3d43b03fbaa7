(** Aho-Corasick multi-pattern matching — the one needle kernel.

    The detector checks every packet against every token of every signature,
    and the payload check against every identifier and digest; scanning each
    needle separately makes whole-trace work quadratic in practice.  This
    automaton finds all occurrences of all patterns in one pass, after which
    conjunction signatures reduce to set membership.

    The goto function is one flat [int array] over byte classes: bytes that
    occur in no pattern share class 0, so a row has as many entries as the
    patterns have distinct bytes (plus one) rather than 256, and the scan is
    one class load and one table load per byte.  A {e caseless} automaton
    folds ['A'..'Z'] onto the classes of ['a'..'z'] in that map, matching
    case-insensitively without lower-casing the text. *)

type t

val build : ?caseless:bool -> string list -> t
(** [build patterns] compiles the automaton.  Pattern ids are positions in
    the list.  Duplicate patterns are allowed (each id reports separately).
    With [~caseless:true] every scan of a text [s] finds exactly the
    patterns the exact automaton finds in [String.lowercase_ascii s] — so a
    pattern containing an upper-case letter never matches.  The lower-cased text is never built.
    @raise Invalid_argument on an empty pattern. *)

val pattern_count : t -> int

val matched_set : t -> string -> bool array
(** [matched_set t text] has [true] at index [i] iff pattern [i] occurs in
    [text].  One pass over [text]. *)

val matched_set_into : t -> bool array -> string -> unit
(** [matched_set_into t buf text] is {!matched_set} writing into a caller
    -owned buffer of length {!pattern_count} (cleared first).  The automaton
    is immutable after {!build}, so one automaton may serve many domains as
    long as each brings its own buffer — this is the per-domain scratch used
    by parallel whole-trace detection.
    @raise Invalid_argument on a buffer of the wrong length. *)

(** Resumable matching.

    A {!Stream.state} is the automaton node reached so far — everything
    needed to continue a scan across fragment boundaries.  Feeding
    fragments [f1, f2, ...] finds exactly the patterns of scanning
    [f1 ^ f2 ^ ...] in one pass, including occurrences that span fragment
    seams, because the carried node encodes every live partial match.  The
    detector feeds a packet's three content fields and their separators
    this way without concatenating them; [?off]/[?len] scan slices of a
    caller-owned buffer in place. *)
module Stream : sig
  type state

  val create : unit -> state
  (** A fresh scan positioned at the automaton root. *)

  val reset : state -> unit
  (** Rewind to the root so the state can be reused for the next text —
      the detector keeps one state per scratch and resets it per packet
      instead of allocating. *)

  val feed_into : t -> state -> bool array -> ?off:int -> ?len:int -> string -> unit
  (** [feed_into t st seen text] scans the next fragment ([?off]/[?len]
      delimit a slice, default the whole string) and records the ids of
      the patterns that occur so far into [seen] (length {!pattern_count})
      {e without clearing it} — the matched set accumulates across
      fragments; clear it between texts.
      @raise Invalid_argument on a buffer of the wrong length or an
      out-of-bounds slice. *)

  val feed_pair_into :
    t -> state -> bool array -> t -> state -> bool array -> ?off:int -> ?len:int ->
    string -> unit
  (** [feed_pair_into a sa seen_a b sb seen_b text] is
      [feed_into a sa seen_a text] followed by [feed_into b sb seen_b text],
      done in one pass: the two walks are independent, so interleaving them
      overlaps their table lookups.  This is how an exact and a caseless
      automaton scan one packet together.
      @raise Invalid_argument on a buffer of the wrong length or an
      out-of-bounds slice. *)
end
