(** The evasion catalogue: transformations a leaking application could
    apply to its traffic to slip past byte-exact signature matching.

    Each mutator rewrites one packet's content triple; the sensitive data
    is still transmitted (the attacker's goal is exfiltration, not
    destruction), only its encoding or framing changes.  The harness
    replays mutated ground-truth leaks through the detector to measure how
    much recall each evasion costs — and how much of it the
    canonicalization lattice ({!Leakdetect_normalize.Normalize}) buys
    back. *)

type class_ =
  | Decodable
      (** A single lossless decode step restores the original bytes; the
          normalize-enabled detector is expected to recover these, so they
          count toward the evade recall floor. *)
  | Layered
      (** Two stacked decodable encodings; recovered while the lattice
          depth budget allows, but excluded from the single-layer floor. *)
  | Structural
      (** Reshapes the payload (split fields, …) rather than re-encoding
          it; no decode restores the original, so detection is expected to
          degrade.  Reported for honesty, never gated. *)
  | Control
      (** Adds noise without hiding anything; recall should not move.  A
          sanity anchor for the harness itself. *)

val class_name : class_ -> string

type t = {
  name : string;
  class_ : class_;
  apply : Leakdetect_util.Prng.t -> Leakdetect_http.Packet.t -> Leakdetect_http.Packet.t;
      (** Rewrites one packet.  Deterministic given the PRNG state; the
          PRNG is only drawn from for mutators that need randomness (noise
          payloads, split points), so deterministic mutators are
          reproducible byte-for-byte. *)
}

val all : t list
(** The full catalogue, floor-relevant mutators first:
    [percent], [percent-all], [base64], [base64url], [hex], [case],
    [chunked] (decodable); [double] (layered); [split] (structural);
    [noise] (control). *)

val by_name : string -> t option
val names : unit -> string list
