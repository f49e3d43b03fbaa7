(** The simulated handset.

    The paper ran all 1,188 applications on one Galaxy Nexus S, so a single
    device instance backs a whole trace.  Identifiers are structurally valid
    — IMEI with a correct Luhn check digit, IMSI with a Japanese MCC/MNC,
    ICCID-format SIM serial, 16-hex-digit Android ID — because the payload
    check and the signature tokens operate on the literal wire strings. *)

type t = {
  imei : string;  (** 15 digits, Luhn-checked. *)
  imsi : string;  (** 15 digits, MCC 440 (Japan). *)
  sim_serial : string;  (** 19 digits, 8981-prefixed ICCID. *)
  android_id : string;  (** 16 lowercase hex digits. *)
  carrier : string;  (** One of the three Japanese carriers. *)
  model : string;  (** Handset model string sent by ad modules. *)
}

val create : Leakdetect_util.Prng.t -> t

val value : t -> Leakdetect_core.Sensitive.kind -> string
(** The wire representation of each sensitive-information kind: raw strings
    for identifiers and the carrier, MD5/SHA1 lowercase hex for the hashed
    kinds. *)

val needles : t -> (Leakdetect_core.Sensitive.kind * string) list
(** Payload-check needle table: every kind paired with its wire string. *)

val carriers : string array
