(** Obfuscated-traffic experiment (Sec. VI).

    The paper argues that its signatures still work when "an advertisement
    module uses one encryption key among applications or applies a
    cryptographic hash function to sensitive information": with a fixed key
    and fixed plaintext fields (the device identifiers), the ciphertext
    itself contains invariant substrings for the clustering to find.

    This module simulates such a service: a module that XOR-encrypts its
    reporting payload with a keystream shared across all embedding
    applications and ships it base64-encoded in a POST body.  The payload
    check cannot see the raw identifiers in these packets — the experiment
    measures how much of the leak the signature pipeline still catches. *)

val xor_crypt : string -> string
(** XOR with the service's fixed keystream (derived deterministically from
    the module's embedded key); an involution
    ([xor_crypt (xor_crypt s) = s]). *)

val leak_packet :
  Leakdetect_util.Prng.t -> Device.t -> package:string -> Leakdetect_http.Packet.t
(** An encrypted report carrying IMEI, SIM serial and Android ID:
    [POST /c/report] with body [v=2&d=<base64(xor(fields))>&r=<nonce>].
    The identifier fields precede the nonce, so every leak packet shares a
    constant ciphertext prefix. *)

val beacon_packet :
  Leakdetect_util.Prng.t -> Device.t -> package:string -> Leakdetect_http.Packet.t
(** The same service's heartbeat, carrying nothing sensitive. *)

val decode_leak : Leakdetect_http.Packet.t -> string option
(** Recovers the plaintext report from a leak packet (what the analyst's
    reverse engineering would see); [None] if the body does not parse. *)
