(** What the monitor knows about why a packet was flagged. *)

type t = { signature_id : int }

val of_signature : Leakdetect_core.Signature.t -> t
