(** What the monitor knows about why a packet was flagged. *)

type t = {
  signature_id : int;
  tokens : string list;
  cluster_size : int;
  via : string list;
      (** The decode chain of the canonical view that matched
          ({!Leakdetect_normalize.Normalize.step_name}s, outermost first);
          [[]] means the raw bytes matched. *)
}

val of_signature : ?via:string list -> Leakdetect_core.Signature.t -> t
(** [via] defaults to [[]] (raw match). *)
