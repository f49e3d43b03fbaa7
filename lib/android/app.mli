(** A simulated application: its permission combination, embedded
    advertisement/analytics modules, and its own backend destinations (the
    long tail of Figure 2). *)

type backend = {
  host : string;
  ip : Leakdetect_net.Ipv4.t;
  weight : float;  (** Relative share of the app's backend traffic. *)
}

type t = {
  id : int;
  package : string;
  permissions : Permissions.combo;
  modules : (Ad_module.family * string) list;
      (** Embedded module families, each with the sticky host this app's
          copy of the SDK talks to. *)
  backends : backend list;
      (** With [modules], these realize the app's destination-count draw
          from the Figure 2 fit. *)
  leaks_android_id : bool;
      (** The app reports the Android ID to its own backends (first-party
          leak), spreading sensitive traffic over long-tail destinations as
          Table III's destination counts show. *)
  leaks_imei : bool;  (** Same for the IMEI; requires READ_PHONE_STATE. *)
}

val render_backend_packet :
  Leakdetect_util.Prng.t -> Device.t -> t -> backend -> Leakdetect_http.Packet.t
(** A first-party request (API call, image fetch, feed poll); carries
    identifiers only when the app's leak flags say so. *)
