(** Advertisement / analytics / content module families.

    Each family models one of the services of Table II (plus the two minor
    services named only in the text, zqapk and an IMSI-collecting SDK): its
    HTTP hosts, the IP block those hosts resolve into, a request template
    with fixed parameter order and optional polymorphic parameters, the
    sensitive-information kinds it transmits, and per-population calibration
    targets (how many of the 1,188 applications embed it, how many packets
    per application it emits).

    Families render two request forms, mirroring real ad SDKs:
    - the {e ad request} carrying the module's sensitive parameters, and
    - the {e beacon} (creative fetch / impression ping) that carries none.
    [sensitive_rate] is the probability a packet is an ad request. *)

type value_spec =
  | Sens of Leakdetect_core.Sensitive.kind
  | Opt_sens of Leakdetect_core.Sensitive.kind * float
      (** Included with the given probability — and only when the embedding
          application's permissions allow reading the kind. *)
  | Random_hex of int
  | Random_digits of int
  | Fixed of string
  | App_package
  | Seq  (** Per-application request counter. *)
  | Model
  | Screen
  | Locale

type meth = Get | Post

type family = {
  name : string;  (** Registrable domain, e.g. ["admob.com"]. *)
  hosts : string array;  (** FQDNs under the domain. *)
  ip_octets : int * int;  (** First two octets of the service's /16. *)
  port : int;
  paths : string array;
  meth : meth;
  ad_params : (string * value_spec) list;
  ad_variants : (float * (string * value_spec) list) list;
      (** Alternative ad-request forms with selection weights.  When
          non-empty, each ad request draws one form; modules that transmit
          different identifier kinds in different (rare) forms produce the
          mixed clusters behind the paper's false positives, whose rate
          therefore grows with the sample size N (Sec. VI). *)
  beacon_params : (string * value_spec) list;
  cookie_params : (string * value_spec) list;
  sensitive_rate : float;
  target_apps : int;  (** Table II "# Apps" calibration target. *)
  packets_per_app : float;  (** Table II packets / apps. *)
  needs_phone_state : bool;
      (** The module reads IMEI/IMSI/SIM and is only embedded by
          applications holding READ_PHONE_STATE. *)
}

val catalog : family list
(** All families, Table II order first, then the text-only services, then
    the content/CDN services. *)

val host_ip : family -> string -> Leakdetect_net.Ipv4.t
(** Deterministic address of one of the family's hosts, inside the family's
    /16 block. *)

val registry : unit -> Leakdetect_net.Registry.t
(** A WHOIS-like registry of every catalog family's /16 allocation, keyed
    by the family's registrant organization (Google and mediba properties
    are grouped under their real owners), for the Sec. VI
    registry-verified destination distance. *)

type app_context = {
  package : string;
  permissions : Permissions.combo;
  counter : int ref;  (** Shared per-app request counter. *)
}

val render :
  ?host:string ->
  Leakdetect_util.Prng.t ->
  Device.t ->
  app_context ->
  family ->
  Leakdetect_http.Packet.t
(** One packet from this family on behalf of the given application.
    Whether it is an ad request or a beacon is drawn from
    [sensitive_rate]; sensitive parameters the application's permissions do
    not allow are omitted (the module degrades gracefully, as real SDKs
    do).  [host] pins the endpoint (the workload keeps one sticky host per
    application and family, as a resolved SDK endpoint would be); default is
    a uniform pick among the family's hosts. *)
