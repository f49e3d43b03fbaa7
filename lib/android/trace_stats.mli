(** Corpus statistics over a generated dataset — the quantities behind
    Tables I-III and Figure 2 of the paper. *)

type dest_row = { domain : string; packets : int; apps : int }

val table2 : Workload.dataset -> dest_row list
(** Packets and distinct applications per registrable destination domain,
    sorted by application count (Table II's ordering), all domains. *)

val table2_top : ?n:int -> Workload.dataset -> dest_row list

type kind_row = {
  kind : Leakdetect_core.Sensitive.kind;
  packets : int;
  apps : int;
  destinations : int;
}

val table3 : Workload.dataset -> kind_row list
(** Per sensitive-information kind: packets carrying it, applications
    sending it, distinct destination hosts receiving it (Table III). *)

type permission_row = { pattern : string; count : int }

val table1 : Workload.dataset -> permission_row list
(** Application counts per permission combination, descending. *)

val destinations_per_app : Workload.dataset -> int array
(** Distinct destination hosts actually contacted, per application (only
    applications that produced traffic). *)

type figure2_summary = {
  total_apps : int;
  one_destination : int;
  within_10 : int;
  within_16 : int;
  mean : float;
  max : int;
}

val figure2 : Workload.dataset -> figure2_summary

val totals : Workload.dataset -> int * int * int
(** (total packets, sensitive packets, normal packets). *)

type dangerous_summary = {
  dangerous_apps : int;
      (** Apps holding INTERNET plus at least one sensitive permission (the
          61% figure of Sec. III-A). *)
  leaking_apps : int;  (** Apps that actually sent sensitive information. *)
  leaking_without_dangerous : int;
      (** Leaking apps outside the dangerous set (Android ID and carrier
          need no permission, so this is non-empty by design). *)
}

val dangerous : Workload.dataset -> dangerous_summary
