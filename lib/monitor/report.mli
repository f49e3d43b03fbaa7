(** Audit reporting over the flow-control log — what the paper's user would
    review to decide per-application policy ("manage suspicious
    applications' network behavior in a fine grained manner"). *)

type app_summary = {
  app_id : int;
  packets : int;  (** Packets inspected for this app. *)
  flagged : int;  (** Packets that matched a signature. *)
  blocked : int;
  prompted : int;
  destinations : string list;  (** Distinct hosts of flagged packets. *)
}

val per_app : Flow_control.t -> app_summary list
(** One summary per application seen in the log, ordered by flagged count
    (most suspicious first), ties by app id. *)

val most_suspicious : ?limit:int -> Flow_control.t -> app_summary list

val render : ?limit:int -> Flow_control.t -> string
(** Plain-text table of {!most_suspicious} (default limit 20). *)
