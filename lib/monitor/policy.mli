(** Per-application transmission policy for the information-flow-control
    application (Fig. 3b).  The paper's goal is that a user can let an
    application's benign traffic through uninterrupted but be prompted when
    it is about to transmit sensitive information. *)

type action = Allow | Block | Prompt

type rule = {
  on_sensitive : action;  (** Applied when a signature matches. *)
  on_benign : action;  (** Applied otherwise; normally [Allow]. *)
}

val default_rule : rule
(** Prompt on sensitive, allow benign — the paper's intended user
    experience. *)

type t

val create : ?default:rule -> unit -> t
val set_rule : t -> app_id:int -> rule -> unit
val rule_for : t -> app_id:int -> rule
