(** The slice of the Android permission model the paper analyzes (Sec. II-B,
    III-A): the [INTERNET] permission plus the three sensitive-information
    permissions of Table I, with the full Table I population breakdown. *)

type combo = {
  internet : bool;
  location : bool;
  phone_state : bool;
  contacts : bool;
}

val dangerous : combo -> bool
(** The paper's "dangerous combination": [INTERNET] together with at least
    one sensitive permission. *)

val pattern : combo -> string
(** Table I row pattern, e.g. ["X"; "X"; ""; ""] rendered as ["X X - -"]. *)

(** Table I population.  The five printed rows (302 / 329 / 153 / 148 / 23)
    are reproduced exactly; the 233 applications the table omits are modeled
    as [INTERNET]+[READ_CONTACTS], the nearest unlisted combination (the
    paper's own marginals are inconsistent — see EXPERIMENTS.md). *)

val table1_rows : (combo * int) list
(** (combination, application count), in Table I order, plus the extra
    row.  Counts sum to 1188. *)

val population : Leakdetect_util.Prng.t -> combo array
(** A shuffled 1188-element population drawn exactly from
    {!table1_rows}. *)

val allows_kind : combo -> Leakdetect_core.Sensitive.kind -> bool
(** Which sensitive kinds an application holding [combo] can read:
    IMEI/IMSI/SIM serial (and their hashes) need [READ_PHONE_STATE]; the
    Android ID and carrier name are readable without any permission. *)
