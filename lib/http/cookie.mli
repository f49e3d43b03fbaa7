(** Cookie request-header values ([k1=v1; k2=v2]).  The paper's content
    distance treats the cookie field as one of the three compared strings
    (Sec. IV-C), and several simulated ad modules carry identifiers there. *)

val to_string : (string * string) list -> string
