(** HTTP header fields.  Names are case-insensitive per RFC 7230; insertion
    order is preserved for wire output so that generated packets are
    byte-stable. *)

type t

val empty : t
val of_list : (string * string) list -> t
val to_list : t -> (string * string) list
val add : t -> string -> string -> t
(** Appends; does not replace an existing field of the same name. *)

val replace : t -> string -> string -> t
val get : t -> string -> string option
(** First field with that (case-insensitive) name. *)

val remove : t -> string -> t
val mem : t -> string -> bool
