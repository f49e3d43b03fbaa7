(** Plain-text table rendering for the benchmark harness.  Every reproduced
    paper table is printed through this module so the output is uniform and
    diffable. *)

type align = Left | Right

val render :
  ?title:string -> columns:(string * align) list -> string list list -> string
(** [render ~title ~columns rows] lays the rows out with padded columns, a
    header rule, and an optional title line.  Rows shorter than the header are
    right-padded with empty cells; longer rows are truncated. *)
