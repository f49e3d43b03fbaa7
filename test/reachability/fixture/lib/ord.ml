(* Used only as a functor argument. *)
type t = int

let compare = Int.compare
