(* Re-exports [Record.t]: one declaration, so its fields are not
   reported twice, and a read through this type reads [Record.t]'s. *)
type t = Record.t = {
  written : int;
  only_a_test_reads : int;
  by_pattern : int;
  by_copy : int;
  by_reexport : int;
}

let by_reexport (r : t) = r.by_reexport
