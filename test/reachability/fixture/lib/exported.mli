(* [main] names [used_by_main]. *)
val used_by_main : unit -> int

(* Named outside this unit only by a test: not reported. *)
val only_a_test_names : unit -> int

(* Named by no other unit: reported. *)
val only_its_unit_names : unit -> int
