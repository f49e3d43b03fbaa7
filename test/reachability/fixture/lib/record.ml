(* [written] is built and never read: reported.  [only_a_test_reads]
   likewise, since tests are not readers.  [by_pattern] is read only by
   a record pattern, [by_copy] only by a [with] copy, and [by_reexport]
   only through [Reexport.t]: none of them is reported. *)
type t = { written : int; only_a_test_reads : int; by_pattern : int; by_copy : int; by_reexport : int }

let make () = { written = 1; only_a_test_reads = 2; by_pattern = 3; by_copy = 4; by_reexport = 5 }

let bump r = { r with written = 0; only_a_test_reads = 0; by_pattern = 0; by_reexport = 0 }

let get { by_pattern; _ } = by_pattern
