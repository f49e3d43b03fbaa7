(* Called through a module alias. *)
let via_alias () = 1

(* Passed as a function value, never applied by name. *)
let passed_as_value x = x + 1

(* Exported and called by nobody: reported. *)
let nobody_calls () = 0

(* Called only by a test: reported. *)
let only_a_test_calls () = 0

(* Used only by [oracle]: not reported either. *)
let helper_of_oracle () = 0

(* Unreached, but on the fixture allowlist: not reported. *)
let oracle () = helper_of_oracle ()

(* [Matched_only] is matched below but built nowhere: reported. *)
type shape = Built of int | Matched_only

let area = function Built n -> n | Matched_only -> 0
