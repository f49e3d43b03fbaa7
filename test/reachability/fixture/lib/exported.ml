let only_a_test_names () = 1

let only_its_unit_names () = 2

let used_by_main () = only_a_test_names () + only_its_unit_names ()
