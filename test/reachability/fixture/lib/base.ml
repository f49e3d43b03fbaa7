let from_base () = 2
