(* The check run on [fixture/]: its output must equal fixture.expected.
   The test directory is not a root. *)

let allow =
  [
    ("Used.oracle", "the fixture's stand-in for a test oracle");
    ("Used.via_alias", "stale: reached through the executable's alias");
    ("Used.removed", "stale: names nothing");
  ]

let () = exit (Reach.run ~allow [ "test/reachability/fixture/lib"; "test/reachability/fixture/bin" ])
