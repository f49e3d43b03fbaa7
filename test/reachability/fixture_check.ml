(* The check run on [fixture/]: its output must equal fixture.expected.
   The test directory is not a root, but names exports. *)

let allow =
  [
    ("Used.oracle", "the fixture's stand-in for a test oracle");
    ("Used.via_alias", "stale: reached through the executable's alias");
    ("Used.removed", "stale: names nothing");
  ]

let fields = [ ("Record.t.by_pattern", "stale: read through a record pattern") ]
let exports = [ ("Exported.used_by_main", "stale: the executable names it") ]

let () =
  exit
    (Reach.run ~allow ~fields ~exports
       ~tests:[ "test/reachability/fixture/test" ]
       [ "test/reachability/fixture/lib"; "test/reachability/fixture/bin" ])
