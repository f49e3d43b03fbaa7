module U = Fixture.Used
module S = Set.Make (Fixture.Ord)

let () =
  let r = Fixture.Record.make () in
  let total =
    U.via_alias ()
    + List.hd (List.map U.passed_as_value [ 1 ])
    + U.area (U.Built 2)
    + Fixture.Extended.from_base () + Fixture.Extended.own ()
    + S.cardinal (S.of_list [ 1; 2 ])
    + Fixture.Exported.used_by_main ()
    + Fixture.Record.get (Fixture.Record.bump r)
    + Fixture.Reexport.by_reexport r
  in
  print_int total
