let () = assert (Fixture.Used.only_a_test_calls () = 0)
let () = assert (Fixture.Exported.only_a_test_names () = 1)
let () = assert ((Fixture.Record.make ()).only_a_test_reads = 2)
