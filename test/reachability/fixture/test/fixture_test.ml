let () = assert (Fixture.Used.only_a_test_calls () = 0)
