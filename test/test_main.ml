(* Single alcotest runner over every library's suite. *)

let () =
  Alcotest.run "leakdetect"
    (Test_util.suite @ Test_text.suite @ Test_crypto.suite @ Test_compress.suite
   @ Test_net.suite @ Test_http.suite @ Test_cluster.suite @ Test_sketch.suite
   @ Test_core.suite @ Test_distance_view.suite
   @ Test_android.suite @ Test_monitor.suite @ Test_baseline.suite
   @ Test_extensions.suite @ Test_fault.suite @ Test_store.suite
   @ Test_parallel.suite @ Test_obs.suite @ Test_normalize.suite
   @ Test_adversary.suite @ Test_distrib.suite @ Test_integration.suite)
