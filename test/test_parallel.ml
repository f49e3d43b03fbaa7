(* Tests for Leakdetect_parallel: the domain pool itself, and qcheck
   properties asserting the parallel pipeline phases are bit-identical to
   sequential. *)

module Pool = Leakdetect_parallel.Pool
module Distance = Leakdetect_core.Distance
module Detector = Leakdetect_core.Detector
module Siggen = Leakdetect_core.Siggen
module Dist_matrix = Leakdetect_cluster.Dist_matrix
module Packet = Leakdetect_http.Packet
module Ipv4 = Leakdetect_net.Ipv4

let qtest = QCheck_alcotest.to_alcotest

let mk ?(ip = "74.125.1.2") ?(port = 80) ?(host = "r.admob.com")
    ?(rline = "GET /ad HTTP/1.1") ?(cookie = "") ?(body = "") () =
  Packet.v ~ip:(Option.get (Ipv4.of_string ip)) ~port ~host ~request_line:rline
    ~cookie ~body

(* --- pool primitives --- *)

let test_parallel_for_covers_all () =
  Pool.with_pool 4 (fun pool ->
      let n = 1000 in
      let hits = Array.make n 0 in
      Pool.parallel_for ~pool ~chunk:7 n (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool) "every index exactly once" true
        (Array.for_all (fun c -> c = 1) hits))

let test_parallel_for_sequential_fallback () =
  let n = 100 in
  let hits = Array.make n 0 in
  Pool.parallel_for ~pool:None n (fun i -> hits.(i) <- hits.(i) + 1);
  Alcotest.(check bool) "pool:None covers all indices" true
    (Array.for_all (fun c -> c = 1) hits)

let test_with_pool_sizes () =
  Pool.with_pool 1 (fun pool ->
      Alcotest.(check bool) "jobs=1 gives no pool" true (pool = None));
  Pool.with_pool 3 (fun pool ->
      match pool with
      | None -> Alcotest.fail "jobs=3 should give a pool"
      | Some p -> Alcotest.(check int) "pool size" 3 (Pool.size p))

let test_parallel_map_array_matches_sequential () =
  Pool.with_pool 4 (fun pool ->
      let a = Array.init 513 (fun i -> i * 3) in
      let expect = Array.map (fun x -> (x * x) + 1) a in
      let got = Pool.parallel_map_array ~pool (fun x -> (x * x) + 1) a in
      Alcotest.(check bool) "map identical" true (expect = got);
      let got_init = Pool.parallel_init ~pool 513 (fun i -> (i * 2) - 5) in
      Alcotest.(check bool) "init identical" true
        (Array.init 513 (fun i -> (i * 2) - 5) = got_init))

let test_parallel_for_with_scratch () =
  Pool.with_pool 4 (fun pool ->
      let inits = Atomic.make 0 in
      let n = 400 in
      let out = Array.make n 0 in
      Pool.parallel_for_with ~pool ~chunk:3
        ~init:(fun () ->
          Atomic.incr inits;
          Buffer.create 16)
        n
        (fun buf i ->
          Buffer.clear buf;
          Buffer.add_string buf (string_of_int i);
          out.(i) <- int_of_string (Buffer.contents buf));
      Alcotest.(check bool) "scratch results correct" true
        (Array.for_all (fun v -> v >= 0) out && out.(7) = 7 && out.(399) = 399);
      let k = Atomic.get inits in
      Alcotest.(check bool) "at most one init per domain" true (k >= 1 && k <= 4))

let test_exception_propagates_and_pool_survives () =
  Pool.with_pool 4 (fun pool ->
      (try
         Pool.parallel_for ~pool 100 (fun i -> if i = 41 then failwith "boom");
         Alcotest.fail "expected exception"
       with Failure m -> Alcotest.(check string) "first exception re-raised" "boom" m);
      (* The pool must remain usable after a failed job. *)
      let total = Atomic.make 0 in
      Pool.parallel_for ~pool 100 (fun i -> ignore (Atomic.fetch_and_add total i));
      Alcotest.(check int) "pool alive after failure" 4950 (Atomic.get total))

let test_guided_claims_are_coarse () =
  Pool.with_pool 4 (fun pool ->
      let p = Option.get pool in
      let n = 1000 in
      let hits = Array.make n 0 in
      Pool.parallel_for ~pool n (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool) "guided covers all indices" true
        (Array.for_all (fun c -> c = 1) hits);
      let guided = Pool.last_claims p in
      (* Every guided claim takes at least [chunk_floor] indices, so the
         claim count is bounded by n/floor plus CAS-race slack — versus one
         claim per index with the old fine-grained counter. *)
      Alcotest.(check bool)
        (Printf.sprintf "guided claims coarse (%d for n=%d)" guided n)
        true
        (guided >= 1 && guided <= (n / Pool.chunk_floor) + 4);
      (* An explicit chunk:1 is the old per-index behavior the guided mode
         replaces: ~n claim operations for the same loop. *)
      Pool.parallel_for ~pool ~chunk:1 n ignore;
      Alcotest.(check bool) "chunk:1 claims per index" true
        (Pool.last_claims p >= n / 2);
      Alcotest.(check bool) "guided is at least 4x coarser" true
        (guided * 4 <= n);
      (* Below two floors there is nothing to overlap: the job runs on the
         caller with zero claim traffic. *)
      Pool.parallel_for ~pool ((2 * Pool.chunk_floor) - 1) ignore;
      Alcotest.(check int) "tiny n runs sequentially, no claims" 0
        (Pool.last_claims p))

let test_warm_pool_reused () =
  Alcotest.(check bool) "warm jobs=1 is sequential" true (Pool.warm 1 = None);
  let a = Option.get (Pool.warm 3) in
  Alcotest.(check int) "warm pool size" 3 (Pool.size a);
  let b = Option.get (Pool.warm 3) in
  Alcotest.(check bool) "same physical pool across calls" true (a == b);
  let c = Option.get (Pool.warm 2) in
  Alcotest.(check bool) "distinct size gives distinct pool" true (a != c);
  (* Still a working pool, and usable repeatedly. *)
  let total = Atomic.make 0 in
  Pool.parallel_for ~pool:(Some a) 100 (fun i -> ignore (Atomic.fetch_and_add total i));
  Alcotest.(check int) "warm pool executes" 4950 (Atomic.get total);
  (* After an explicit registry shutdown, warm must hand out a fresh pool
     rather than the closed one. *)
  Pool.shutdown_warm ();
  let d = Option.get (Pool.warm 3) in
  Alcotest.(check bool) "fresh pool after shutdown_warm" true (a != d);
  Atomic.set total 0;
  Pool.parallel_for ~pool:(Some d) 100 (fun i -> ignore (Atomic.fetch_and_add total i));
  Alcotest.(check int) "fresh warm pool executes" 4950 (Atomic.get total)

let test_shutdown_idempotent () =
  let p = Pool.create 2 in
  Pool.shutdown p;
  Pool.shutdown p;
  (try
     Pool.parallel_for ~pool:(Some p) 10 ignore;
     Alcotest.fail "expected Invalid_argument after shutdown"
   with Invalid_argument _ -> ())

(* --- parallel/sequential equivalence properties --- *)

let packet_gen =
  QCheck.Gen.(
    let field = string_size ~gen:(char_range 'a' 'z') (0 -- 30) in
    let ip =
      map
        (fun (a, b) -> Printf.sprintf "%d.%d.1.2" (10 + (a mod 200)) (b mod 250))
        (pair small_nat small_nat)
    in
    map
      (fun (ip, (host, (rline, (cookie, body)))) ->
        mk ~ip
          ~host:(if host = "" then "h.example.com" else host ^ ".example.com")
          ~rline:("GET /" ^ rline ^ " HTTP/1.1")
          ~cookie ~body ())
      (pair ip (pair field (pair field (pair field field)))))

let packets_gen n_min n_max =
  QCheck.Gen.(map Array.of_list (list_size (n_min -- n_max) packet_gen))

let matrices_equal a b =
  Dist_matrix.size a = Dist_matrix.size b
  && begin
    let n = Dist_matrix.size a in
    let ok = ref true in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if Dist_matrix.get a i j <> Dist_matrix.get b i j then ok := false
      done
    done;
    !ok
  end

let prop_matrix_jobs_equivalence =
  QCheck.Test.make ~name:"Distance.matrix identical at jobs=1 vs jobs=4" ~count:15
    (QCheck.make (packets_gen 2 12)) (fun packets ->
      let seq = Distance.matrix (Distance.create ()) packets in
      let par =
        Pool.with_pool 4 (fun pool -> Distance.matrix ?pool (Distance.create ()) packets)
      in
      matrices_equal seq par)

let prop_detect_bitmap_jobs_equivalence =
  QCheck.Test.make ~name:"Detector.detect_bitmap identical at jobs=1 vs jobs=4"
    ~count:15
    (QCheck.make (packets_gen 1 40))
    (fun packets ->
      (* Sign a fixed, deterministic sample so only detection varies. *)
      let sample =
        [|
          mk ~rline:"GET /ad?imei=355021930123456&size=320x50 HTTP/1.1" ();
          mk ~host:"mm.admob.com"
            ~rline:"GET /ad?imei=355021930123456&size=640x100 HTTP/1.1" ();
          mk ~host:"data.flurry.com" ~rline:"POST /aap.do HTTP/1.1"
            ~body:"ak=aabb&u=9f8e7d" ();
        |]
      in
      let gen = Siggen.generate (Distance.create ()) sample in
      let det = Detector.create gen.Siggen.signatures in
      let seq = Detector.detect_bitmap det packets in
      let par = Pool.with_pool 4 (fun pool -> Detector.detect_bitmap ?pool det packets) in
      seq = par
      && Detector.count_detected det packets
         = Pool.with_pool 4 (fun pool -> Detector.count_detected ?pool det packets))

let suite =
  [
    ( "parallel",
      [
        Alcotest.test_case "parallel_for covers all indices" `Quick
          test_parallel_for_covers_all;
        Alcotest.test_case "sequential fallback" `Quick
          test_parallel_for_sequential_fallback;
        Alcotest.test_case "with_pool sizes" `Quick test_with_pool_sizes;
        Alcotest.test_case "map_array / init match sequential" `Quick
          test_parallel_map_array_matches_sequential;
        Alcotest.test_case "per-domain scratch" `Quick test_parallel_for_with_scratch;
        Alcotest.test_case "exception propagation" `Quick
          test_exception_propagates_and_pool_survives;
        Alcotest.test_case "guided claims are coarse" `Quick
          test_guided_claims_are_coarse;
        Alcotest.test_case "warm pool reused across calls" `Quick
          test_warm_pool_reused;
        Alcotest.test_case "shutdown idempotent" `Quick test_shutdown_idempotent;
        qtest prop_matrix_jobs_equivalence;
        qtest prop_detect_bitmap_jobs_equivalence;
      ] );
  ]
