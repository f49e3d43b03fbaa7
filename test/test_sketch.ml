(* Tests for Leakdetect_sketch: shingling, minhash signatures, banded LSH
   bucketing and the composed prefilter. *)

open Leakdetect_sketch
module Prng = Leakdetect_util.Prng
module Pool = Leakdetect_parallel.Pool

let qtest = QCheck_alcotest.to_alcotest

(* --- Shingle --- *)

let test_shingle_basic () =
  let s = Shingle.set ~n:4 "abcdefgh" in
  Alcotest.(check int) "five 4-gram windows" 5 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check bool) "sorted" true (s = sorted);
  Alcotest.(check int) "empty string has empty set" 0 (Array.length (Shingle.set ""));
  Alcotest.(check int) "short string is one shingle" 1 (Array.length (Shingle.set ~n:8 "abc"));
  Alcotest.(check int) "repetition dedups" 1 (Array.length (Shingle.set ~n:1 "aaaaaa"));
  Alcotest.check_raises "n = 0 rejected" (Invalid_argument "Shingle.set: n must be >= 1")
    (fun () -> ignore (Shingle.set ~n:0 "abc"))

(* A window of exactly [n] bytes is one shingle, so a string's set is the
   union of its windows' sets. *)
let prop_shingle_union_of_windows =
  QCheck.Test.make ~name:"shingle set = union of its windows" ~count:300
    QCheck.(pair (int_range 1 6) (string_gen_of_size Gen.(0 -- 40) (Gen.oneofl [ 'a'; 'b'; 'c' ])))
    (fun (n, s) ->
      let set = Shingle.set ~n s in
      let len = String.length s in
      if len < n then Array.length set = (if len = 0 then 0 else 1)
      else
        let windows =
          List.init (len - n + 1) (fun i -> Shingle.set ~n (String.sub s i n))
        in
        List.for_all (fun w -> Array.length w = 1) windows
        && Array.to_list set
           = List.sort_uniq compare (List.concat_map Array.to_list windows))

let test_shingle_jaccard () =
  let a = Shingle.set "the quick brown fox jumps over the lazy dog" in
  Alcotest.(check (float 1e-9)) "self similarity" 1. (Shingle.jaccard a a);
  Alcotest.(check (float 1e-9)) "both empty" 1. (Shingle.jaccard [||] [||]);
  Alcotest.(check (float 1e-9)) "empty vs non-empty" 0. (Shingle.jaccard a [||]);
  let b = Shingle.set "completely unrelated payload 0123456789xyzw" in
  Alcotest.(check bool) "disjoint strings near 0" true (Shingle.jaccard a b < 0.05);
  Alcotest.(check (float 1e-9)) "symmetric" (Shingle.jaccard a b) (Shingle.jaccard b a)

(* Two synthetic shingle sets with an exactly known overlap: A = [0, na),
   B = [na - overlap, na - overlap + nb).  Elements are injected through
   an affine map so they look like hash values rather than tiny ints. *)
let overlap_sets na nb overlap =
  let inject i = (i * 2654435761) land 0x3fffffffffffff in
  let a = Array.init na inject in
  let b = Array.init nb (fun i -> inject (na - overlap + i)) in
  Array.sort compare a;
  Array.sort compare b;
  (a, b)

(* --- Minhash --- *)

let test_minhash_identical_and_empty () =
  let mh = Minhash.create ~hashes:64 ~seed:1 in
  let a, _ = overlap_sets 50 1 0 in
  Alcotest.(check (float 1e-9)) "identical sets estimate 1" 1.
    (Minhash.estimate (Minhash.signature mh a) (Minhash.signature mh a));
  let empty = Minhash.signature mh [||] in
  Alcotest.(check (float 1e-9)) "two empty sets estimate 1" 1.
    (Minhash.estimate empty empty);
  Alcotest.(check bool) "empty slots are the sentinel" true
    (Array.for_all (Int64.equal Minhash.empty_slot) empty);
  Alcotest.(check (float 1e-9)) "empty vs non-empty estimate 0" 0.
    (Minhash.estimate empty (Minhash.signature mh a))

let test_minhash_deterministic () =
  let a, b = overlap_sets 40 40 20 in
  let s1 = Minhash.signature (Minhash.create ~hashes:128 ~seed:7) a in
  let s2 = Minhash.signature (Minhash.create ~hashes:128 ~seed:7) a in
  Alcotest.(check bool) "same seed, same signature" true (s1 = s2);
  let s3 = Minhash.signature (Minhash.create ~hashes:128 ~seed:8) b in
  Alcotest.(check bool) "independent of another set" true (Array.length s3 = 128)

(* Satellite property: the minhash estimate lands within a few standard
   errors of the exact Jaccard.  With 256 hashes the standard error is at
   most sqrt(0.25/256) ~ 0.031, so 0.2 is beyond 6 sigma — effectively
   never flaky, while still catching any bias or indexing bug. *)
let prop_minhash_close_to_jaccard =
  QCheck.Test.make ~count:60 ~name:"minhash estimate ~ exact jaccard"
    QCheck.(triple (int_range 1 120) (int_range 1 120) (int_range 0 1000))
    (fun (na, nb, salt) ->
      let overlap = salt mod (1 + min na nb) in
      let a, b = overlap_sets na nb overlap in
      let exact = Shingle.jaccard a b in
      let mh = Minhash.create ~hashes:256 ~seed:salt in
      let est = Minhash.estimate (Minhash.signature mh a) (Minhash.signature mh b) in
      Float.abs (est -. exact) <= 0.2)

(* --- Lsh --- *)

let prop_lsh_partition =
  QCheck.Test.make ~count:50 ~name:"lsh buckets partition the index space"
    QCheck.(pair (int_range 0 40) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Prng.create seed in
      let mh = Minhash.create ~hashes:16 ~seed in
      let sigs =
        Array.init n (fun _ ->
            let size = 1 + Prng.int rng 30 in
            let set = Array.init size (fun _ -> Prng.bits30 rng) in
            Array.sort compare set;
            Minhash.signature mh set)
      in
      let buckets = Lsh.buckets ~bands:4 ~rows:4 sigs in
      let seen = Array.make n 0 in
      List.iter (List.iter (fun i -> seen.(i) <- seen.(i) + 1)) buckets;
      Array.for_all (fun c -> c = 1) seen
      && List.for_all (fun b -> List.sort compare b = b) buckets)

let test_lsh_identical_collide () =
  let mh = Minhash.create ~hashes:16 ~seed:3 in
  let a, b = overlap_sets 30 25 0 in
  let sa = Minhash.signature mh a and sb = Minhash.signature mh b in
  (* Identical signatures always share every band; disjoint sets share a
     band only by accident of 64-bit minima, which does not happen. *)
  let buckets = Lsh.buckets ~bands:4 ~rows:4 [| sa; sb; sa; sa |] in
  Alcotest.(check (list (list int))) "identical items in one bucket, first-member order"
    [ [ 0; 2; 3 ]; [ 1 ] ] buckets

let test_lsh_threshold () =
  let t = Lsh.threshold ~bands:32 ~rows:4 in
  Alcotest.(check bool) "threshold in (0,1)" true (t > 0. && t < 1.);
  (* The chance two items at Jaccard [t] share a band: 1 - (1 - t^rows)^bands. *)
  let p = 1. -. ((1. -. (t ** 4.)) ** 32.) in
  Alcotest.(check bool) "threshold sits mid-curve" true (p > 0.2 && p < 0.9)

(* --- Sketch --- *)

let test_sketch_validate () =
  Alcotest.(check bool) "default valid" true (Sketch.validate Sketch.default = Ok ());
  let bad f = Sketch.validate f <> Ok () in
  Alcotest.(check bool) "bands*rows > hashes" true
    (bad { Sketch.default with Sketch.hashes = 8; bands = 4; rows = 4 });
  Alcotest.(check bool) "zero shingle" true (bad { Sketch.default with Sketch.shingle_len = 0 });
  Alcotest.(check bool) "max_bucket 1" true (bad { Sketch.default with Sketch.max_bucket = 1 });
  Alcotest.check_raises "bucket rejects invalid params"
    (Invalid_argument "Sketch: bands * rows must not exceed hashes") (fun () ->
      ignore
        (Sketch.bucket { Sketch.default with Sketch.hashes = 4 } [| "a" |]))

let payload kind i =
  match kind with
  | `A -> Printf.sprintf "GET /ad/sdk/img?aid=jp.co.a%d&imei=355021930123456&size=320x50" (i mod 3)
  | `B -> Printf.sprintf "ak=k%d&u=77c7d1a2b3c4d5e6f708192a3b4c5d6e7f809101&v=FL_2.2" (i mod 3)

let test_sketch_buckets_groups () =
  let payloads =
    Array.init 12 (fun i -> if i < 6 then payload `A i else payload `B i)
  in
  let buckets = Sketch.bucket Sketch.default payloads in
  (* Near-duplicate families collide; the two families are shingle-disjoint
     enough that no band joins them. *)
  Alcotest.(check (list (list int))) "two family buckets"
    [ [ 0; 1; 2; 3; 4; 5 ]; [ 6; 7; 8; 9; 10; 11 ] ]
    buckets

let test_sketch_max_bucket_split () =
  let payloads = Array.make 10 (payload `A 0) in
  let buckets =
    Sketch.bucket { Sketch.default with Sketch.max_bucket = 4 } payloads
  in
  Alcotest.(check (list (list int))) "deterministic consecutive slices"
    [ [ 0; 1; 2; 3 ]; [ 4; 5; 6; 7 ]; [ 8; 9 ] ]
    buckets

let prop_sketch_jobs_equivalence =
  QCheck.Test.make ~count:10 ~name:"sketch bucketing identical at jobs=1 and jobs=4"
    QCheck.(pair (int_range 0 60) (int_range 0 1000))
    (fun (n, seed) ->
      let rng = Prng.create seed in
      let payloads =
        Array.init n (fun i ->
            match Prng.int rng 3 with
            | 0 -> payload `A i
            | 1 -> payload `B i
            | _ -> Printf.sprintf "unique-%d-%d" (Prng.bits30 rng) i)
      in
      let sequential = Sketch.bucket Sketch.default payloads in
      Fixtures.with_pool 4 (fun pool ->
          let parallel = Sketch.bucket ?pool Sketch.default payloads in
          sequential = parallel))

(* --- Differential properties against the boxed-Int64 kernels --- *)

(* Strings shaped for the shingle kernel's edges: empty, no longer than
   one window, a run of one byte (every window hashes alike, so the set
   dedups to one element), and random bytes over the full byte range. *)
let shingle_input_gen n =
  QCheck.Gen.(
    frequency
      [
        (1, return "");
        (3, string_size ~gen:char (0 -- n));
        (2, map2 (fun c len -> String.make len c) char (1 -- 200));
        (6, string_size ~gen:char (0 -- 400));
      ])

let prop_shingle_matches_oracle =
  QCheck.Test.make ~count:500 ~name:"shingle set = boxed-Int64 oracle"
    QCheck.(
      make ~print:(fun (n, s) -> Printf.sprintf "n=%d %S" n s)
        Gen.(int_range 1 8 >>= fun n -> map (fun s -> (n, s)) (shingle_input_gen n)))
    (fun (n, s) -> Shingle.set ~n s = Sketch_oracle.shingle_set ~n s)

(* Shingle sets as [Shingle.set] makes them (sorted, distinct, in
   [0, 2^62)), sized to hit the minhash kernel's edges: the empty set,
   one shingle (each slot is then one hash, so about half the slots hold
   a value with the top bit set, which an unsigned minimum started at
   [Int64.max_int] must keep as [Int64.max_int]), two shingles, and
   random sets of up to 600. *)
let shingle_set_gen =
  QCheck.Gen.(
    let elt = map (fun x -> x land 0x3fffffffffffffff) int in
    frequency
      [
        (1, return [||]);
        (2, map (fun x -> [| x |]) elt);
        (2, map2 (fun a b -> [| a; b |]) elt elt);
        (5, array_size (0 -- 600) elt);
      ]
    >|= fun a -> Array.of_list (List.sort_uniq compare (Array.to_list a)))

let prop_minhash_matches_oracle =
  QCheck.Test.make ~count:300 ~name:"minhash signature = boxed-Int64 oracle"
    QCheck.(
      make
        ~print:(fun (h, seed, set) ->
          Printf.sprintf "hashes=%d seed=%d |set|=%d" h seed (Array.length set))
        Gen.(triple (int_range 1 128) (int_range 0 10_000) shingle_set_gen))
    (fun (hashes, seed, set) ->
      let sig_ = Minhash.signature (Minhash.create ~hashes ~seed) set in
      sig_ = Sketch_oracle.signature (Sketch_oracle.minhash_create ~hashes ~seed) set)

(* Payload families with near-duplicates, so the banding has components
   to find: [prefix] variants of a few templates plus unrelated noise. *)
let family_payloads rng n =
  Array.init n (fun i ->
      match Prng.int rng 4 with
      | 0 -> payload `A (Prng.int rng 7)
      | 1 -> payload `B (Prng.int rng 7)
      | 2 -> Printf.sprintf "GET /c/%d?id=%d&k=v" (Prng.int rng 3) (Prng.int rng 5)
      | _ -> Printf.sprintf "unique-%d-%d" (Prng.bits30 rng) i)

let prop_lsh_matches_oracle =
  QCheck.Test.make ~count:100 ~name:"lsh buckets = boxed-Int64 oracle"
    QCheck.(triple (int_range 0 80) (int_range 1 8) (int_range 0 1000))
    (fun (n, rows, seed) ->
      let rng = Prng.create seed in
      let p = { Sketch.default with Sketch.hashes = 32; bands = 32 / rows; rows } in
      let sigs = Sketch.signatures p (family_payloads rng n) in
      Lsh.buckets ~bands:p.Sketch.bands ~rows sigs
      = Sketch_oracle.lsh_buckets ~bands:p.Sketch.bands ~rows sigs)

(* Caps of 2..8 against families of up to a dozen near-duplicates: most
   components exceed the cap, so refinement (down to the all-identical
   slice) runs, and the singletons it strands exercise rescue. *)
let prop_sketch_bucket_matches_oracle =
  QCheck.Test.make ~count:100 ~name:"sketch bucket = boxed-Int64 oracle at max_bucket 2..8"
    QCheck.(triple (int_range 0 80) (int_range 2 8) (int_range 0 1000))
    (fun (n, max_bucket, seed) ->
      let payloads = family_payloads (Prng.create seed) n in
      let p = { Sketch.default with Sketch.max_bucket } in
      Sketch.signatures p payloads = Sketch_oracle.signatures p payloads
      && Sketch.bucket p payloads = Sketch_oracle.bucket p payloads)

(* Known answers: the minhash signatures and the bucket lists of a fixed
   sample — 100 suspicious packets of the scale-0.02 seed-42 trace, drawn
   as [leakdetect sign --seed 42 --sample 100] draws them — each as a
   CRC32, pinned from the boxed-Int64 kernels that [Sketch_oracle] keeps.
   Every slot and every bucket member feeds the checksum, so a kernel
   change that moves one bit of one signature, or one member of one
   bucket, fails here.  [max_bucket = 8] forces refinement and rescue,
   which the default cap of 256 never reaches on this sample. *)
let pinned_payloads =
  lazy
    (let ds = Leakdetect_android.Workload.generate ~seed:42 ~scale:0.02 () in
     let suspicious, _ = Leakdetect_android.Workload.split ds in
     let sample =
       Leakdetect_util.Sample.without_replacement (Prng.create 42) 100 suspicious
     in
     Array.map Leakdetect_http.Packet.content_string sample)

let crc_of_lines lines =
  let module Crc32 = Leakdetect_util.Crc32 in
  Crc32.to_hex (Crc32.string (String.concat "\n" lines))

let signatures_crc sigs =
  crc_of_lines
    (Array.to_list
       (Array.map
          (fun s -> String.concat " " (Array.to_list (Array.map (Printf.sprintf "%016Lx") s)))
          sigs))

let buckets_crc buckets =
  crc_of_lines (List.map (fun b -> String.concat "," (List.map string_of_int b)) buckets)

let test_sketch_known_answers () =
  let payloads = Lazy.force pinned_payloads in
  Alcotest.(check int) "sample size" 100 (Array.length payloads);
  let sigs = Sketch.signatures Sketch.default payloads in
  Alcotest.(check string) "signatures CRC32" "bb800b0e" (signatures_crc sigs);
  let buckets = Sketch.bucket Sketch.default payloads in
  Alcotest.(check int) "default buckets" 15 (List.length buckets);
  Alcotest.(check string) "default buckets CRC32" "57f28e0d" (buckets_crc buckets);
  let capped = Sketch.bucket { Sketch.default with Sketch.max_bucket = 8 } payloads in
  Alcotest.(check string) "max_bucket 8 buckets CRC32" "debf59b5" (buckets_crc capped)

let suite =
  [
    ( "sketch.shingle",
      [
        Alcotest.test_case "basics" `Quick test_shingle_basic;
        Alcotest.test_case "jaccard" `Quick test_shingle_jaccard;
        qtest prop_shingle_union_of_windows;
        qtest prop_shingle_matches_oracle;
      ] );
    ( "sketch.minhash",
      [
        Alcotest.test_case "identical and empty" `Quick test_minhash_identical_and_empty;
        Alcotest.test_case "deterministic" `Quick test_minhash_deterministic;
        qtest prop_minhash_close_to_jaccard;
        qtest prop_minhash_matches_oracle;
      ] );
    ( "sketch.lsh",
      [
        Alcotest.test_case "identical collide" `Quick test_lsh_identical_collide;
        Alcotest.test_case "threshold" `Quick test_lsh_threshold;
        qtest prop_lsh_partition;
        qtest prop_lsh_matches_oracle;
      ] );
    ( "sketch.params",
      [
        Alcotest.test_case "validate" `Quick test_sketch_validate;
        Alcotest.test_case "buckets near-duplicate families" `Quick test_sketch_buckets_groups;
        Alcotest.test_case "max_bucket splits" `Quick test_sketch_max_bucket_split;
        qtest prop_sketch_jobs_equivalence;
        qtest prop_sketch_bucket_matches_oracle;
        Alcotest.test_case "known answers" `Quick test_sketch_known_answers;
      ] );
  ]
