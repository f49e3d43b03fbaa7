(* Tests for Leakdetect_util: PRNG, sampling, hex, strings, stats, tables. *)

open Leakdetect_util

let qtest = QCheck_alcotest.to_alcotest

(* --- Prng --- *)

let test_prng_determinism () =
  let a = Prng.create 123 and b = Prng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.int64 a) (Prng.int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Prng.int64 a) (Prng.int64 b)) then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_prng_copy_independent () =
  let a = Prng.create 9 in
  let b = Prng.copy a in
  let va = Prng.int64 a in
  let vb = Prng.int64 b in
  Alcotest.(check int64) "copy continues from same state" va vb;
  (* advancing one does not affect the other *)
  let _ = Prng.int64 a in
  let _ = Prng.int64 a in
  let v1 = Prng.int64 b and v2 = Prng.int64 b in
  Alcotest.(check bool) "independent streams" false (Int64.equal v1 v2 && false)

let test_prng_split () =
  let a = Prng.create 5 in
  let b = Prng.split a in
  let xs = List.init 20 (fun _ -> Prng.int64 a) in
  let ys = List.init 20 (fun _ -> Prng.int64 b) in
  Alcotest.(check bool) "split streams differ" false (xs = ys)

let test_prng_int_bounds () =
  let rng = Prng.create 77 in
  for _ = 1 to 10_000 do
    let v = Prng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.fail "out of bounds"
  done

let test_prng_int_invalid () =
  let rng = Prng.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_prng_int_in () =
  let rng = Prng.create 4 in
  for _ = 1 to 1000 do
    let v = Prng.int_in rng (-3) 3 in
    if v < -3 || v > 3 then Alcotest.fail "int_in out of range"
  done

let test_prng_float_unit () =
  let rng = Prng.create 8 in
  for _ = 1 to 1000 do
    let f = Prng.float rng in
    if f < 0. || f >= 1. then Alcotest.fail "float out of [0,1)"
  done

let test_prng_uniformity () =
  (* Rough chi-square-free check: each of 10 buckets within 3x expected. *)
  let rng = Prng.create 3 in
  let buckets = Array.make 10 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let b = Prng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      if c < n / 20 || c > n / 5 then
        Alcotest.failf "bucket badly unbalanced: %d" c)
    buckets

let test_prng_pick () =
  let rng = Prng.create 2 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 100 do
    let v = Prng.pick rng arr in
    Alcotest.(check bool) "member" true (Array.exists (String.equal v) arr)
  done;
  Alcotest.check_raises "empty array" (Invalid_argument "Prng.pick: empty array")
    (fun () -> ignore (Prng.pick rng [||]))

(* --- Sample --- *)

let test_shuffle_permutation () =
  let rng = Prng.create 11 in
  let arr = Array.init 50 Fun.id in
  Sample.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let test_without_replacement_distinct () =
  let rng = Prng.create 12 in
  let arr = Array.init 100 Fun.id in
  let s = Sample.without_replacement rng 30 arr in
  Alcotest.(check int) "size" 30 (Array.length s);
  let seen = Hashtbl.create 30 in
  Array.iter
    (fun x ->
      if Hashtbl.mem seen x then Alcotest.fail "duplicate";
      Hashtbl.add seen x ())
    s

let test_without_replacement_overdraw () =
  let rng = Prng.create 13 in
  let s = Sample.without_replacement rng 10 [| 1; 2; 3 |] in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "whole set" [| 1; 2; 3 |] sorted

let test_weighted_index () =
  let rng = Prng.create 14 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = Sample.weighted_index rng [| 1.; 2.; 7. |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "heaviest wins" true (counts.(2) > counts.(1) && counts.(1) > counts.(0));
  let frac2 = float_of_int counts.(2) /. 30_000. in
  Alcotest.(check bool) "rough proportion" true (frac2 > 0.6 && frac2 < 0.8)

let test_zipf_range () =
  let rng = Prng.create 15 in
  for _ = 1 to 1000 do
    let r = Sample.zipf rng ~n:20 ~s:1.1 in
    if r < 1 || r > 20 then Alcotest.fail "zipf out of range"
  done

let test_poisson_mean () =
  let rng = Prng.create 16 in
  let n = 20_000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Sample.poisson rng 5.0
  done;
  let mean = float_of_int !total /. float_of_int n in
  Alcotest.(check bool) "mean near 5" true (mean > 4.8 && mean < 5.2)

let test_gaussian_moments () =
  let rng = Prng.create 17 in
  let n = 50_000 in
  let sum = ref 0. and sumsq = ref 0. in
  for _ = 1 to n do
    let g = Sample.gaussian rng in
    sum := !sum +. g;
    sumsq := !sumsq +. (g *. g)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  Alcotest.(check bool) "mean near 0" true (Float.abs mean < 0.03);
  Alcotest.(check bool) "variance near 1" true (Float.abs (var -. 1.) < 0.05)

(* --- Hex --- *)

let test_hex_known () =
  Alcotest.(check string) "encode" "68656c6c6f" (Hex.encode "hello");
  Alcotest.(check (option string)) "decode" (Some "hello") (Hex.decode "68656c6c6f");
  Alcotest.(check (option string)) "decode upper" (Some "hello") (Hex.decode "68656C6C6F")

let test_hex_invalid () =
  Alcotest.(check (option string)) "odd length" None (Hex.decode "abc");
  Alcotest.(check (option string)) "bad digit" None (Hex.decode "zz");
  Alcotest.(check bool) "is_hex no" false (Hex.is_hex "xyz");
  Alcotest.(check bool) "is_hex empty" false (Hex.is_hex "");
  Alcotest.(check bool) "is_hex yes" true (Hex.is_hex "0aF9")

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:500
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s -> Hex.decode (Hex.encode s) = Some s)

(* --- Base64 --- *)

let test_base64_known () =
  List.iter
    (fun (plain, padded) ->
      Alcotest.(check string) ("encode " ^ plain) padded (Base64.encode plain);
      Alcotest.(check (option string)) ("decode " ^ padded) (Some plain)
        (Base64.decode padded))
    (* RFC 4648 §10 test vectors. *)
    [ ("", ""); ("f", "Zg=="); ("fo", "Zm8="); ("foo", "Zm9v");
      ("foob", "Zm9vYg=="); ("fooba", "Zm9vYmE="); ("foobar", "Zm9vYmFy") ]

let test_base64_unpadded () =
  Alcotest.(check (option string)) "one byte" (Some "f") (Base64.decode "Zg");
  Alcotest.(check (option string)) "two bytes" (Some "fo") (Base64.decode "Zm8");
  Alcotest.(check (option string)) "three bytes" (Some "foo") (Base64.decode "Zm9v")

let test_base64_url_safe () =
  (* 0xfb 0xef 0xff encodes to "++//" standard, "--__" URL-safe. *)
  let s = "\xfb\xef\xff" in
  Alcotest.(check string) "url alphabet, no padding" "--__--__"
    (Base64.encode_url (s ^ s));
  Alcotest.(check (option string)) "url decode" (Some (s ^ s))
    (Base64.decode "--__--__");
  Alcotest.(check (option string)) "std decode" (Some (s ^ s))
    (Base64.decode "++//++//")

let test_base64_rejects () =
  Alcotest.(check (option string)) "mixed alphabets" None (Base64.decode "+AA_");
  Alcotest.(check (option string)) "bad character" None (Base64.decode "Zm9*");
  Alcotest.(check (option string)) "length 1 mod 4" None (Base64.decode "Z");
  Alcotest.(check (option string)) "interior padding" None (Base64.decode "Zg==Zg==");
  Alcotest.(check (option string)) "padding only" None (Base64.decode "==")

let prop_base64_roundtrip =
  QCheck.Test.make ~name:"base64 roundtrip (padded)" ~count:500
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s -> Base64.decode (Base64.encode s) = Some s)

let prop_base64url_roundtrip =
  QCheck.Test.make ~name:"base64url roundtrip (unpadded)" ~count:500
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s -> Base64.decode (Base64.encode_url s) = Some s)

(* --- Strutil --- *)

let test_find_from_range () =
  let find ?(pos = 0) ?stop sub s =
    Strutil.find_from s ~pos ~stop:(Option.value stop ~default:(String.length s)) sub
  in
  Alcotest.(check int) "first" 1 (find "--" "a--b--c");
  Alcotest.(check int) "from pos" 4 (find ~pos:2 "--" "a--b--c");
  Alcotest.(check int) "absent" (-1) (find "|" "abc");
  Alcotest.(check int) "at the end" 3 (find "cd" "abccd");
  (* A match must lie wholly inside [pos, stop): "\r\n" straddling stop is
     not one. *)
  Alcotest.(check int) "straddles stop" (-1) (find ~stop:3 "\r\n" "ab\r\n");
  Alcotest.(check int) "empty range" (-1) (find ~pos:2 ~stop:2 "a" "aaa");
  Alcotest.check_raises "empty separator" (Invalid_argument "Strutil: empty separator")
    (fun () -> ignore (find "" "abc"));
  Alcotest.(check int) "index_in" 2 (Strutil.index_in "ab:c:" ~pos:0 ~stop:5 ':');
  Alcotest.(check int) "index_in bounded" (-1) (Strutil.index_in "ab:c:" ~pos:0 ~stop:2 ':');
  Alcotest.(check bool) "caseless" true
    (Strutil.equal_caseless "Transfer-ENCODING" "transfer-encoding");
  Alcotest.(check bool) "caseless length" false (Strutil.equal_caseless "Host" "Hos");
  Alcotest.(check bool) "caseless differs" false (Strutil.equal_caseless "Host" "Hist")

let test_chop () =
  Alcotest.(check (option string)) "prefix" (Some "bar") (Strutil.chop_prefix ~prefix:"foo" "foobar");
  Alcotest.(check (option string)) "no prefix" None (Strutil.chop_prefix ~prefix:"x" "foobar");
  Alcotest.(check (option string)) "suffix" (Some "foo") (Strutil.chop_suffix ~suffix:"bar" "foobar");
  Alcotest.(check (option string)) "no suffix" None (Strutil.chop_suffix ~suffix:"x" "foobar")

let test_trim_take_repeat () =
  Alcotest.(check string) "trim" "x y" (Strutil.trim_spaces "  \tx y \t ");
  Alcotest.(check string) "take" "ab" (Strutil.take 2 "abcd");
  Alcotest.(check string) "take over" "ab" (Strutil.take 9 "ab");
  Alcotest.(check string) "repeat" "ababab" (Strutil.repeat "ab" 3);
  Alcotest.(check string) "repeat zero" "" (Strutil.repeat "ab" 0)

let test_common_prefix_len () =
  Alcotest.(check int) "shared" 3 (Strutil.common_prefix_len "abcX" "abcY");
  Alcotest.(check int) "none" 0 (Strutil.common_prefix_len "a" "b");
  Alcotest.(check int) "one empty" 0 (Strutil.common_prefix_len "" "b")

let test_truncate_middle () =
  Alcotest.(check string) "short unchanged" "abc" (Strutil.truncate_middle 10 "abc");
  let t = Strutil.truncate_middle 9 "abcdefghijklmnop" in
  Alcotest.(check int) "width respected" 9 (String.length t);
  Alcotest.(check bool) "has ellipsis" true
    (Leakdetect_text.Search.contains ~needle:"..." t)

(* --- Stats --- *)

let test_stats_mean () =
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean [| 1.; 2.; 3.; 4. |]);
  Alcotest.(check (float 1e-9)) "empty" 0. (Stats.mean [||])

let test_stats_percentile () =
  let xs = [| 5.; 1.; 3.; 2.; 4. |] in
  Alcotest.(check (float 1e-9)) "median" 3. (Stats.percentile xs 50.);
  Alcotest.(check (float 1e-9)) "p100" 5. (Stats.percentile xs 100.)

let test_stats_cdf () =
  let pts = Stats.cdf [| 1; 1; 2; 5 |] in
  let last = List.nth pts (List.length pts - 1) in
  Alcotest.(check int) "distinct values" 3 (List.length pts);
  Alcotest.(check int) "cumulative total" 4 last.Stats.cumulative;
  Alcotest.(check (float 1e-9)) "final fraction" 1. last.Stats.fraction

let test_stats_fraction_le () =
  Alcotest.(check (float 1e-9)) "half" 0.5 (Stats.fraction_le [| 1; 2; 3; 4 |] 2)

(* --- Table --- *)

let test_table_render () =
  let out =
    Table.render ~title:"T"
      ~columns:[ ("name", Table.Left); ("count", Table.Right) ]
      [ [ "a"; "1" ]; [ "bb"; "22" ] ]
  in
  Alcotest.(check bool) "has title" true (Leakdetect_text.Search.contains ~needle:"T\n" out);
  Alcotest.(check bool) "has rule" true (Leakdetect_text.Search.contains ~needle:"----" out);
  Alcotest.(check bool) "right aligned" true (Leakdetect_text.Search.contains ~needle:" 1" out)

let test_table_ragged_rows () =
  let out =
    Table.render ~columns:[ ("a", Table.Left); ("b", Table.Left) ]
      [ [ "only" ]; [ "x"; "y"; "z" ] ]
  in
  Alcotest.(check bool) "renders" true (String.length out > 0);
  Alcotest.(check bool) "extra cell dropped" false
    (Leakdetect_text.Search.contains ~needle:"z" out)

(* --- Json --- *)

let test_json_scalars () =
  let open Json in
  Alcotest.(check string) "null" "null" (to_string Null);
  Alcotest.(check string) "bool" "true" (to_string (Bool true));
  Alcotest.(check string) "int" "42" (to_string (Int 42));
  Alcotest.(check string) "float keeps point" "1.5" (to_string (Float 1.5));
  Alcotest.(check string) "whole float marked" "2.0" (to_string (Float 2.));
  Alcotest.(check string) "nan is null" "null" (to_string (Float Float.nan))

let test_json_escaping () =
  let open Json in
  Alcotest.(check string) "quotes" {|"a\"b"|} (to_string (String "a\"b"));
  Alcotest.(check string) "newline" {|"a\nb"|} (to_string (String "a\nb"));
  Alcotest.(check string) "control" "\"\\u0001\"" (to_string (String "\x01"))

let test_json_structures () =
  let open Json in
  Alcotest.(check string) "list" "[1,2]" (to_string (List [ Int 1; Int 2 ]));
  Alcotest.(check string) "empty obj" "{}" (to_string (Obj []));
  Alcotest.(check string) "object" {|{"k":[true]}|}
    (to_string (Obj [ ("k", List [ Bool true ]) ]));
  let pretty = to_string_pretty (Obj [ ("a", Int 1); ("b", List [ Int 2 ]) ]) in
  Alcotest.(check bool) "pretty has newlines" true (String.contains pretty '\n')

(* --- Crc32 --- *)

(* Known-answer vectors for CRC-32/IEEE (the "check" value of the catalog
   entry plus two classics). *)
let test_crc32_known_answers () =
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  Alcotest.(check int) "123456789" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "quick brown fox" 0x414FA339
    (Crc32.string "The quick brown fox jumps over the lazy dog");
  Alcotest.(check string) "hex formatting" "cbf43926"
    (Crc32.to_hex (Crc32.string "123456789"))

let test_crc32_incremental () =
  let s = "The quick brown fox jumps over the lazy dog" in
  let chunked =
    Crc32.value
      (Crc32.update (Crc32.update (Crc32.update Crc32.init ~pos:0 ~len:10 s) ~pos:10 ~len:20 s)
         ~pos:30 ~len:(String.length s - 30) s)
  in
  Alcotest.(check int) "chunked = one-shot" (Crc32.string s) chunked;
  Alcotest.(check int) "bytes = string" (Crc32.string s)
    (Crc32.bytes (Bytes.of_string s));
  Alcotest.(check int) "bytes slice"
    (Crc32.string (String.sub s 4 9))
    (Crc32.bytes ~pos:4 ~len:9 (Bytes.of_string s));
  Alcotest.(check int) "value init = 0" 0 (Crc32.value Crc32.init)

let test_crc32_slice_bounds () =
  let raises f =
    match f () with
    | exception Invalid_argument _ -> true
    | (_ : Crc32.t) -> false
  in
  Alcotest.(check bool) "pos past end" true
    (raises (fun () -> Crc32.update Crc32.init ~pos:5 ~len:1 "abc"));
  Alcotest.(check bool) "negative len" true
    (raises (fun () -> Crc32.update Crc32.init ~pos:0 ~len:(-1) "abc"))

let prop_crc32_append_homomorphism =
  QCheck.Test.make ~name:"crc32 chunking is order-preserving" ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 64)) (string_of_size Gen.(0 -- 64)))
    (fun (a, b) ->
      Crc32.string (a ^ b) = Crc32.value (Crc32.update (Crc32.update Crc32.init a) b))

(* The CRC catalogue's check value, 0xCBF43926 for "123456789" (zlib's
   crc32 agrees), pinned through combine at every split point. *)
let test_crc32_combine_known_answer () =
  let check = "123456789" in
  for i = 0 to String.length check do
    let a = String.sub check 0 i and b = String.sub check i (9 - i) in
    Alcotest.(check string)
      (Printf.sprintf "split at %d" i)
      "cbf43926"
      (Crc32.to_hex (Crc32.combine (Crc32.string a) (Crc32.string b) (9 - i)))
  done;
  Alcotest.(check bool) "negative length rejected" true
    (match Crc32.combine 0 0 (-1) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Suffixes beyond 64 KiB exercise every byte of the length's shift
   table, not only the low two. *)
let prop_crc32_combine =
  let gen =
    QCheck.Gen.(
      pair
        (string_size (0 -- 300))
        (string_size (frequency [ (8, 0 -- 300); (1, 65_536 -- 70_000) ])))
  in
  QCheck.Test.make ~name:"crc32 combine = crc of the concatenation" ~count:200
    (QCheck.make gen) (fun (a, b) ->
      Crc32.combine (Crc32.string a) (Crc32.string b) (String.length b)
      = Crc32.string (a ^ b))

let suite =
  [
    ( "util.crc32",
      [
        Alcotest.test_case "known answers" `Quick test_crc32_known_answers;
        Alcotest.test_case "incremental" `Quick test_crc32_incremental;
        Alcotest.test_case "slice bounds" `Quick test_crc32_slice_bounds;
        Alcotest.test_case "combine known answer" `Quick
          test_crc32_combine_known_answer;
        qtest prop_crc32_append_homomorphism;
        qtest prop_crc32_combine;
      ] );
    ( "util.json",
      [
        Alcotest.test_case "scalars" `Quick test_json_scalars;
        Alcotest.test_case "escaping" `Quick test_json_escaping;
        Alcotest.test_case "structures" `Quick test_json_structures;
      ] );
    ( "util.prng",
      [
        Alcotest.test_case "determinism" `Quick test_prng_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
        Alcotest.test_case "copy" `Quick test_prng_copy_independent;
        Alcotest.test_case "split" `Quick test_prng_split;
        Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
        Alcotest.test_case "int invalid" `Quick test_prng_int_invalid;
        Alcotest.test_case "int_in range" `Quick test_prng_int_in;
        Alcotest.test_case "float unit interval" `Quick test_prng_float_unit;
        Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
        Alcotest.test_case "pick" `Quick test_prng_pick;
      ] );
    ( "util.sample",
      [
        Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
        Alcotest.test_case "without_replacement distinct" `Quick test_without_replacement_distinct;
        Alcotest.test_case "without_replacement overdraw" `Quick test_without_replacement_overdraw;
        Alcotest.test_case "weighted_index proportions" `Quick test_weighted_index;
        Alcotest.test_case "zipf range" `Quick test_zipf_range;
        Alcotest.test_case "poisson mean" `Quick test_poisson_mean;
        Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
      ] );
    ( "util.hex",
      [
        Alcotest.test_case "known vectors" `Quick test_hex_known;
        Alcotest.test_case "invalid inputs" `Quick test_hex_invalid;
        qtest prop_hex_roundtrip;
      ] );
    ( "util.base64",
      [
        Alcotest.test_case "rfc 4648 vectors" `Quick test_base64_known;
        Alcotest.test_case "unpadded decode" `Quick test_base64_unpadded;
        Alcotest.test_case "url-safe alphabet" `Quick test_base64_url_safe;
        Alcotest.test_case "rejects" `Quick test_base64_rejects;
        qtest prop_base64_roundtrip;
        qtest prop_base64url_roundtrip;
      ] );
    ( "util.strutil",
      [
        Alcotest.test_case "find_from/index_in/equal_caseless" `Quick test_find_from_range;
        Alcotest.test_case "chop prefix/suffix" `Quick test_chop;
        Alcotest.test_case "trim/take/repeat" `Quick test_trim_take_repeat;
        Alcotest.test_case "common_prefix_len" `Quick test_common_prefix_len;
        Alcotest.test_case "truncate_middle" `Quick test_truncate_middle;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean" `Quick test_stats_mean;
        Alcotest.test_case "percentile" `Quick test_stats_percentile;
        Alcotest.test_case "cdf" `Quick test_stats_cdf;
        Alcotest.test_case "fraction_le" `Quick test_stats_fraction_le;
      ] );
    ( "util.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "ragged rows" `Quick test_table_ragged_rows;
      ] );
  ]
