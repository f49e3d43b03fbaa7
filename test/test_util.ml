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

let test_prng_bool_chance () =
  let rng = Prng.create 21 in
  let n = 20_000 in
  let heads = ref 0 in
  for _ = 1 to n do
    if Prng.bool rng then incr heads;
    if Prng.chance rng 0. then Alcotest.fail "chance 0 fired";
    if not (Prng.chance rng 1.) then Alcotest.fail "chance 1 missed"
  done;
  let frac = float_of_int !heads /. float_of_int n in
  Alcotest.(check bool) "bool near one half" true (frac > 0.48 && frac < 0.52);
  let hits = ref 0 in
  for _ = 1 to n do
    if Prng.chance rng 0.2 then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "chance 0.2 near 0.2" true (frac > 0.18 && frac < 0.22)

let test_prng_split_reproducible () =
  (* Splitting is part of the stream: the same seed split at the same point
     yields the same child and leaves the same parent. *)
  let run () =
    let parent = Prng.create 9 in
    ignore (Prng.int64 parent);
    let child = Prng.split parent in
    (List.init 10 (fun _ -> Prng.int64 child), List.init 10 (fun _ -> Prng.int64 parent))
  in
  Alcotest.(check bool) "same child and parent streams" true (run () = run ())

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

let test_without_replacement_negative () =
  Alcotest.check_raises "negative n"
    (Invalid_argument "Sample.without_replacement: negative n") (fun () ->
      ignore (Sample.without_replacement (Prng.create 1) (-5) [| 1; 2; 3 |]))

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

let test_poisson_large_mean () =
  (* Means of 30 and above take the rounded-normal branch. *)
  let rng = Prng.create 18 in
  let n = 20_000 in
  let total = ref 0 in
  for _ = 1 to n do
    let k = Sample.poisson rng 60.0 in
    if k < 0 then Alcotest.fail "negative deviate";
    total := !total + k
  done;
  let mean = float_of_int !total /. float_of_int n in
  Alcotest.(check bool) "mean near 60" true (mean > 59.5 && mean < 60.5);
  Alcotest.check_raises "non-positive mean"
    (Invalid_argument "Sample.poisson: mean must be positive") (fun () ->
      ignore (Sample.poisson rng 0.))

let test_zipf_weights () =
  Alcotest.(check (array (float 1e-12))) "s = 1 is 1/rank"
    [| 1.; 0.5; 1. /. 3.; 0.25; 0.2 |]
    (Sample.zipf_weights ~n:5 ~s:1.);
  Alcotest.(check (array (float 1e-12))) "s = 0 is uniform" [| 1.; 1.; 1. |]
    (Sample.zipf_weights ~n:3 ~s:0.);
  let w = Sample.zipf_weights ~n:50 ~s:1.2 in
  Alcotest.(check bool) "strictly decreasing in rank" true
    (Array.for_all Fun.id (Array.init 49 (fun i -> w.(i) > w.(i + 1))));
  Alcotest.check_raises "no ranks" (Invalid_argument "Sample.zipf_weights: n must be positive")
    (fun () -> ignore (Sample.zipf_weights ~n:0 ~s:1.))

let test_lognormal_median () =
  (* The median of exp (mu + sigma * N(0,1)) is exp mu. *)
  let rng = Prng.create 19 in
  let xs = Array.init 20_001 (fun _ -> Sample.lognormal rng ~mu:1.0 ~sigma:0.5) in
  Alcotest.(check bool) "positive" true (Array.for_all (fun x -> x > 0.) xs);
  Array.sort compare xs;
  let median = xs.(10_000) in
  Alcotest.(check bool) "median near e" true (Float.abs (median -. exp 1.0) < 0.05)

(* --- Hex --- *)

(* [Hex.decode_into] as a string function. *)
let hex_decode s =
  let buf = Buffer.create (String.length s / 2) in
  if Hex.decode_into buf s ~pos:0 ~len:(String.length s) then Some (Buffer.contents buf)
  else None

let test_hex_known () =
  Alcotest.(check string) "encode" "68656c6c6f" (Hex.encode "hello");
  Alcotest.(check (option string)) "decode" (Some "hello") (hex_decode "68656c6c6f");
  Alcotest.(check (option string)) "decode upper" (Some "hello") (hex_decode "68656C6C6F")

let test_hex_invalid () =
  Alcotest.(check (option string)) "odd length" None (hex_decode "abc");
  Alcotest.(check (option string)) "bad digit" None (hex_decode "zz");
  Alcotest.(check bool) "is_hex no" false (Hex.is_hex "xyz");
  Alcotest.(check bool) "is_hex empty" false (Hex.is_hex "");
  Alcotest.(check bool) "is_hex yes" true (Hex.is_hex "0aF9")

let test_hex_digit_values () =
  String.iteri
    (fun i c ->
      Alcotest.(check int) (String.make 1 c) (i mod 16) (Hex.value c);
      Alcotest.(check bool) "is_digit" true (Hex.is_digit c))
    "0123456789abcdef0123456789ABCDEF";
  List.iter
    (fun c ->
      Alcotest.(check int) "not a digit" (-1) (Hex.value c);
      Alcotest.(check bool) "is_digit no" false (Hex.is_digit c))
    [ 'g'; 'G'; ' '; '/'; ':'; '@'; '`'; '\x00'; '\xff' ]

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:500
    QCheck.(string_of_size Gen.(0 -- 64))
    (fun s -> hex_decode (Hex.encode s) = Some s)

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

let test_index_in_caseless () =
  Alcotest.(check int) "index_in" 2 (Strutil.index_in "ab:c:" ~pos:0 ~stop:5 ':');
  Alcotest.(check int) "index_in bounded" (-1) (Strutil.index_in "ab:c:" ~pos:0 ~stop:2 ':');
  Alcotest.(check bool) "caseless" true
    (Strutil.equal_caseless "Transfer-ENCODING" "transfer-encoding");
  Alcotest.(check bool) "caseless length" false (Strutil.equal_caseless "Host" "Hos");
  Alcotest.(check bool) "caseless differs" false (Strutil.equal_caseless "Host" "Hist")

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

let test_stats_int_summaries () =
  Alcotest.(check (float 1e-9)) "mean_int" 2.5 (Stats.mean_int [| 1; 2; 3; 4 |]);
  Alcotest.(check (float 1e-9)) "mean_int empty" 0. (Stats.mean_int [||]);
  Alcotest.(check int) "max" 9 (Stats.max_int_arr [| 3; 9; -2; 9 |]);
  Alcotest.(check int) "max of negatives" (-2) (Stats.max_int_arr [| -5; -2; -7 |]);
  Alcotest.check_raises "max of empty" (Invalid_argument "Stats.max_int_arr: empty input")
    (fun () -> ignore (Stats.max_int_arr [||]))

let test_stats_histogram () =
  Alcotest.(check (list (pair int int))) "sorted (value, count)"
    [ (-1, 1); (2, 3); (7, 1) ]
    (Stats.histogram [| 7; 2; -1; 2; 2 |]);
  Alcotest.(check (list (pair int int))) "empty" [] (Stats.histogram [||])

let prop_cdf_monotone =
  QCheck.Test.make ~name:"cdf ascends to the sample size" ~count:300
    QCheck.(array_of_size Gen.(1 -- 40) (int_range 0 10))
    (fun xs ->
      let pts = Stats.cdf xs in
      (* The running sum of the histogram's counts, over the sample size. *)
      let running =
        snd
          (List.fold_left_map
             (fun cum (value, count) ->
               let cum = cum + count in
               (cum, (value, float_of_int cum /. float_of_int (Array.length xs))))
             0 (Stats.histogram xs))
      in
      let rec ascending = function
        | a :: (b :: _ as rest) ->
          a.Stats.value < b.Stats.value
          && a.Stats.fraction < b.Stats.fraction
          && ascending rest
        | _ -> true
      in
      let last = List.nth pts (List.length pts - 1) in
      ascending pts
      && List.map (fun p -> (p.Stats.value, p.Stats.fraction)) pts = running
      && last.Stats.fraction = 1.)

let test_stats_cdf () =
  let pts = Stats.cdf [| 1; 1; 2; 5 |] in
  let last = List.nth pts (List.length pts - 1) in
  Alcotest.(check int) "distinct values" 3 (List.length pts);
  Alcotest.(check (list (float 1e-9))) "cumulative fractions" [ 0.5; 0.75; 1. ]
    (List.map (fun p -> p.Stats.fraction) pts);
  Alcotest.(check (float 1e-9)) "final fraction" 1. last.Stats.fraction

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

let test_table_columns_line_up () =
  let out =
    Table.render
      ~columns:[ ("app", Table.Left); ("packets", Table.Right) ]
      [ [ "jp.co.example"; "7" ]; [ "a"; "12345" ] ]
  in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' out) in
  Alcotest.(check (list string)) "padded layout"
    [ "app            packets"; "-------------  -------"; "jp.co.example        7";
      "a                12345" ]
    lines

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

let test_json_pretty_layout () =
  let open Json in
  Alcotest.(check string) "two-space indent"
    "{\n  \"a\": 1,\n  \"b\": [\n    2,\n    []\n  ],\n  \"c\": {}\n}"
    (to_string_pretty (Obj [ ("a", Int 1); ("b", List [ Int 2; List [] ]); ("c", Obj []) ]));
  Alcotest.(check string) "scalar" "null" (to_string_pretty Null)

(* Strings here carry no blank or newline, so removing the layout of the
   pretty form must give the compact form back. *)
let prop_json_pretty_is_compact_plus_layout =
  let open QCheck.Gen in
  let word = string_size ~gen:(oneofl [ 'a'; 'z'; '"'; '\\'; '\x01' ]) (0 -- 4) in
  let scalar =
    oneof
      [ return Json.Null; map (fun b -> Json.Bool b) bool; map (fun i -> Json.Int i) small_signed_int;
        map (fun f -> Json.Float f) float; map (fun s -> Json.String s) word ]
  in
  let json =
    sized
    @@ fix (fun self n ->
           if n <= 0 then scalar
           else
             frequency
               [ (2, scalar);
                 (1, map (fun l -> Json.List l) (list_size (0 -- 3) (self (n / 3))));
                 (1, map (fun l -> Json.Obj l) (list_size (0 -- 3) (pair word (self (n / 3))))) ])
  in
  QCheck.Test.make ~name:"pretty minus layout = compact" ~count:300 (QCheck.make json)
    (fun t ->
      let pretty = Json.to_string_pretty t in
      let stripped = String.concat "" (String.split_on_char '\n' pretty) in
      let stripped = String.concat "" (String.split_on_char ' ' stripped) in
      stripped = Json.to_string t)

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

(* The nibble-table product against the bit-at-a-time one: any pair of
   CRCs, and suffix lengths up to 2^40, past the 4-byte shift table. *)
let prop_crc32_combine_matches_oracle =
  let crc = QCheck.Gen.(map (fun x -> x land 0xFFFFFFFF) int) in
  QCheck.Test.make ~name:"crc32 combine = bitwise-product combine" ~count:2000
    (QCheck.make
       ~print:(fun (a, b, n) -> Printf.sprintf "%08x %08x %d" a b n)
       QCheck.Gen.(
         triple crc crc
           (oneof [ int_range 0 300; int_range 0 (1 lsl 20); map (fun n -> n land ((1 lsl 40) - 1)) int ])))
    (fun (a, b, n) -> Crc32.combine a b n = Crc32_oracle.combine a b n)

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
        qtest prop_crc32_combine_matches_oracle;
      ] );
    ( "util.json",
      [
        Alcotest.test_case "scalars" `Quick test_json_scalars;
        Alcotest.test_case "escaping" `Quick test_json_escaping;
        Alcotest.test_case "structures" `Quick test_json_structures;
        Alcotest.test_case "pretty layout" `Quick test_json_pretty_layout;
        qtest prop_json_pretty_is_compact_plus_layout;
      ] );
    ( "util.prng",
      [
        Alcotest.test_case "determinism" `Quick test_prng_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
        Alcotest.test_case "split" `Quick test_prng_split;
        Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
        Alcotest.test_case "int invalid" `Quick test_prng_int_invalid;
        Alcotest.test_case "int_in range" `Quick test_prng_int_in;
        Alcotest.test_case "float unit interval" `Quick test_prng_float_unit;
        Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
        Alcotest.test_case "pick" `Quick test_prng_pick;
        Alcotest.test_case "bool/chance" `Quick test_prng_bool_chance;
        Alcotest.test_case "split reproducible" `Quick test_prng_split_reproducible;
      ] );
    ( "util.sample",
      [
        Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
        Alcotest.test_case "without_replacement distinct" `Quick test_without_replacement_distinct;
        Alcotest.test_case "without_replacement overdraw" `Quick test_without_replacement_overdraw;
        Alcotest.test_case "without_replacement negative" `Quick
          test_without_replacement_negative;
        Alcotest.test_case "weighted_index proportions" `Quick test_weighted_index;
        Alcotest.test_case "poisson mean" `Quick test_poisson_mean;
        Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
        Alcotest.test_case "poisson large mean" `Quick test_poisson_large_mean;
        Alcotest.test_case "zipf weights" `Quick test_zipf_weights;
        Alcotest.test_case "lognormal median" `Quick test_lognormal_median;
      ] );
    ( "util.hex",
      [
        Alcotest.test_case "known vectors" `Quick test_hex_known;
        Alcotest.test_case "invalid inputs" `Quick test_hex_invalid;
        Alcotest.test_case "digit values" `Quick test_hex_digit_values;
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
        Alcotest.test_case "index_in/equal_caseless" `Quick test_index_in_caseless;
        Alcotest.test_case "truncate_middle" `Quick test_truncate_middle;
      ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean" `Quick test_stats_mean;
        Alcotest.test_case "cdf" `Quick test_stats_cdf;
        Alcotest.test_case "int summaries" `Quick test_stats_int_summaries;
        Alcotest.test_case "histogram" `Quick test_stats_histogram;
        qtest prop_cdf_monotone;
      ] );
    ( "util.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "ragged rows" `Quick test_table_ragged_rows;
        Alcotest.test_case "columns line up" `Quick test_table_columns_line_up;
      ] );
  ]
