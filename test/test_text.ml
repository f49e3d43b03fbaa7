(* Tests for Leakdetect_text: search, edit distance, LCS, token extraction. *)

open Leakdetect_text

let qtest = QCheck_alcotest.to_alcotest

(* --- Search --- *)

let naive_index ~needle hay =
  let n = String.length hay and m = String.length needle in
  if m = 0 then Some 0
  else
    let rec loop i =
      if i + m > n then None
      else if String.sub hay i m = needle then Some i
      else loop (i + 1)
    in
    loop 0

let test_search_basic () =
  Alcotest.(check (option int)) "found" (Some 2) (Search.index ~needle:"cd" "abcdcd");
  Alcotest.(check (option int)) "absent" None (Search.index ~needle:"xy" "abcd");
  Alcotest.(check (option int)) "from" (Some 4) (Search.index ~from:3 ~needle:"cd" "abcdcd");
  Alcotest.(check (option int)) "empty needle" (Some 1) (Search.index ~from:1 ~needle:"" "ab");
  Alcotest.(check (option int)) "needle at end" (Some 4) (Search.index ~needle:"ef" "abcdef")

let test_failure_function () =
  Alcotest.(check (array int)) "aabaa" [| 0; 1; 0; 1; 2 |] (Search.failure_function "aabaa");
  Alcotest.(check (array int)) "abcd" [| 0; 0; 0; 0 |] (Search.failure_function "abcd")

let prop_search_matches_naive =
  let gen =
    QCheck.Gen.(
      pair
        (string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (0 -- 8))
        (string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (0 -- 40)))
  in
  QCheck.Test.make ~name:"KMP agrees with naive search" ~count:2000
    (QCheck.make gen) (fun (needle, hay) ->
      Search.index ~needle hay = naive_index ~needle hay)

(* [Search.find] on a compiled needle with a start offset agrees with a
   naive scan of the suffix, shifted back. *)
let prop_compiled_find_from =
  let g n = QCheck.Gen.string_size ~gen:(QCheck.Gen.oneofl [ 'a'; 'b' ]) n in
  let gen =
    QCheck.Gen.(
      triple (g (1 -- 4)) (g (0 -- 30)) (int_range 0 30) >|= fun (needle, hay, from) ->
      (needle, hay, min from (String.length hay)))
  in
  QCheck.Test.make ~name:"compiled find ~from agrees with naive search" ~count:1000
    (QCheck.make gen) (fun (needle, hay, from) ->
      let suffix = String.sub hay from (String.length hay - from) in
      Search.find (Search.compile needle) ~from hay
      = Option.map (( + ) from) (naive_index ~needle suffix))

let test_compiled_reuse () =
  let c = Search.compile "ab" in
  Alcotest.(check bool) "hit" true (Search.matches c "xxab");
  Alcotest.(check bool) "miss" false (Search.matches c "xxa");
  Alcotest.(check string) "needle kept" "ab" (Search.compiled_needle c)

(* --- Edit distance --- *)

let test_edit_known () =
  Alcotest.(check int) "kitten/sitting" 3 (Edit_distance.distance "kitten" "sitting");
  Alcotest.(check int) "identical" 0 (Edit_distance.distance "abc" "abc");
  Alcotest.(check int) "to empty" 3 (Edit_distance.distance "abc" "");
  Alcotest.(check int) "insert" 1 (Edit_distance.distance "abc" "abdc")

let test_edit_normalized () =
  Alcotest.(check (float 1e-9)) "both empty" 0. (Edit_distance.normalized "" "");
  Alcotest.(check (float 1e-9)) "disjoint" 1. (Edit_distance.normalized "aaa" "bbb");
  let v = Edit_distance.normalized "admob.com" "admob.org" in
  Alcotest.(check bool) "similar hosts close" true (v > 0. && v < 0.5)

let prop_edit_symmetry =
  let gen = QCheck.Gen.(pair (string_size (0 -- 20)) (string_size (0 -- 20))) in
  QCheck.Test.make ~name:"edit distance symmetry" ~count:500 (QCheck.make gen)
    (fun (a, b) -> Edit_distance.distance a b = Edit_distance.distance b a)

let prop_edit_identity =
  QCheck.Test.make ~name:"edit distance identity" ~count:300
    QCheck.(string_of_size Gen.(0 -- 30))
    (fun s -> Edit_distance.distance s s = 0)

let prop_edit_triangle =
  let g = QCheck.Gen.string_size ~gen:(QCheck.Gen.oneofl [ 'a'; 'b' ]) QCheck.Gen.(0 -- 12) in
  QCheck.Test.make ~name:"edit distance triangle inequality" ~count:500
    (QCheck.make QCheck.Gen.(triple g g g))
    (fun (a, b, c) ->
      Edit_distance.distance a c
      <= Edit_distance.distance a b + Edit_distance.distance b c)

let prop_edit_bounds =
  let gen = QCheck.Gen.(pair (string_size (0 -- 20)) (string_size (0 -- 20))) in
  QCheck.Test.make ~name:"edit distance between length gap and longer length" ~count:500
    (QCheck.make gen) (fun (a, b) ->
      let d = Edit_distance.distance a b in
      let la = String.length a and lb = String.length b in
      abs (la - lb) <= d
      && d <= max la lb
      && Edit_distance.normalized a b
         = (if la = 0 && lb = 0 then 0. else float_of_int d /. float_of_int (max la lb)))

(* --- Lcs --- *)

let brute_lcs_of_set strings =
  match strings with
  | [] -> ""
  | first :: rest ->
    let best = ref "" in
    let n = String.length first in
    for i = 0 to n - 1 do
      for len = 1 to n - i do
        let cand = String.sub first i len in
        if
          len > String.length !best
          && List.for_all (fun s -> Search.contains ~needle:cand s) rest
        then best := cand
      done
    done;
    !best

let prop_lcs_set_matches_brute =
  let g = QCheck.Gen.string_size ~gen:(QCheck.Gen.oneofl [ 'a'; 'b' ]) QCheck.Gen.(1 -- 12) in
  QCheck.Test.make ~name:"set LCS length agrees with brute force" ~count:300
    (QCheck.make QCheck.Gen.(list_size (1 -- 4) g))
    (fun strings ->
      String.length (Lcs.of_set strings)
      = String.length (brute_lcs_of_set strings))

let prop_lcs_set_is_common =
  let g = QCheck.Gen.string_size ~gen:(QCheck.Gen.oneofl [ 'a'; 'b'; 'c' ]) QCheck.Gen.(1 -- 20) in
  QCheck.Test.make ~name:"set LCS occurs in every string" ~count:300
    (QCheck.make QCheck.Gen.(list_size (1 -- 5) g))
    (fun strings ->
      let t = Lcs.of_set strings in
      t = "" || List.for_all (fun s -> Search.contains ~needle:t s) strings)

let test_lcs_set_cases () =
  Alcotest.(check string) "empty list" "" (Lcs.of_set []);
  Alcotest.(check string) "contains empty string" "" (Lcs.of_set [ "abc"; "" ]);
  Alcotest.(check string) "single" "abc" (Lcs.of_set [ "abc" ]);
  Alcotest.(check int) "three strings" 4
    (String.length (Lcs.of_set [ "xx_imei=123_a"; "yy_imei=123"; "_imei=123zz" ]) |> fun l ->
     if l >= 4 then 4 else l)

(* --- Trigram --- *)

(* Cosine distance of two strings' trigram profiles. *)
let cosine_distance x y = Trigram.profile_distance (Trigram.profile x) (Trigram.profile y)

let test_trigram_profile () =
  Alcotest.(check int) "abcd has 2 trigrams" 2 (Trigram.cardinality (Trigram.profile "abcd"));
  Alcotest.(check int) "aaaa has 1 distinct" 1 (Trigram.cardinality (Trigram.profile "aaaa"));
  Alcotest.(check int) "short string empty" 0 (Trigram.cardinality (Trigram.profile "ab"))

let test_trigram_distance_cases () =
  Alcotest.(check (float 1e-9)) "identical" 0. (cosine_distance "abcdef" "abcdef");
  Alcotest.(check (float 1e-9)) "disjoint" 1. (cosine_distance "aaaa" "bbbb");
  Alcotest.(check (float 1e-9)) "both empty" 0. (cosine_distance "a" "b");
  Alcotest.(check (float 1e-9)) "one empty" 1. (cosine_distance "a" "abcd")

let test_trigram_discrimination () =
  let a1 = "GET /ad?imei=355021930123456&size=320x50 HTTP/1.1" in
  let a2 = "GET /ad?imei=355021930123456&size=320x50&x=9 HTTP/1.1" in
  let b = "POST /aap.do HTTP/1.1" in
  Alcotest.(check bool) "similar below dissimilar" true
    (cosine_distance a1 a2 < cosine_distance a1 b)

let prop_trigram_bounds_and_symmetry =
  let g = QCheck.Gen.string_size QCheck.Gen.(0 -- 50) in
  QCheck.Test.make ~name:"trigram distance symmetric in [0,1]" ~count:300
    (QCheck.make QCheck.Gen.(pair g g))
    (fun (x, y) ->
      let d = cosine_distance x y in
      d >= 0. && d <= 1. && Float.abs (d -. cosine_distance y x) < 1e-12)

let test_trigram_cache_agrees () =
  let cache = Trigram.Cache.create () in
  let x = "GET /one HTTP/1.1" and y = "GET /two HTTP/1.1" in
  Alcotest.(check (float 1e-12)) "cache = direct"
    (cosine_distance x y)
    (Trigram.Cache.distance cache x y);
  (* second call exercises the cached path *)
  Alcotest.(check (float 1e-12)) "stable" (Trigram.Cache.distance cache x y)
    (Trigram.Cache.distance cache x y)

(* --- Tokens --- *)

let test_tokens_extract_simple () =
  let tokens = Tokens.extract [ "GET /ad?imei=111&x=aa"; "GET /ad?imei=111&x=bb" ] in
  Alcotest.(check bool) "nonempty" true (tokens <> []);
  List.iter
    (fun t ->
      Alcotest.(check bool) "token in first" true
        (Search.contains ~needle:t "GET /ad?imei=111&x=aa"))
    tokens

let test_tokens_single_string () =
  Alcotest.(check (list string)) "whole string" [ "abcdef" ] (Tokens.extract [ "abcdef" ])

let test_tokens_empty () =
  Alcotest.(check (list string)) "no input" [] (Tokens.extract []);
  Alcotest.(check (list string)) "nothing shared" []
    (Tokens.extract [ "aaaa"; "bbbb" ])

let test_tokens_min_len () =
  Alcotest.(check (list string)) "short tokens dropped" []
    (Tokens.extract ~min_len:5 [ "xxab"; "yyab" ])

let prop_tokens_all_match =
  let g =
    QCheck.Gen.string_size ~gen:(QCheck.Gen.oneofl [ 'a'; 'b'; 'c'; '=' ]) QCheck.Gen.(1 -- 25)
  in
  QCheck.Test.make ~name:"every extracted token set matches its sources" ~count:200
    (QCheck.make QCheck.Gen.(list_size (1 -- 4) g))
    (fun strings ->
      let tokens = Tokens.extract strings in
      List.for_all (fun s -> Tokens.matches_all ~tokens s) strings)

let prop_tokens_ordered_match =
  let g =
    QCheck.Gen.string_size ~gen:(QCheck.Gen.oneofl [ 'a'; 'b'; 'c' ]) QCheck.Gen.(1 -- 20)
  in
  QCheck.Test.make ~name:"extracted tokens match sources in order" ~count:200
    (QCheck.make QCheck.Gen.(list_size (1 -- 4) g))
    (fun strings ->
      let tokens = Tokens.extract strings in
      List.for_all (fun s -> Tokens.matches_ordered ~tokens s) strings)

(* --- Aho_corasick --- *)

let test_ac_basic () =
  let ac = Aho_corasick.build [ "he"; "she"; "his"; "hers" ] in
  Alcotest.(check int) "pattern count" 4 (Aho_corasick.pattern_count ac);
  let m = Aho_corasick.matched_set ac "ushers" in
  Alcotest.(check (array bool)) "ushers matches he/she/hers" [| true; true; false; true |] m;
  Alcotest.(check (array bool)) "none" [| false; false; false; false |]
    (Aho_corasick.matched_set ac "zzz")

let test_ac_duplicates_and_overlap () =
  let ac = Aho_corasick.build [ "aa"; "aa" ] in
  let m = Aho_corasick.matched_set ac "aaa" in
  Alcotest.(check (array bool)) "duplicate patterns both report" [| true; true |] m

let test_ac_empty_pattern () =
  Alcotest.check_raises "empty pattern"
    (Invalid_argument "Aho_corasick.build: empty pattern") (fun () ->
      ignore (Aho_corasick.build [ "a"; "" ]))

(* Patterns over a tiny alphabet, seeded with duplicates and prefixes of
   one another so shared trie paths, failure chains and repeated ids all
   occur. *)
let gen_patterns alphabet =
  let open QCheck.Gen in
  let pat = string_size ~gen:(oneofl alphabet) (1 -- 5) in
  list_size (1 -- 6) pat >>= fun base ->
  let derived p =
    oneof
      [ return p; map (fun k -> String.sub p 0 (1 + (k mod String.length p))) nat ]
  in
  map (fun extra -> base @ extra) (list_size (0 -- 4) (oneofl base >>= derived))

let prop_ac_agrees_with_kmp =
  let alphabet = [ 'a'; 'b'; 'c' ] in
  QCheck.Test.make ~name:"aho-corasick agrees with per-pattern KMP" ~count:500
    (QCheck.make
       QCheck.Gen.(pair (gen_patterns alphabet) (string_size ~gen:(oneofl alphabet) (0 -- 60))))
    (fun (patterns, text) ->
      let ac = Aho_corasick.build patterns in
      let seen = Array.make (List.length patterns) false in
      Aho_corasick.matched_set_into ac seen text;
      Aho_corasick.matched_set ac text = seen
      && Array.to_list seen
         = List.map (fun needle -> Search.contains ~needle text) patterns)

let prop_ac_feed_pair_into =
  (* An exact and a caseless automaton walked together over random slices
     give each one's own whole-string matched set. *)
  let alphabet = [ 'a'; 'b'; 'A'; 'B'; '1' ] in
  let gen =
    QCheck.Gen.(
      quad (gen_patterns alphabet) (gen_patterns alphabet)
        (string_size ~gen:(oneofl alphabet) (0 -- 60))
        (list_size (0 -- 8) nat))
  in
  QCheck.Test.make ~name:"feed_pair_into = two separate scans" ~count:500
    (QCheck.make gen) (fun (pa, pb, text, cuts) ->
      let a = Aho_corasick.build pa and b = Aho_corasick.build ~caseless:true pb in
      let n = String.length text in
      let cuts =
        List.sort_uniq compare (0 :: n :: List.map (fun c -> if n = 0 then 0 else c mod n) cuts)
      in
      let seen_a = Array.make (List.length pa) false
      and seen_b = Array.make (List.length pb) false in
      let sa = Aho_corasick.Stream.create () and sb = Aho_corasick.Stream.create () in
      let rec feed = function
        | x :: (y :: _ as rest) ->
          Aho_corasick.Stream.feed_pair_into a sa seen_a b sb seen_b ~off:x ~len:(y - x) text;
          feed rest
        | _ -> ()
      in
      feed cuts;
      seen_a = Aho_corasick.matched_set a text && seen_b = Aho_corasick.matched_set b text)

let prop_ac_caseless_is_lowercased_scan =
  let alphabet = [ 'a'; 'b'; 'A'; 'B'; '1' ] in
  QCheck.Test.make ~name:"caseless scan of s = exact scan of lowercase s" ~count:500
    (QCheck.make
       QCheck.Gen.(pair (gen_patterns alphabet) (string_size ~gen:(oneofl alphabet) (0 -- 60))))
    (fun (patterns, text) ->
      let exact = Aho_corasick.build patterns
      and caseless = Aho_corasick.build ~caseless:true patterns in
      let lower = String.lowercase_ascii text in
      Aho_corasick.matched_set caseless text = Aho_corasick.matched_set exact lower)

let test_ac_caseless () =
  let ac = Aho_corasick.build ~caseless:true [ "9b74c9"; "NTT" ] in
  Alcotest.(check (array bool)) "lower-case pattern matches any case; upper-case never"
    [| true; false |] (Aho_corasick.matched_set ac "x9B74c9-NTT")

(* --- resumable streaming scan --- *)

let test_ac_stream_boundary_spanning () =
  let ac = Aho_corasick.build [ "abc"; "bcd" ] in
  let st = Aho_corasick.Stream.create () in
  let seen = Array.make 2 false in
  (* One byte per fragment: every match spans a fragment boundary. *)
  List.iter (Aho_corasick.Stream.feed_into ac st seen) [ "a"; "b"; "c"; "d" ];
  Alcotest.(check (array bool)) "matches across 1-byte fragments" [| true; true |] seen;
  (* Reset gives a fresh scan: a dangling prefix must not leak over. *)
  Aho_corasick.Stream.reset st;
  let seen = Array.make 2 false in
  List.iter (Aho_corasick.Stream.feed_into ac st seen) [ "c"; "d" ];
  Alcotest.(check (array bool)) "no carry-over after reset" [| false; false |] seen

let test_ac_stream_slices () =
  let ac = Aho_corasick.build [ "her" ] in
  let st = Aho_corasick.Stream.create () in
  let seen = Array.make 1 false in
  let buf = "xxhexxrxx" in
  (* Feed the slices "he" and "r" of a larger caller-owned buffer. *)
  Aho_corasick.Stream.feed_into ac st seen ~off:2 ~len:2 buf;
  Aho_corasick.Stream.feed_into ac st seen ~off:6 ~len:1 buf;
  Alcotest.(check bool) "slice-fed fragments match" true seen.(0);
  Alcotest.check_raises "out-of-bounds slice rejected"
    (Invalid_argument "Aho_corasick.Stream.feed_into: slice out of bounds")
    (fun () -> Aho_corasick.Stream.feed_into ac st seen ~off:8 ~len:4 buf)

let prop_ac_stream_equals_whole =
  (* Feeding arbitrary fragment splits, as slices of the whole text, finds
     exactly the patterns of scanning the concatenation. *)
  let gen =
    QCheck.Gen.(
      pair
        (list_size (1 -- 6) (string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (1 -- 4)))
        (list_size (0 -- 8) (string_size ~gen:(oneofl [ 'a'; 'b'; 'c' ]) (0 -- 12))))
  in
  QCheck.Test.make ~name:"stream feed over any split = whole-text scan" ~count:500
    (QCheck.make gen) (fun (patterns, fragments) ->
      let ac = Aho_corasick.build patterns in
      let text = String.concat "" fragments in
      let seen = Array.make (List.length patterns) false in
      let sliced = Aho_corasick.Stream.create () in
      ignore
        (List.fold_left
           (fun off frag ->
             let len = String.length frag in
             Aho_corasick.Stream.feed_into ac sliced seen ~off ~len text;
             off + len)
           0 fragments);
      seen = Aho_corasick.matched_set ac text)

let test_matches_ordered_vs_all () =
  (* "ab" then "cd" in order in "abcd" but not in "cdab". *)
  Alcotest.(check bool) "ordered yes" true (Tokens.matches_ordered ~tokens:[ "ab"; "cd" ] "abcd");
  Alcotest.(check bool) "ordered no" false (Tokens.matches_ordered ~tokens:[ "ab"; "cd" ] "cdab");
  Alcotest.(check bool) "conjunction yes" true (Tokens.matches_all ~tokens:[ "ab"; "cd" ] "cdab")

let suite =
  [
    ( "text.search",
      [
        Alcotest.test_case "basic" `Quick test_search_basic;
        Alcotest.test_case "failure function" `Quick test_failure_function;
        Alcotest.test_case "compiled reuse" `Quick test_compiled_reuse;
        qtest prop_search_matches_naive;
        qtest prop_compiled_find_from;
      ] );
    ( "text.edit_distance",
      [
        Alcotest.test_case "known values" `Quick test_edit_known;
        Alcotest.test_case "normalized" `Quick test_edit_normalized;
        qtest prop_edit_symmetry;
        qtest prop_edit_identity;
        qtest prop_edit_triangle;
        qtest prop_edit_bounds;
      ] );
    ( "text.lcs",
      [
        Alcotest.test_case "set edge cases" `Quick test_lcs_set_cases;
        qtest prop_lcs_set_matches_brute;
        qtest prop_lcs_set_is_common;
      ] );
    ( "text.trigram",
      [
        Alcotest.test_case "profile" `Quick test_trigram_profile;
        Alcotest.test_case "distance cases" `Quick test_trigram_distance_cases;
        Alcotest.test_case "discrimination" `Quick test_trigram_discrimination;
        Alcotest.test_case "cache agrees" `Quick test_trigram_cache_agrees;
        qtest prop_trigram_bounds_and_symmetry;
      ] );
    ( "text.tokens",
      [
        Alcotest.test_case "extract simple" `Quick test_tokens_extract_simple;
        Alcotest.test_case "single string" `Quick test_tokens_single_string;
        Alcotest.test_case "degenerate inputs" `Quick test_tokens_empty;
        Alcotest.test_case "min length filter" `Quick test_tokens_min_len;
        Alcotest.test_case "ordered vs conjunction" `Quick test_matches_ordered_vs_all;
        qtest prop_tokens_all_match;
        qtest prop_tokens_ordered_match;
      ] );
    ( "text.aho_corasick",
      [
        Alcotest.test_case "basic" `Quick test_ac_basic;
        Alcotest.test_case "duplicates" `Quick test_ac_duplicates_and_overlap;
        Alcotest.test_case "empty pattern" `Quick test_ac_empty_pattern;
        qtest prop_ac_agrees_with_kmp;
        Alcotest.test_case "caseless" `Quick test_ac_caseless;
        qtest prop_ac_caseless_is_lowercased_scan;
        Alcotest.test_case "stream: boundary-spanning matches" `Quick
          test_ac_stream_boundary_spanning;
        Alcotest.test_case "stream: slice feeding" `Quick test_ac_stream_slices;
        qtest prop_ac_stream_equals_whole;
        qtest prop_ac_feed_pair_into;
      ] );
  ]
