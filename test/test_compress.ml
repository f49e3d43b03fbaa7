(* Tests for Leakdetect_compress: bit I/O, the three compressors, and the
   NCD cache the packet-content distance is built on. *)

open Leakdetect_compress

let qtest = QCheck_alcotest.to_alcotest

let codecs = [ Compressor.Lz77; Compressor.Lzw; Compressor.Huffman ]

(* [n] copies of [s]. *)
let repeat s n = String.concat "" (List.init n (fun _ -> s))

(* --- Bitio --- *)

let test_bitio_basic () =
  let w = Bitio.Writer.create () in
  Bitio.Writer.add_bits w 0b101 3;
  Bitio.Writer.add_bits w 0xff 8;
  Alcotest.(check int) "bit length" 11 (Bitio.Writer.bit_length w);
  let r = Bitio.Reader.of_string (Bitio.Writer.contents w) in
  Alcotest.(check int) "first field" 0b101 (Bitio.Reader.read_bits r 3);
  Alcotest.(check int) "second field" 0xff (Bitio.Reader.read_bits r 8)

let test_bitio_end_of_input () =
  let r = Bitio.Reader.of_string "" in
  Alcotest.check_raises "end of input" Bitio.Reader.End_of_input (fun () ->
      ignore (Bitio.Reader.read_bit r))

let prop_bitio_roundtrip =
  let field = QCheck.Gen.(pair (int_bound 0xffff) (int_range 1 16)) in
  QCheck.Test.make ~name:"bit fields round-trip" ~count:300
    (QCheck.make QCheck.Gen.(list_size (1 -- 20) field))
    (fun fields ->
      let fields = List.map (fun (v, w) -> (v land ((1 lsl w) - 1), w)) fields in
      let w = Bitio.Writer.create () in
      List.iter (fun (v, width) -> Bitio.Writer.add_bits w v width) fields;
      let r = Bitio.Reader.of_string (Bitio.Writer.contents w) in
      List.for_all (fun (v, width) -> Bitio.Reader.read_bits r width = v) fields)

(* --- Round-trips --- *)

let ascii_gen = QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (0 -- 600))
let binary_gen = QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (0 -- 400))

let roundtrip_prop name algo gen =
  QCheck.Test.make ~name ~count:200 (QCheck.make gen) (fun s ->
      Compressor.decompress algo (Compressor.compress algo s) = s)

let prop_lz77_ascii = roundtrip_prop "lz77 round-trip (ascii)" Compressor.Lz77 ascii_gen
let prop_lz77_binary = roundtrip_prop "lz77 round-trip (binary)" Compressor.Lz77 binary_gen
let prop_lzw_ascii = roundtrip_prop "lzw round-trip (ascii)" Compressor.Lzw ascii_gen
let prop_lzw_binary = roundtrip_prop "lzw round-trip (binary)" Compressor.Lzw binary_gen
let prop_huffman_ascii = roundtrip_prop "huffman round-trip (ascii)" Compressor.Huffman ascii_gen
let prop_huffman_binary = roundtrip_prop "huffman round-trip (binary)" Compressor.Huffman binary_gen

let test_roundtrip_edge_cases () =
  let cases =
    [
      "";
      "a";
      "aa";
      String.make 10_000 'z';
      repeat "abc" 3000;
      String.init 2000 (fun i -> Char.chr (i mod 256));
      "GET /ad?imei=355021930123456&carrier=NTTdocomo HTTP/1.1";
    ]
  in
  List.iter
    (fun algo ->
      List.iter
        (fun s ->
          Alcotest.(check string)
            (Printf.sprintf "%s len=%d" (Compressor.name algo) (String.length s))
            s
            (Compressor.decompress algo (Compressor.compress algo s)))
        cases)
    codecs

let test_lz77_window_boundary () =
  (* Repetitions just inside and just outside the 32 KiB window: the first
     must be representable as a match, the second must not — both must
     round-trip. *)
  let pattern = "SENTINEL-0123456789-SENTINEL" in
  let inside =
    pattern ^ String.make (Lz77.window_size - String.length pattern - 7) 'x' ^ pattern
  in
  let outside = pattern ^ String.make (Lz77.window_size + 64) 'y' ^ pattern in
  Alcotest.(check string) "inside window" inside (Lz77.decompress (Lz77.compress inside));
  Alcotest.(check string) "outside window" outside (Lz77.decompress (Lz77.compress outside));
  Alcotest.(check bool) "in-window repetition compresses better" true
    (Lz77.compressed_length_bits inside
    < Lz77.compressed_length_bits inside + 8 * String.length pattern)

let test_lz77_max_match_runs () =
  (* Runs longer than max_match force chained match tokens. *)
  List.iter
    (fun n ->
      let s = String.make n 'q' in
      Alcotest.(check string) (Printf.sprintf "run of %d" n) s
        (Lz77.decompress (Lz77.compress s)))
    [ Lz77.max_match; Lz77.max_match + 1; (2 * Lz77.max_match) + 3; 5000 ]

let test_lz77_overlapping_match () =
  (* "abab..." uses a distance-2 match copied forward over itself. *)
  let s = repeat "ab" 500 in
  Alcotest.(check string) "overlap copy" s (Lz77.decompress (Lz77.compress s));
  Alcotest.(check bool) "compresses hard" true
    (Lz77.compressed_length_bits s < (8 * String.length s) / 10)

let test_lzw_dictionary_reset () =
  (* Enough distinct material to overflow the 16-bit dictionary. *)
  let big =
    String.concat ""
      (List.init 30_000 (fun i -> Printf.sprintf "%x|" (i * 2654435761)))
  in
  Alcotest.(check int) "long input round-trips" (String.length big)
    (String.length (Lzw.decompress (Lzw.compress big)))

let test_compression_effectiveness () =
  (* Repetitive input must compress well under the dictionary coders. *)
  let s = repeat "banana-phone!" 200 in
  let raw_bits = 8 * String.length s in
  Alcotest.(check bool) "lz77 compresses" true (Lz77.compressed_length_bits s < raw_bits / 5);
  Alcotest.(check bool) "lzw compresses" true (Lzw.compressed_length_bits s < raw_bits / 2);
  Alcotest.(check bool) "huffman compresses a little" true
    (Huffman.compressed_length_bits s < raw_bits)

let prop_length_bits_consistent =
  QCheck.Test.make ~name:"declared bit length bounds actual bytes" ~count:200
    (QCheck.make ascii_gen) (fun s ->
      List.for_all
        (fun algo ->
          let bits = Compressor.length_bits algo s in
          let bytes = String.length (Compressor.compress algo s) in
          (* contents pads to the next byte *)
          bytes = (bits + 7) / 8)
        codecs)

let test_corrupt_stream () =
  (* Truncation must raise, not loop or return garbage silently. *)
  let c = Lz77.compress "hello hello hello hello" in
  let truncated = String.sub c 0 (String.length c - 2) in
  Alcotest.check_raises "truncated lz77"
    (Invalid_argument "Lz77.decompress: truncated stream") (fun () ->
      ignore (Lz77.decompress truncated));
  let lzw = Lzw.compress "the quick brown fox jumps over the lazy dog" in
  Alcotest.check_raises "truncated lzw"
    (Invalid_argument "Lzw.decompress: truncated stream") (fun () ->
      ignore (Lzw.decompress (String.sub lzw 0 (String.length lzw - 3))));
  let huff = Huffman.compress "the quick brown fox" in
  Alcotest.check_raises "truncated huffman"
    (Invalid_argument "Huffman.decompress: truncated stream") (fun () ->
      ignore (Huffman.decompress (String.sub huff 0 (String.length huff - 2))))

let test_huffman_code_lengths () =
  let lengths = Huffman.code_lengths "aaaabbbcc" in
  Alcotest.(check bool) "frequent symbol gets shortest code" true
    (lengths.(Char.code 'a') <= lengths.(Char.code 'b'));
  Alcotest.(check int) "absent symbol has no code" 0 lengths.(Char.code 'z');
  let single = Huffman.code_lengths "aaaa" in
  Alcotest.(check int) "single-symbol alphabet gets 1 bit" 1 single.(Char.code 'a')

(* --- LZ77 scratch parser vs the token-list oracle --- *)

(* Strings over 1-3 symbols: long runs, matches capped at [max_match] and
   hash chains full of equal-length candidates. *)
let low_entropy_gen =
  QCheck.Gen.(
    int_range 1 3 >>= fun k ->
    string_size ~gen:(map (fun i -> Char.chr (97 + i)) (int_bound (k - 1))) (0 -- 2000))

(* Runs of one byte, each possibly past [max_match]. *)
let runs_gen =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (1 -- 8)
         (map2 (fun c n -> String.make n c) (map Char.chr (int_range 0 255)) (1 -- 700))))

(* A repeat straddling the window edge: [p ^ filler ^ p ^ p] with the
   filler sized so the second [p] lands just inside or just outside the
   32 KiB window. *)
let long_gen =
  QCheck.Gen.(
    map3
      (fun p gap filler_seed ->
        let rng = Leakdetect_util.Prng.create filler_seed in
        let filler =
          String.init
            (Lz77.window_size - String.length p + gap)
            (fun _ -> Char.chr (Leakdetect_util.Prng.int rng 256))
        in
        String.concat "" [ p; filler; p; p ])
      (string_size ~gen:(map Char.chr (int_range 32 126)) (8 -- 64))
      (int_range (-80) 80) nat)

let lz77_gens =
  [
    ("ascii", ascii_gen, 200);
    ("binary", binary_gen, 200);
    ("low-entropy", low_entropy_gen, 200);
    ("runs", runs_gen, 100);
    ("past window", long_gen, 8);
  ]

let oracle_props name prop =
  List.map
    (fun (gen_name, gen, count) ->
      QCheck.Test.make ~name:(Printf.sprintf "%s (%s)" name gen_name) ~count
        (QCheck.make gen) prop)
    lz77_gens

let prop_lz77_length_matches_oracle =
  oracle_props "lz77 length = token-list oracle" (fun s ->
      Lz77.compressed_length_bits s = Lz77_oracle.compressed_length_bits s)

let prop_lz77_compress_matches_oracle =
  oracle_props "lz77 compress = token-list oracle bytes" (fun s ->
      Lz77.compress s = Lz77_oracle.compress s)

(* Splitting one generated string at every kind of point (including
   inside a repeat, so the tail match crosses the x|y boundary). *)
let prop_lz77_concat_matches_oracle =
  List.map
    (fun (gen_name, gen, count) ->
      QCheck.Test.make
        ~name:(Printf.sprintf "lz77 concat length = oracle on x ^ y (%s)" gen_name)
        ~count
        (QCheck.make QCheck.Gen.(pair gen (pair gen (int_bound 1000))))
        (fun (x, (y, cut)) ->
          let xy = x ^ y in
          let cut = cut mod (String.length xy + 1) in
          let a = String.sub xy 0 cut and b = String.sub xy cut (String.length xy - cut) in
          let want = Lz77_oracle.compressed_length_bits xy in
          Lz77.concat_length_bits x y = want && Lz77.concat_length_bits a b = want))
    lz77_gens

let test_lz77_scratch_reuse () =
  (* A long parse leaves positions in the reused tables; the short parses
     after it must not see them, and vice versa. *)
  let long = repeat "abcdefgh" 6000 in
  let cases = [ "abcdefgh"; long; ""; "abcabcabc"; long ^ "x"; "a"; "abcdefghabcdefgh" ] in
  List.iter
    (fun s ->
      Alcotest.(check int)
        (Printf.sprintf "len=%d" (String.length s))
        (Lz77_oracle.compressed_length_bits s)
        (Lz77.compressed_length_bits s);
      Alcotest.(check int)
        (Printf.sprintf "concat len=%d" (String.length s))
        (Lz77_oracle.compressed_length_bits (s ^ s))
        (Lz77.concat_length_bits s s))
    (cases @ List.rev cases)

let test_lz77_window_edge () =
  (* A repeat at distance window_size - 1, window_size and window_size + 1:
     the first two are matches, the last is out of reach. *)
  let p = "SENTINEL-0123456789" in
  let rng = Leakdetect_util.Prng.create 5 in
  let filler =
    String.init (Lz77.window_size + 8) (fun _ -> Char.chr (Leakdetect_util.Prng.int rng 256))
  in
  let at dist = p ^ String.sub filler 0 (dist - String.length p) ^ p in
  let bits =
    List.map
      (fun dist ->
        let s = at dist in
        Alcotest.(check int) (Printf.sprintf "length at distance %d" dist)
          (Lz77_oracle.compressed_length_bits s) (Lz77.compressed_length_bits s);
        Alcotest.(check string) (Printf.sprintf "bytes at distance %d" dist)
          (Lz77_oracle.compress s) (Lz77.compress s);
        Lz77.compressed_length_bits s - (9 * dist))
      [ Lz77.window_size - 1; Lz77.window_size; Lz77.window_size + 1 ]
  in
  match bits with
  | [ inside; edge; outside ] ->
    Alcotest.(check int) "edge still matches" inside edge;
    Alcotest.(check bool) "past the edge is literal" true (outside > edge)
  | _ -> assert false

let test_lz77_parallel_scratch () =
  (* Every domain grows its own scratch from cold: sizes cycle from empty
     to past the window so buffers grow mid-job on each domain. *)
  let rng = Leakdetect_util.Prng.create 11 in
  let strings =
    Array.init 240 (fun i ->
        let n = [| 0; 5; 160; 700; 4096; Lz77.window_size + 300 |].(i mod 6) in
        String.init n (fun _ -> Char.chr (97 + Leakdetect_util.Prng.int rng (1 + (i mod 4)))))
  in
  let sequential = Array.map (Compressor.length_bits Compressor.Lz77) strings in
  let parallel =
    Fixtures.with_pool 2 (fun pool ->
        Leakdetect_parallel.Pool.parallel_map_array ~pool ~chunk:3
          (Compressor.length_bits Compressor.Lz77) strings)
  in
  Alcotest.(check (array int)) "jobs=2 = sequential" sequential parallel;
  Alcotest.(check (array int)) "sequential = oracle"
    (Array.map Lz77_oracle.compressed_length_bits strings) sequential

let test_concat_length_bits_all_algos () =
  let x = "GET /ad/sdk?imei=355021930123456" and y = "&imei=355021930123456 HTTP/1.1" in
  List.iter
    (fun algo ->
      Alcotest.(check int) (Compressor.name algo)
        (Compressor.length_bits algo (x ^ y))
        (Compressor.concat_length_bits algo x y))
    codecs

(* --- NCD --- *)

let test_ncd_range_and_identity () =
  let cache = Compressor.Cache.create Compressor.Lz77 in
  let ncd = Compressor.Cache.ncd cache in
  Alcotest.(check (float 1e-9)) "empty strings" 0. (ncd "" "");
  let self = ncd "abcabcabc" "abcabcabc" in
  Alcotest.(check bool) "self distance small" true (self < 0.3);
  let x = "GET /ads?android_id=3b2f&fmt=json" in
  let y = "completely unrelated PQRSTUVWXYZ 0987654321 zzz" in
  Alcotest.(check bool) "unrelated distance large" true (ncd x y > 0.5)

let prop_ncd_bounds =
  QCheck.Test.make ~name:"ncd stays in [0,1]" ~count:200
    (QCheck.make QCheck.Gen.(pair ascii_gen ascii_gen))
    (fun (x, y) ->
      let cache = Compressor.Cache.create Compressor.Lz77 in
      let d = Compressor.Cache.ncd cache x y in
      d >= 0. && d <= 1.)

let test_ncd_discrimination () =
  (* Same-module packets must be closer than cross-module packets —
     the property the whole clustering step relies on. *)
  let cache = Compressor.Cache.create Compressor.Lz77 in
  let a1 = "GET /ad/sdk/img?aid=jp.co.app1&imei=355021930123456&size=320x50 HTTP/1.1" in
  let a2 = "GET /ad/sdk/img?aid=jp.co.app2&imei=355021930123456&size=320x50 HTTP/1.1" in
  let b = "POST /aap.do HTTP/1.1" in
  let within = Compressor.Cache.ncd cache a1 a2 in
  let across = Compressor.Cache.ncd cache a1 b in
  Alcotest.(check bool) "within < across" true (within < across)

let test_pair_cache_bounded () =
  let cache = Compressor.Cache.create ~pair_capacity:2 Compressor.Lz77 in
  let s i = Printf.sprintf "payload-%d-%s" i (String.make 10 'x') in
  for i = 0 to 5 do
    ignore (Compressor.Cache.ncd cache (s i) (s (i + 100)))
  done;
  (* Uncached pairs still produce correct, identical distances. *)
  let d1 = Compressor.Cache.ncd cache (s 5) (s 105) in
  let d2 = Compressor.Cache.ncd cache (s 5) (s 105) in
  Alcotest.(check (float 0.)) "identical without caching" d1 d2

let test_compressor_names () =
  List.iter
    (fun algo ->
      Alcotest.(check (option string))
        (Compressor.name algo) (Some (Compressor.name algo))
        (Option.map Compressor.name (Compressor.of_name (Compressor.name algo))))
    codecs;
  Alcotest.(check bool) "unknown name" true (Compressor.of_name "zstd" = None)

let suite =
  [
    ( "compress.bitio",
      [
        Alcotest.test_case "basic fields" `Quick test_bitio_basic;
        Alcotest.test_case "end of input" `Quick test_bitio_end_of_input;
        qtest prop_bitio_roundtrip;
      ] );
    ( "compress.roundtrip",
      [
        Alcotest.test_case "edge cases (all algos)" `Quick test_roundtrip_edge_cases;
        Alcotest.test_case "lz77 window boundary" `Quick test_lz77_window_boundary;
        Alcotest.test_case "lz77 max-match runs" `Quick test_lz77_max_match_runs;
        Alcotest.test_case "lz77 overlapping match" `Quick test_lz77_overlapping_match;
        Alcotest.test_case "lzw dictionary reset" `Quick test_lzw_dictionary_reset;
        Alcotest.test_case "effectiveness" `Quick test_compression_effectiveness;
        Alcotest.test_case "corrupt stream" `Quick test_corrupt_stream;
        Alcotest.test_case "huffman code lengths" `Quick test_huffman_code_lengths;
        qtest prop_lz77_ascii;
        qtest prop_lz77_binary;
        qtest prop_lzw_ascii;
        qtest prop_lzw_binary;
        qtest prop_huffman_ascii;
        qtest prop_huffman_binary;
        qtest prop_length_bits_consistent;
      ] );
    ( "compress.lz77_oracle",
      [
        Alcotest.test_case "scratch reuse across sizes" `Quick test_lz77_scratch_reuse;
        Alcotest.test_case "window edge" `Quick test_lz77_window_edge;
        Alcotest.test_case "per-domain scratch (jobs=2)" `Quick test_lz77_parallel_scratch;
        Alcotest.test_case "concat length (all algos)" `Quick test_concat_length_bits_all_algos;
      ]
      @ List.map qtest
          (prop_lz77_length_matches_oracle @ prop_lz77_compress_matches_oracle
         @ prop_lz77_concat_matches_oracle) );
    ( "compress.ncd",
      [
        Alcotest.test_case "range and identity" `Quick test_ncd_range_and_identity;
        Alcotest.test_case "discrimination" `Quick test_ncd_discrimination;
        Alcotest.test_case "pair cache bounded" `Quick test_pair_cache_bounded;
        Alcotest.test_case "algorithm names" `Quick test_compressor_names;
        qtest prop_ncd_bounds;
      ] );
  ]
