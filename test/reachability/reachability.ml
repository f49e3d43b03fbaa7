(* Dead-code check of the repository: see reach.ml.

     reachability DIR...

   reads the [.cmt] files under each DIR (run from the build root, after
   [dune build @check]); exits 1, listing each cause, if any library
   value, constructor or module is reached from no executable and is not
   on [allow], or if an entry of [allow] is stale. *)

(* Reference implementations that tests compare live code against, each
   with the reason it stays.  What an entry uses (the codecs' bit I/O, for
   one) is reached from it and needs no entry of its own. *)
let allow =
  let codec = "real encoder/decoder behind the codec's C(x): test_compress proves C(x) bounds a decodable encoding" in
  [
    ("Compressor.compress", codec);
    ("Compressor.decompress", codec);
    ("Huffman.compress", codec);
    ("Huffman.decompress", codec);
    ("Lz77.compress", codec);
    ("Lz77.decompress", codec);
    ("Lzw.compress", codec);
    ("Lzw.decompress", codec);
    ( "Bitio.Writer.bit_length",
      "test/lz77_oracle.ml measures its reference LZ77 encoding with it; test_compress holds Lz77's C(x) to that" );
    ("Shingle.jaccard", "exact Jaccard, the oracle test_sketch holds the minhash estimate to");
  ]

(* Fields only tests read, each with the test that reads it. *)
let fields =
  [
    ( "Siggen.result.dendrogram",
      "test_core's siggen tests check the linkage, backend and pool reach the dendrogram Siggen built" );
    ( "Payload_check.verdict.via",
      "test_core's payload tests and the per-needle oracle property check how each kind was found" );
    ( "Normalize.lattice.errors",
      "test_normalize's budget, oracle, obs-counter and known-answer tests compare budget exhaustions" );
    ( "Normalize.lattice.failed_decodes",
      "test_normalize's oracle, obs-counter and known-answer tests compare failed-decode counts" );
  ]

(* The test units count as users of an export, but not as roots or
   readers; the check's own units and fixture are not users at all. *)
let () =
  exit
    (Reach.run ~allow ~fields ~tests:[ "test" ] ~skip:[ "test/reachability" ]
       (List.tl (Array.to_list Sys.argv)))
