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

let () = exit (Reach.run ~allow (List.tl (Array.to_list Sys.argv)))
