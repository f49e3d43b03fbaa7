(* Reference canonical-set checksums: the original serialise-then-CRC
   implementation of [Leakdetect_distrib.Changelog], kept as the
   differential-test oracle for the tree-backed sets.  It sorts, joins
   every line and checksums the whole text on each call; only its output
   matters here, not its speed. *)

module Crc32 = Leakdetect_util.Crc32
module Signature = Leakdetect_core.Signature
module Signature_io = Leakdetect_core.Signature_io

let canonical set =
  let sorted =
    List.sort (fun a b -> compare a.Signature.id b.Signature.id) set
  in
  String.concat "\n" (List.map Signature_io.to_line sorted)

let checksum_set set = Crc32.string (canonical set)

let wire_checksum ~version set =
  Crc32.string (string_of_int version ^ "\n" ^ canonical set)
