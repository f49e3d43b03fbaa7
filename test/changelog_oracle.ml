(* Reference canonical-set checksums: the original serialise-then-CRC
   implementation of [Leakdetect_distrib.Changelog], kept as the
   differential-test oracle for the tree-backed sets.  It sorts, joins
   every line and checksums the whole text on each call; only its output
   matters here, not its speed.  Below them, the original [Printf]-based
   entry line codec over the original signature codec. *)

module Crc32 = Leakdetect_util.Crc32
module Signature = Leakdetect_core.Signature
module Signature_io = Leakdetect_core.Signature_io
module Changelog = Leakdetect_distrib.Changelog
module Leak_error = Leakdetect_util.Leak_error

let canonical set =
  let sorted =
    List.sort (fun a b -> compare a.Signature.id b.Signature.id) set
  in
  String.concat "\n" (List.map Signature_io.to_line sorted)

let checksum_set set = Crc32.string (canonical set)

let wire_checksum ~version set =
  Crc32.string (string_of_int version ^ "\n" ^ canonical set)

let entry_to_line (e : Changelog.entry) =
  match e.Changelog.change with
  | Changelog.Add s -> Printf.sprintf "a\t%d\t%s" e.Changelog.version (Signature_io_oracle.to_line s)
  | Changelog.Retire id -> Printf.sprintf "r\t%d\t%d" e.Changelog.version id

let entry_of_line line =
  match String.index_opt line '\t' with
  | None -> Error (Printf.sprintf "bad changelog line %S" line)
  | Some i -> (
    let tag = String.sub line 0 i in
    let rest = String.sub line (i + 1) (String.length line - i - 1) in
    match String.index_opt rest '\t' with
    | None -> Error (Printf.sprintf "bad changelog line %S" line)
    | Some j -> (
      let version = String.sub rest 0 j in
      let payload = String.sub rest (j + 1) (String.length rest - j - 1) in
      match int_of_string_opt version with
      | None -> Error (Printf.sprintf "bad changelog version %S" version)
      | Some version when version <= 0 ->
        Error (Printf.sprintf "non-positive changelog version %d" version)
      | Some version -> (
        match tag with
        | "a" -> (
          match Signature_io_oracle.of_line payload with
          | Ok s -> Ok { Changelog.version; change = Changelog.Add s }
          | Error e ->
            Error ("bad changelog signature: " ^ Leak_error.to_string e))
        | "r" -> (
          match int_of_string_opt payload with
          | Some id when id >= 0 -> Ok { Changelog.version; change = Changelog.Retire id }
          | _ -> Error (Printf.sprintf "bad retire id %S" payload))
        | _ -> Error (Printf.sprintf "unknown changelog tag %S" tag))))
