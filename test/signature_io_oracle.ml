(* Reference signature line codec: the original implementation of
   [Leakdetect_core.Signature_io.to_line]/[of_line], kept verbatim as the
   differential-test oracle for the one-pass codec.  It builds a token
   list and one buffer per token, and unescapes every token twice; only
   its output matters here, not its speed. *)

module Leak_error = Leakdetect_util.Leak_error
module Signature = Leakdetect_core.Signature

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape s =
  let n = String.length s in
  let buf = Buffer.create n in
  let rec loop i =
    if i = n then Some (Buffer.contents buf)
    else if s.[i] = '\\' then
      if i + 1 = n then None
      else (
        match s.[i + 1] with
        | '\\' -> Buffer.add_char buf '\\'; loop (i + 2)
        | 't' -> Buffer.add_char buf '\t'; loop (i + 2)
        | 'n' -> Buffer.add_char buf '\n'; loop (i + 2)
        | 'r' -> Buffer.add_char buf '\r'; loop (i + 2)
        | _ -> None)
    else begin
      Buffer.add_char buf s.[i];
      loop (i + 1)
    end
  in
  loop 0

let mode_to_string = function
  | Signature.Conjunction -> "conjunction"
  | Signature.Ordered -> "ordered"

let mode_of_string = function
  | "conjunction" -> Some Signature.Conjunction
  | "ordered" -> Some Signature.Ordered
  | _ -> None

let to_line (s : Signature.t) =
  String.concat "\t"
    (string_of_int s.Signature.id
    :: mode_to_string s.Signature.mode
    :: string_of_int s.Signature.cluster_size
    :: List.map escape s.Signature.tokens)

let of_line line =
  match String.split_on_char '\t' line with
  | id_s :: mode_s :: size_s :: tokens when tokens <> [] -> (
    match (int_of_string_opt id_s, mode_of_string mode_s, int_of_string_opt size_s) with
    | Some id, Some mode, Some cluster_size -> (
      match List.find_opt (fun t -> unescape t = None) tokens with
      | Some bad -> Error (Leak_error.Bad_escape bad)
      | None ->
        let unescaped = List.filter_map unescape tokens in
        (try Ok (Signature.make ~id ~mode ~cluster_size unescaped)
         with Invalid_argument m -> Error (Leak_error.Invalid m)))
    | None, _, _ -> Error (Leak_error.Bad_field ("id", id_s))
    | _, None, _ -> Error (Leak_error.Bad_field ("mode", mode_s))
    | _, _, None -> Error (Leak_error.Bad_field ("cluster size", size_s)))
  | _ -> Error (Leak_error.Syntax "expected at least 4 tab-separated fields")
