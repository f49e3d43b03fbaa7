module Leak_error = Leakdetect_util.Leak_error

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

let save path signatures =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc (to_line s);
          output_char oc '\n')
        signatures)

module Trace = Leakdetect_http.Trace

let load ?(config = Pipeline_config.default) path =
  let on_error = config.Pipeline_config.on_error in
  Trace.read_file ~open_:open_in path (fun ic ->
      let rec loop lineno acc skips =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc, skips)
        | line -> (
          match of_line line with
          | Ok s -> loop (lineno + 1) (s :: acc) skips
          | Error e ->
            let e = Leak_error.to_string e in
            (match on_error with
            | `Fail -> Error (Printf.sprintf "line %d: %s" lineno e)
            | `Skip -> loop (lineno + 1) acc (Trace.add_skip skips lineno e)))
      in
      loop 1 [] Trace.no_skips)
