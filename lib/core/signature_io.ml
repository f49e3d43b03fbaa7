module Leak_error = Leakdetect_util.Leak_error
module Trace = Leakdetect_http.Trace
module Strutil = Leakdetect_util.Strutil

let mode_to_string = function
  | Signature.Conjunction -> "conjunction"
  | Signature.Ordered -> "ordered"

let mode_of_string = function
  | "conjunction" -> Some Signature.Conjunction
  | "ordered" -> Some Signature.Ordered
  | _ -> None

let add_line buf (s : Signature.t) =
  Strutil.add_int buf s.Signature.id;
  Buffer.add_char buf '\t';
  Buffer.add_string buf (mode_to_string s.Signature.mode);
  Buffer.add_char buf '\t';
  Strutil.add_int buf s.Signature.cluster_size;
  List.iter
    (fun token ->
      Buffer.add_char buf '\t';
      Buffer.add_string buf (Trace.escape_field token))
    s.Signature.tokens

(* Room for the three fixed fields and every token unescaped: one buffer
   that rarely grows. *)
let line_capacity (s : Signature.t) =
  List.fold_left (fun n t -> n + 1 + String.length t) 40 s.Signature.tokens

let to_line s =
  let buf = Buffer.create (line_capacity s) in
  add_line buf s;
  Buffer.contents buf

let of_line line =
  match String.split_on_char '\t' line with
  | id_s :: mode_s :: size_s :: tokens when tokens <> [] -> (
    match (int_of_string_opt id_s, mode_of_string mode_s, int_of_string_opt size_s) with
    | Some id, Some mode, Some cluster_size -> (
      (* Each token is unescaped once; the first bad one, in line order,
         is the error. *)
      let rec unescape acc = function
        | [] -> Ok (List.rev acc)
        | t :: rest -> (
          match Trace.unescape_field t with
          | Some u -> unescape (u :: acc) rest
          | None -> Error (Leak_error.Bad_escape t))
      in
      match unescape [] tokens with
      | Error _ as e -> e
      | Ok unescaped -> (
        try Ok (Signature.make ~id ~mode ~cluster_size unescaped)
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
