module Crc32 = Leakdetect_util.Crc32

let magic = "LDWAL001"
let header_len = String.length magic
(* Upper bound on a payload length.  Longer lengths in a frame are
   treated as corruption, bounding how far a flipped length byte can send
   the scanner. *)
let max_record = 16 * 1024 * 1024

let put_u32le buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 24) land 0xff))

let get_u32le s pos =
  Char.code s.[pos]
  lor (Char.code s.[pos + 1] lsl 8)
  lor (Char.code s.[pos + 2] lsl 16)
  lor (Char.code s.[pos + 3] lsl 24)

let frame payload =
  let buf = Buffer.create (String.length payload + 8) in
  put_u32le buf (String.length payload);
  put_u32le buf (Crc32.string payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

(* --- writing --- *)

type writer = { oc : out_channel; mutable size : int }

let create path =
  let oc = open_out_bin path in
  output_string oc magic;
  flush oc;
  { oc; size = header_len }

let open_append path =
  if not (Sys.file_exists path) then Ok (create path)
  else begin
    let ic = open_in_bin path in
    let head =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let n = in_channel_length ic in
          (n, try really_input_string ic (min n header_len) with End_of_file -> ""))
    in
    match head with
    | n, h when h = magic ->
      let oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path in
      Ok { oc; size = n }
    | _, h -> Error (Printf.sprintf "%s: bad WAL header %S" path h)
  end

let append w payload =
  let record = frame payload in
  output_string w.oc record;
  flush w.oc;
  w.size <- w.size + String.length record

let size w = w.size
let close w = close_out w.oc

(* --- reading --- *)

type tail =
  | Clean
  | Torn of { offset : int; dropped_bytes : int; reason : string }

let tail_to_string = function
  | Clean -> "clean"
  | Torn { offset; dropped_bytes; reason } ->
    Printf.sprintf "torn at byte %d (%d byte(s) dropped): %s" offset dropped_bytes
      reason

(* Scan records from [pos]; stop at the first frame that cannot be trusted
   and report it as the torn tail. *)
let scan image =
  let n = String.length image in
  let torn offset reason = Torn { offset; dropped_bytes = n - offset; reason } in
  let rec loop pos acc =
    if pos = n then (List.rev acc, Clean)
    else if pos + 8 > n then (List.rev acc, torn pos "truncated record frame")
    else begin
      let len = get_u32le image pos in
      let crc = get_u32le image (pos + 4) in
      if len > max_record then
        (List.rev acc, torn pos (Printf.sprintf "implausible record length %d" len))
      else if pos + 8 + len > n then
        ( List.rev acc,
          torn pos
            (Printf.sprintf "record of %d byte(s) extends past end of file" len) )
      else begin
        let payload = String.sub image (pos + 8) len in
        if Crc32.string payload <> crc then
          ( List.rev acc,
            torn pos
              (Printf.sprintf "crc mismatch (stored %s, computed %s)" (Crc32.to_hex crc)
                 (Crc32.to_hex (Crc32.string payload))) )
        else loop (pos + 8 + len) (payload :: acc)
      end
    end
  in
  loop header_len []

let read_string image =
  let n = String.length image in
  if n < header_len then
    if image = String.sub magic 0 n then
      (* A crash during file creation: the header itself is torn.  Nothing
         was ever committed, so salvage the empty log. *)
      Ok ([], Torn { offset = 0; dropped_bytes = n; reason = "truncated header" })
    else Error (Printf.sprintf "bad WAL header %S" image)
  else if String.sub image 0 header_len <> magic then
    Error (Printf.sprintf "bad WAL header %S" (String.sub image 0 header_len))
  else Ok (scan image)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read path =
  match read_file path with
  | exception Sys_error e -> Error e
  | image -> (
    match read_string image with
    | Error e -> Error (path ^ ": " ^ e)
    | Ok _ as ok -> ok)

let repair path =
  match read path with
  | Error _ as e -> e
  | Ok (_, Clean) -> Ok Clean
  | Ok (records, (Torn _ as tail)) ->
    (* Rewrite the clean prefix through a temp file + rename so a crash
       mid-repair can only leave the old (still salvageable) image. *)
    let tmp = path ^ ".repair.tmp" in
    let w = create tmp in
    List.iter (append w) records;
    close w;
    Sys.rename tmp path;
    Ok tail
