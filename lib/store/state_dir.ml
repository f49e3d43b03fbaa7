let ensure dir =
  if Sys.file_exists dir then
    if Sys.is_directory dir then Ok ()
    else Error (Printf.sprintf "%s exists and is not a directory" dir)
  else
    match Sys.mkdir dir 0o755 with
    | () -> Ok ()
    | exception Sys_error e -> Error e

let rec remove path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_root ~prefix dir f =
  match dir with
  | Some d ->
    if not (Sys.file_exists d) then Sys.mkdir d 0o755;
    f d
  | None ->
    let d = Filename.temp_file prefix "" in
    Sys.remove d;
    Sys.mkdir d 0o755;
    Fun.protect ~finally:(fun () -> remove d) (fun () -> f d)
