(* Lists every flag of every leakdetect subcommand, one line each:
   "<subcommand>: <names> (absent=<default>)", as `--help=plain` prints
   the option label.  The --jobs default is the machine's domain count, so
   it is masked.

   Usage: flags.exe PATH/TO/leakdetect.exe *)

let help exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list ((exe :: args) @ [ "--help=plain" ])) in
  let lines = In_channel.input_lines ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> lines
  | _ -> failwith (String.concat " " (exe :: args) ^ " --help=plain failed")

(* A label line sits at exactly seven spaces of indent; its doc at more. *)
let label line =
  let n = String.length line in
  if n > 7 && String.sub line 0 7 = "       " && line.[7] <> ' ' then
    Some (String.sub line 7 (n - 7))
  else None

(* The lines of the section headed [title], up to the next heading. *)
let section title lines =
  let rec skip = function
    | [] -> []
    | l :: rest -> if l = title then take [] rest else skip rest
  and take acc = function
    | l :: rest when l = "" || l.[0] = ' ' -> take (l :: acc) rest
    | _ -> List.rev acc
  in
  skip lines

let mask_jobs l =
  if String.starts_with ~prefix:"-j N, --jobs=N (absent=" l then
    "-j N, --jobs=N (absent=<domains>)"
  else l

let () =
  let exe = Sys.argv.(1) in
  let commands =
    List.filter_map
      (fun l -> Option.map (fun s -> List.hd (String.split_on_char ' ' s)) (label l))
      (section "COMMANDS" (help exe []))
  in
  List.iter
    (fun cmd ->
      List.iter
        (fun l ->
          match label l with
          | Some s when s.[0] = '-' -> Printf.printf "%s: %s\n" cmd (mask_jobs s)
          | _ -> ())
        (help exe [ cmd ]))
    commands
