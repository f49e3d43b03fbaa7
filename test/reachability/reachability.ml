(* Dead-module check: every module of every library under [lib/] must be
   named, directly or through other library modules, by a source file of
   the executables ([bin/], [bench/], [ledger/], [examples/]).  Tests do
   not count — a module only its own tests reach is dead code.

     reachability LIB_DIR ROOT_DIR...

   exits 1 and lists the unreachable modules, else prints a one-line
   summary.  The scan is lexical: comments and string literals are
   dropped, then every capitalised dotted path is resolved — through
   [Leakdetect_x.M] paths, [module A = Leakdetect_x] library aliases, and
   (inside a library) bare sibling-module names.  A module is "named" as
   soon as any path mentions it, in an [.ml] or an [.mli].

   Blind spot: naming is not use.  A module named only by a constructor
   that nobody builds still counts as reachable, because the module that
   names it is.  That is how [Cluster.Nn_chain] once escaped: [Cluster]
   matched on the constructor and called [Nn_chain.cluster], but no
   caller ever built [Cluster.Nn_chain _]. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Source text with comments and string literals blanked out, so a module
   mentioned only in prose or a message is not "named". *)
let code_only src =
  let n = String.length src in
  let out = Buffer.create n in
  let rec skip_string i =
    if i >= n then n
    else match src.[i] with
      | '\\' -> skip_string (i + 2)
      | '"' -> i + 1
      | _ -> skip_string (i + 1)
  in
  (* [i] at a quote: ['x'] or ['\..'] is a character literal (so ['"']
     opens no string); anything else (a type variable, a primed name) is
     not. *)
  let char_literal_end i =
    if i + 2 < n && src.[i + 1] <> '\\' && src.[i + 2] = '\'' then Some (i + 3)
    else if i + 3 < n && src.[i + 1] = '\\' then
      Option.map (fun j -> j + 1) (String.index_from_opt src (i + 3) '\'')
    else None
  in
  let opens_comment i = i + 1 < n && src.[i] = '(' && src.[i + 1] = '*' in
  let rec skip_comment depth i =
    if i >= n then n
    else if opens_comment i then skip_comment (depth + 1) (i + 2)
    else if i + 1 < n && src.[i] = '*' && src.[i + 1] = ')' then
      if depth = 1 then i + 2 else skip_comment (depth - 1) (i + 2)
    else if src.[i] = '"' then skip_comment depth (skip_string (i + 1))
    else
      match if src.[i] = '\'' then char_literal_end i else None with
      | Some j -> skip_comment depth j
      | None -> skip_comment depth (i + 1)
  in
  let rec go i =
    if i < n then begin
      let next =
        if opens_comment i then Some (skip_comment 1 (i + 2))
        else if src.[i] = '"' then Some (skip_string (i + 1))
        else if src.[i] = '\'' then char_literal_end i
        else None
      in
      match next with
      | Some j ->
        Buffer.add_char out ' ';
        go j
      | None ->
        Buffer.add_char out src.[i];
        go (i + 1)
    end
  in
  go 0;
  Buffer.contents out

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let is_upper c = c >= 'A' && c <= 'Z'

(* Tokens of comment-free code: each identifier with its dotted
   continuation ([Leakdetect_util.Json.to_string]) is one token, every
   other non-blank character its own.  A polymorphic variant ([`Delta])
   is one token, backquote included, so it never reads as a module. *)
let tokens code =
  let n = String.length code in
  let acc = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = code.[!i] in
    if is_ident_char c || (c = '`' && !i + 1 < n && is_upper code.[!i + 1]) then begin
      let start = !i in
      incr i;
      let continue = ref true in
      while !continue do
        while !i < n && is_ident_char code.[!i] do incr i done;
        if !i + 1 < n && code.[!i] = '.' && is_ident_char code.[!i + 1] then incr i
        else continue := false
      done;
      acc := String.sub code start (!i - start) :: !acc
    end
    else begin
      if c <> ' ' && c <> '\n' && c <> '\t' && c <> '\r' then acc := String.make 1 c :: !acc;
      incr i
    end
  done;
  List.rev !acc

let rec files_under dir =
  Array.to_list (Sys.readdir dir)
  |> List.sort compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory path then files_under path else [ path ])

(* The [(name ...)] of a library's dune file. *)
let library_name dune_file =
  let words =
    String.split_on_char ' '
      (String.map (function '(' | ')' | '\n' | '\t' | '\r' -> ' ' | c -> c) (read_file dune_file))
    |> List.filter (( <> ) "")
  in
  let rec find = function
    | "name" :: name :: _ -> Some name
    | _ :: rest -> find rest
    | [] -> None
  in
  find words

type library = { wrapper : string; dir : string; modules : string list }

let libraries lib_root =
  Sys.readdir lib_root |> Array.to_list |> List.sort compare
  |> List.filter_map (fun entry ->
         let dir = Filename.concat lib_root entry in
         let dune = Filename.concat dir "dune" in
         if Sys.is_directory dir && Sys.file_exists dune then
           Option.map
             (fun name ->
               let modules =
                 Sys.readdir dir |> Array.to_list
                 |> List.filter (fun f -> Filename.check_suffix f ".ml")
                 |> List.map (fun f -> String.capitalize_ascii (Filename.remove_extension f))
                 |> List.sort compare
               in
               { wrapper = String.capitalize_ascii name; dir; modules })
             (library_name dune)
         else None)

(* The (library, module) pairs a source file names.  [home] is the
   library the file belongs to, whose sibling modules it names bare. *)
let references libs ~home path =
  let toks = tokens (code_only (read_file path)) in
  let wrapper w = List.find_opt (fun l -> l.wrapper = w) libs in
  (* [module Http = Leakdetect_http] makes [Http] stand for the library. *)
  let rec aliases = function
    | "module" :: name :: "=" :: target :: rest -> (
      match wrapper target with
      | Some l -> (name, l) :: aliases rest
      | None -> aliases rest)
    | _ :: rest -> aliases rest
    | [] -> []
  in
  let aliases = aliases toks in
  let library head =
    match wrapper head with Some l -> Some l | None -> List.assoc_opt head aliases
  in
  (* A path may hang off a value, as in [r.Topology.invariants]. *)
  let rec from_module = function
    | p :: rest when p = "" || not (is_upper p.[0]) -> from_module rest
    | path -> path
  in
  List.concat_map
    (fun tok ->
      match from_module (String.split_on_char '.' tok) with
      | [] -> []
      | head :: rest -> (
        match (library head, rest, home) with
        | Some l, m :: _, _ -> if List.mem m l.modules then [ (l, m) ] else []
        | None, _, Some l when List.mem head l.modules -> [ (l, head) ]
        | _ -> []))
    toks

let () =
  match Array.to_list Sys.argv with
  | _ :: lib_root :: (_ :: _ as roots) ->
    let libs = libraries lib_root in
    let key (l, m) = l.wrapper ^ "." ^ m in
    let seen = Hashtbl.create 128 in
    let queue = Queue.create () in
    let visit r =
      if not (Hashtbl.mem seen (key r)) then begin
        Hashtbl.replace seen (key r) ();
        Queue.add r queue
      end
    in
    roots
    |> List.concat_map files_under
    |> List.filter (fun f -> Filename.check_suffix f ".ml")
    |> List.iter (fun f -> List.iter visit (references libs ~home:None f));
    while not (Queue.is_empty queue) do
      let l, m = Queue.pop queue in
      let base = Filename.concat l.dir (String.uncapitalize_ascii m) in
      List.iter
        (fun ext ->
          if Sys.file_exists (base ^ ext) then
            List.iter visit (references libs ~home:(Some l) (base ^ ext)))
        [ ".ml"; ".mli" ]
    done;
    let all = List.concat_map (fun l -> List.map (fun m -> (l, m)) l.modules) libs in
    let dead = List.filter (fun r -> not (Hashtbl.mem seen (key r))) all in
    if dead = [] then
      Printf.printf "reachability: all %d library modules are named from %s\n"
        (List.length all) (String.concat ", " roots)
    else begin
      List.iter
        (fun (l, m) ->
          Printf.eprintf "unreachable: %s (%s/%s.ml) is named by no module reachable from %s\n"
            (key (l, m)) l.dir (String.uncapitalize_ascii m) (String.concat ", " roots))
        dead;
      exit 1
    end
  | _ ->
    prerr_endline "usage: reachability LIB_DIR ROOT_DIR...";
    exit 2
