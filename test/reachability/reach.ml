(* Value-level dead-code check over the compiler's typed trees.

   The input is the byte-mode [.cmt] files dune writes for every unit
   (built by the [@check] alias).  Library units ([.objs] directories)
   define things; executable units ([.eobjs] directories) are the roots:
   every binding in them is live.  Tests are not roots, so code only a
   test reaches is dead.

   What is tracked, keyed by canonical dotted paths such as
   [Leakdetect_core__Siggen.generate]:
   - values: every top-level [let], [external] and nested-module [let];
     a [let] binding several names is one node;
   - constructors: of every variant type, and exceptions;
   - types: only to decide whether a module is live.

   Edges are what a definition's body uses, resolved through module
   aliases (dune's wrapper modules included), [include], nested modules
   and [open]:
   - a value is used by an identifier naming it ([Texp_ident]), so a
     function passed as an argument counts;
   - a constructor is used only where an expression builds it
     ([Texp_construct]); a pattern that matches it does not count;
   - a module passed to a functor, packed as a first-class module or
     included into an executable counts as using all of it;
   - a type is used when a used value's type, an expression's type, an
     annotation or a used type's definition names it.
   A unit's top-level effects ([let () = ...]) run as soon as anything in
   the unit is used.

   A module is live when any value, constructor or type in it is.  The
   report lists every dead module once, and every dead value or
   constructor of a live module, each with its file and line.

   Two more kinds share the run:
   - unread fields: a field of a library record that no reached node
     reads.  A read is a projection ([Texp_field]), a record pattern
     naming the field, or a [{ r with ... }] copy keeping it; building a
     record and [<-] are writes.  [type t = M.t = { ... }] re-exports
     M's fields, like constructors.
   - unused exports: a [val] of a library interface ([.cmti], nested
     module signatures included) that no other unit names, or passes on
     whole.  Test units ([tests]) count here, as users only: they define
     nothing, reach nothing and read nothing. *)

open Typedtree

(* A reference, recorded with raw module keys and resolved once every
   unit (and so every alias) is known. *)
type use =
  | Value of string * string (* module, name *)
  | Ctor of string * string * string (* module, type, constructor *)
  | Exn of string * string (* module, exception *)
  | Type of string * string (* module, type *)
  | Whole of string (* every definition under a module *)
  | Field of string * string * string (* module, record type, field *)

type node = { mutable uses : use list; mutable reached : bool }

type kind = Val | Con | Fld

(* Library units define, executables are roots, tests only name things. *)
type role = Lib | Exe | Test

type def = { kind : kind; key : string; node : node; modkey : string; file : string; line : int }

(* The state of one check. *)
type t = {
  aliases : (string, string) Hashtbl.t; (* module key -> aliased module *)
  includes : (string, string list) Hashtbl.t; (* module key -> included modules *)
  type_eqs : (string, string * string) Hashtbl.t; (* type key -> re-exported (module, type) *)
  values : (string, def) Hashtbl.t;
  ctors : (string, def) Hashtbl.t; (* "type#Ctor" for variants, "module#Exn" *)
  fields : (string, def) Hashtbl.t; (* "type#field" *)
  types : (string, node) Hashtbl.t;
  inits : (string, node) Hashtbl.t; (* unit -> its top-level effects *)
  mutable roots : node list;
  lib_units : (string, string) Hashtbl.t; (* library unit -> source file *)
  mutable defs : def list;
  mutable field_defs : def list;
  mutable refs : (string * use) list; (* unit naming it, value or whole module *)
  mutable exports : (string * string * string * int) list; (* module, val, file, line *)
}

let create () =
  {
    aliases = Hashtbl.create 256;
    includes = Hashtbl.create 16;
    type_eqs = Hashtbl.create 16;
    values = Hashtbl.create 2048;
    ctors = Hashtbl.create 512;
    fields = Hashtbl.create 1024;
    types = Hashtbl.create 1024;
    inits = Hashtbl.create 256;
    roots = [];
    lib_units = Hashtbl.create 256;
    defs = [];
    field_defs = [];
    refs = [];
    exports = [];
  }

let new_node () = { uses = []; reached = false }

(* ---- reading one unit ---------------------------------------------- *)

(* Per-unit bindings of identifiers to keys; idents are unique per unit. *)
type env = {
  st : t;
  unit_name : string;
  file : string;
  role : role;
  mods : (string, string) Hashtbl.t;
  vals : (string, string * string) Hashtbl.t;
  typs : (string, string * string) Hashtbl.t;
  exns : (string, string * string) Hashtbl.t;
}

let id_key = Ident.unique_name

let rec module_key env = function
  | Path.Pident id ->
    if Ident.global id then Some (Ident.name id) else Hashtbl.find_opt env.mods (id_key id)
  | Path.Pdot (p, s) -> Option.map (fun m -> m ^ "." ^ s) (module_key env p)
  | Path.Pextra_ty (p, _) -> module_key env p
  | Path.Papply _ -> None

(* A path to a value, type or extension constructor: its module and name. *)
let member_key env table = function
  | Path.Pident id -> Hashtbl.find_opt table (id_key id)
  | Path.Pdot (p, s) -> Option.map (fun m -> (m, s)) (module_key env p)
  | Path.Pextra_ty _ | Path.Papply _ -> None

let rec type_path = function Path.Pextra_ty (p, _) -> type_path p | p -> p

let type_use env p =
  Option.map (fun (m, t) -> Type (m, t)) (member_key env env.typs (type_path p))

(* Every type constructor a type expression names. *)
let type_uses env ty =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let rec go ty =
    let id = Types.get_id ty in
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.replace seen id ();
      (match Types.get_desc ty with
       | Types.Tconstr (p, _, _) -> Option.iter (fun u -> acc := u :: !acc) (type_use env p)
       | _ -> ());
      Btype.iter_type_expr go ty
    end
  in
  go ty;
  !acc

let head_type_use env ty =
  match Types.get_desc ty with Types.Tconstr (p, _, _) -> type_use env p | _ -> None

let add node uses = node.uses <- uses @ node.uses
let add_opt node = Option.iter (fun u -> node.uses <- u :: node.uses)

(* A name another unit may export: noted for the export report as well. *)
let add_ref env node u =
  env.st.refs <- (env.unit_name, u) :: env.st.refs;
  add_opt node (Some u)

(* Reading [ld]; fields of inline records are not tracked. *)
let field_use env (ld : Types.label_description) =
  match Types.get_desc ld.lbl_res with
  | Types.Tconstr (p, _, _) ->
    Option.map (fun (m, t) -> Field (m, t, ld.lbl_name)) (member_key env env.typs (type_path p))
  | _ -> None

let rec strip_constraint me =
  match me.mod_desc with Tmod_constraint (me, _, _, _) -> strip_constraint me | _ -> me

(* Record, in [node], everything [walk] visits.  Opening a module or
   aliasing it locally is not a use; naming a value in it is. *)
let collector env node =
  let open Tast_iterator in
  let expr it e =
    add_opt node (head_type_use env e.exp_type);
    match e.exp_desc with
    | Texp_ident (p, _, _) ->
      Option.iter (fun (m, v) -> add_ref env node (Value (m, v))) (member_key env env.vals p)
    | Texp_field (_, _, ld) ->
      add_opt node (field_use env ld);
      default_iterator.expr it e
    | Texp_record { fields; extended_expression = Some _; _ } ->
      Array.iter
        (function ld, Kept _ -> add_opt node (field_use env ld) | _, Overridden _ -> ())
        fields;
      default_iterator.expr it e
    | Texp_construct (_, cd, args) ->
      (match cd.cstr_tag with
       | Types.Cstr_extension (p, _) ->
         add_opt node (Option.map (fun (m, x) -> Exn (m, x)) (member_key env env.exns p))
       | _ -> (
         match Types.get_desc cd.cstr_res with
         | Types.Tconstr (p, _, _) ->
           add_opt node
             (Option.map (fun (m, t) -> Ctor (m, t, cd.cstr_name))
                (member_key env env.typs (type_path p)))
         | _ -> ()));
      List.iter (it.expr it) args
    | Texp_letmodule (Some id, _, _, me, body) -> (
      match (strip_constraint me).mod_desc with
      | Tmod_ident (p, _) ->
        Option.iter (Hashtbl.replace env.mods (id_key id)) (module_key env p);
        it.expr it body
      | _ -> default_iterator.expr it e)
    | _ -> default_iterator.expr it e
  in
  let module_expr it me =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Option.iter (fun m -> add_ref env node (Whole m)) (module_key env p)
    | _ -> default_iterator.module_expr it me
  in
  let pat : type k. iterator -> k general_pattern -> unit =
   fun it p ->
    (match p.pat_desc with
     | Tpat_record (fields, _) -> List.iter (fun (_, ld, _) -> add_opt node (field_use env ld)) fields
     | _ -> ());
    default_iterator.pat it p
  in
  let open_declaration it od =
    match (strip_constraint od.open_expr).mod_desc with
    | Tmod_ident _ -> ()
    | _ -> default_iterator.open_declaration it od
  in
  let typ it ct =
    (match ct.ctyp_desc with
     | Ttyp_constr (p, _, _) -> add_opt node (type_use env p)
     | _ -> ());
    default_iterator.typ it ct
  in
  { default_iterator with expr; module_expr; open_declaration; pat; typ }

let unit_init env =
  match Hashtbl.find_opt env.st.inits env.unit_name with
  | Some n -> n
  | None ->
    let n = new_node () in
    Hashtbl.replace env.st.inits env.unit_name n;
    n

let define env kind table ~modkey key node (loc : Location.t) =
  let d = { kind; key; node; modkey; file = env.file; line = loc.loc_start.pos_lnum } in
  match env.role with
  | Exe ->
    Hashtbl.replace table key d;
    env.st.roots <- node :: env.st.roots
  | Lib ->
    Hashtbl.replace table key d;
    if kind = Fld then env.st.field_defs <- d :: env.st.field_defs else env.st.defs <- d :: env.st.defs
  | Test -> ()

let define_type env ~modkey (td : type_declaration) =
  let key = modkey ^ "." ^ td.typ_name.txt in
  let node = new_node () in
  Hashtbl.replace env.st.types key node;
  let it = collector env node in
  it.type_declaration it td;
  let member kind table name loc =
    let n = new_node () in
    n.uses <- [ Type (modkey, td.typ_name.txt) ];
    define env kind table ~modkey (key ^ "#" ^ name) n loc
  in
  match (td.typ_kind, td.typ_manifest) with
  | (Ttype_variant _ | Ttype_record _), Some { ctyp_desc = Ttyp_constr (p, _, _); _ } ->
    (* [type t = M.t = A | B] and [type t = M.t = { ... }] re-export M's
       constructors and fields. *)
    Option.iter (Hashtbl.replace env.st.type_eqs key) (member_key env env.typs p)
  | Ttype_variant cds, _ -> List.iter (fun cd -> member Con env.st.ctors cd.cd_name.txt cd.cd_loc) cds
  | Ttype_record lds, _ -> List.iter (fun ld -> member Fld env.st.fields ld.ld_name.txt ld.ld_loc) lds
  | _ -> ()

let define_ext env ~modkey (ext : extension_constructor) =
  Hashtbl.replace env.exns (id_key ext.ext_id) (modkey, ext.ext_name.txt);
  let node = new_node () in
  let it = collector env node in
  it.extension_constructor it ext;
  define env Con env.st.ctors ~modkey (modkey ^ "#" ^ ext.ext_name.txt) node ext.ext_loc

let rec structure env ~modkey (str : structure) = List.iter (structure_item env ~modkey) str.str_items

and structure_item env ~modkey item =
  let init () = unit_init env in
  let uses_of node walk = walk (collector env node) in
  match item.str_desc with
  | Tstr_value (_, vbs) ->
    (* Register every name first, so [let rec] bodies resolve. *)
    let groups =
      List.map
        (fun vb ->
          let ids =
            pat_bound_idents_full vb.vb_pat
            |> List.filter (fun (id, _, _) -> (Ident.name id).[0] <> '_')
          in
          List.iter (fun (id, _, _) -> Hashtbl.replace env.vals (id_key id) (modkey, Ident.name id)) ids;
          (vb, ids))
        vbs
    in
    List.iter
      (fun (vb, ids) ->
        let node = if ids = [] then init () else new_node () in
        uses_of node (fun it -> it.value_binding it vb);
        List.iter
          (fun (id, (name : string Asttypes.loc), ty) ->
            add node (type_uses env ty);
            define env Val env.st.values ~modkey (modkey ^ "." ^ Ident.name id) node name.loc)
          ids)
      groups
  | Tstr_primitive vd ->
    Hashtbl.replace env.vals (id_key vd.val_id) (modkey, vd.val_name.txt);
    let node = new_node () in
    uses_of node (fun it -> it.value_description it vd);
    define env Val env.st.values ~modkey (modkey ^ "." ^ vd.val_name.txt) node vd.val_loc
  | Tstr_type (_, tds) ->
    List.iter
      (fun td -> Hashtbl.replace env.typs (id_key td.typ_id) (modkey, td.typ_name.txt))
      tds;
    List.iter (define_type env ~modkey) tds
  | Tstr_exception te -> define_ext env ~modkey te.tyexn_constructor
  | Tstr_typext te -> List.iter (define_ext env ~modkey) te.tyext_constructors
  | Tstr_module mb -> module_binding env ~modkey mb
  | Tstr_recmodule mbs -> List.iter (module_binding env ~modkey) mbs
  | Tstr_include incl -> (
    match (strip_constraint incl.incl_mod).mod_desc with
    | Tmod_structure s -> structure env ~modkey s
    | Tmod_ident (p, _) when env.role = Lib ->
      Option.iter
        (fun m ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt env.st.includes modkey) in
          Hashtbl.replace env.st.includes modkey (m :: prev))
        (module_key env p)
    | _ -> uses_of (init ()) (fun it -> it.module_expr it incl.incl_mod))
  | Tstr_open od -> (
    match (strip_constraint od.open_expr).mod_desc with
    | Tmod_structure s -> structure env ~modkey s
    | _ -> ())
  | Tstr_eval (e, _) -> uses_of (init ()) (fun it -> it.expr it e)
  | Tstr_modtype _ | Tstr_class _ | Tstr_class_type _ | Tstr_attribute _ -> ()

and module_binding env ~modkey mb =
  match mb.mb_id with
  | None -> ()
  | Some id -> (
    let inner = modkey ^ "." ^ Ident.name id in
    let me = strip_constraint mb.mb_expr in
    match me.mod_desc with
    | Tmod_ident (p, _) ->
      Option.iter
        (fun target ->
          Hashtbl.replace env.mods (id_key id) target;
          Hashtbl.replace env.st.aliases inner target)
        (module_key env p)
    | Tmod_structure s ->
      Hashtbl.replace env.mods (id_key id) inner;
      structure env ~modkey:inner s
    | Tmod_functor (_, body) -> (
      Hashtbl.replace env.mods (id_key id) inner;
      match (strip_constraint body).mod_desc with
      | Tmod_structure s -> structure env ~modkey:inner s
      | _ -> ())
    | _ ->
      (* A functor application or an unpacked module: evaluated when the
         unit initialises, and its members are not tracked. *)
      Hashtbl.replace env.mods (id_key id) inner;
      let it = collector env (unit_init env) in
      it.module_expr it me)

(* The [val]s of a library interface, nested module signatures included. *)
let rec exports st ~file ~modkey (sg : signature) =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
        st.exports <- (modkey, vd.val_name.txt, file, vd.val_loc.loc_start.pos_lnum) :: st.exports
      | Tsig_module { md_name = { txt = Some name; _ }; md_type = { mty_desc = Tmty_signature s; _ }; _ } ->
        exports st ~file ~modkey:(modkey ^ "." ^ name) s
      | _ -> ())
    sg.sig_items

let add_unit st ~role path =
  let cmt = Cmt_format.read_cmt path in
  let file = Option.value ~default:path cmt.cmt_sourcefile in
  match cmt.cmt_annots with
  | Cmt_format.Implementation str -> (
    let env =
      {
        st;
        unit_name = cmt.cmt_modname;
        file;
        role;
        mods = Hashtbl.create 64;
        vals = Hashtbl.create 256;
        typs = Hashtbl.create 64;
        exns = Hashtbl.create 8;
      }
    in
    structure env ~modkey:cmt.cmt_modname str;
    match role with
    | Exe -> st.roots <- unit_init env :: st.roots
    | Lib -> Hashtbl.replace st.lib_units cmt.cmt_modname file
    | Test -> ())
  | Cmt_format.Interface sg when role = Lib -> exports st ~file ~modkey:cmt.cmt_modname sg
  | _ -> ()

(* ---- resolution and reachability ----------------------------------- *)

(* Replace every aliased prefix of a dotted module key by its target. *)
let canon st m =
  let rec follow depth k =
    match Hashtbl.find_opt st.aliases k with
    | Some target when depth < 64 -> follow (depth + 1) (expand (depth + 1) target)
    | _ -> k
  and expand depth m =
    List.fold_left
      (fun acc s -> follow depth (if acc = "" then s else acc ^ "." ^ s))
      "" (String.split_on_char '.' m)
  in
  expand 0 m

(* [find m name] in the module [m] or, failing that, in what it includes. *)
let rec lookup st find m name =
  let m = canon st m in
  match find (m ^ "." ^ name) with
  | Some _ as r -> r
  | None ->
    List.find_map
      (fun inc -> lookup st find inc name)
      (Option.value ~default:[] (Hashtbl.find_opt st.includes m))

(* The type that defines the constructors of [m.t]: re-exports followed. *)
let rec type_key st m t =
  match lookup st (fun k -> if Hashtbl.mem st.types k then Some k else None) m t with
  | Some k -> (
    match Hashtbl.find_opt st.type_eqs k with
    | Some (m', t') -> type_key st m' t'
    | None -> Some k)
  | None -> None

(* [Unit.Sub.v], [Unit.t#C], [Unit#E] -> [Unit]. *)
let unit_of key =
  let ends = List.filter_map (String.index_opt key) [ '.'; '#' ] in
  String.sub key 0 (List.fold_left min (String.length key) ends)

let is_under ~prefix key =
  key = prefix
  || String.length key > String.length prefix
     && String.sub key 0 (String.length prefix) = prefix
     && (key.[String.length prefix] = '.' || key.[String.length prefix] = '#')

(* The nodes a use reaches, with the units it touches. *)
let targets st use =
  let value k = Option.map (fun d -> d.node) (Hashtbl.find_opt st.values k) in
  let ctor k = Option.map (fun d -> d.node) (Hashtbl.find_opt st.ctors k) in
  let field k = Option.map (fun d -> d.node) (Hashtbl.find_opt st.fields k) in
  let typ k = Hashtbl.find_opt st.types k in
  let hits =
    match use with
    | Value (m, v) -> Option.to_list (Option.map (fun n -> (canon st m, n)) (lookup st value m v))
    | Exn (m, x) -> (
      let m = canon st m in
      match ctor (m ^ "#" ^ x) with Some n -> [ (m, n) ] | None -> [])
    | Ctor (m, t, c) -> (
      match type_key st m t with
      | Some k -> Option.to_list (Option.map (fun n -> (k, n)) (ctor (k ^ "#" ^ c)))
      | None -> [])
    | Field (m, t, f) -> (
      match type_key st m t with
      | Some k -> Option.to_list (Option.map (fun n -> (k, n)) (field (k ^ "#" ^ f)))
      | None -> [])
    | Type (m, t) -> (
      match type_key st m t with
      | Some k -> Option.to_list (Option.map (fun n -> (k, n)) (typ k))
      | None -> [])
    | Whole m ->
      let rec under m =
        let m = canon st m in
        let own tbl = Hashtbl.fold (fun k d acc -> if is_under ~prefix:m k then (k, d.node) :: acc else acc) tbl [] in
        own st.values @ own st.ctors
        @ Hashtbl.fold (fun k n acc -> if is_under ~prefix:m k then (k, n) :: acc else acc) st.types []
        @ List.concat_map under (Option.value ~default:[] (Hashtbl.find_opt st.includes m))
      in
      under m
  in
  List.concat_map
    (fun (k, n) ->
      n :: Option.to_list (Hashtbl.find_opt st.inits (unit_of k)))
    hits

(* Mark everything reachable from [nodes]. *)
let reach st nodes =
  let queue = Queue.create () in
  let visit n = if not n.reached then (n.reached <- true; Queue.add n queue) in
  List.iter visit nodes;
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    List.iter (fun u -> List.iter visit (targets st u)) n.uses
  done

(* ---- the report ---------------------------------------------------- *)

(* [Leakdetect_cluster__Cluster.Sub.run] -> [Cluster.Sub.run]; a
   constructor key [M.t#C] or an exception key [M#E] shows as [M.C]. *)
let display key =
  let u = unit_of key in
  let short =
    let rec after_sep i =
      if i < 1 then u
      else if u.[i] = '_' && u.[i - 1] = '_' then String.sub u (i + 1) (String.length u - i - 1)
      else after_sep (i - 1)
    in
    after_sep (String.length u - 1)
  in
  let rest = String.sub key (String.length u) (String.length key - String.length u) in
  match String.index_opt rest '#' with
  | None -> short ^ rest
  | Some i ->
    let owner = String.sub rest 0 i and c = String.sub rest (i + 1) (String.length rest - i - 1) in
    let owner =
      match String.rindex_opt owner '.' with
      | Some j when owner.[j + 1] = Char.lowercase_ascii owner.[j + 1] -> String.sub owner 0 j
      | _ -> owner
    in
    short ^ owner ^ "." ^ c

type finding = { name : string; what : string; where : string }

let parent key = Option.map (fun i -> String.sub key 0 i) (String.rindex_opt key '.')

let rec with_parents key = key :: (match parent key with Some p -> with_parents p | None -> [])

(* Every library module with something in it, and whether it is live:
   whether any value, constructor or type in it is reached. *)
let modules st =
  let live = Hashtbl.create 256 in
  let note key reached =
    List.iter
      (fun m -> if reached || not (Hashtbl.mem live m) then Hashtbl.replace live m reached)
      (with_parents key)
  in
  List.iter (fun d -> note d.modkey d.node.reached) st.defs;
  Hashtbl.iter
    (fun k n ->
      if Hashtbl.mem st.lib_units (unit_of k) then Option.iter (fun m -> note m n.reached) (parent k))
    st.types;
  live

(* Dead modules, each reported once at its outermost dead level, and the
   dead values and constructors of live modules. *)
let findings st =
  let live = modules st in
  let is_live m = Hashtbl.find live m in
  let where_module m =
    match Hashtbl.find_opt st.lib_units m with
    | Some file -> file
    | None -> (
      let defs = List.filter (fun d -> is_under ~prefix:m d.key) st.defs in
      match List.sort (fun a b -> compare a.line b.line) defs with
      | d :: _ -> Printf.sprintf "%s:%d" d.file d.line
      | [] -> Hashtbl.find st.lib_units (unit_of m))
  in
  let dead_modules =
    Hashtbl.fold
      (fun m live acc ->
        let parent_live = match parent m with Some p -> is_live p | None -> true in
        if live || not parent_live then acc
        else { name = display m; what = "unreachable module"; where = where_module m } :: acc)
      live []
  in
  let dead_members =
    List.filter_map
      (fun d ->
        if d.node.reached || not (is_live d.modkey) then None
        else
          Some
            {
              name = display d.key;
              what =
                (match d.kind with
                 | Val -> "unreachable value"
                 | Con -> "unreachable constructor"
                 | Fld -> "unread field");
              where = Printf.sprintf "%s:%d" d.file d.line;
            })
      st.defs
  in
  List.sort_uniq compare (dead_modules @ dead_members)

(* [M.t#field] -> [M.t.field]. *)
let display_field key =
  let i = String.rindex key '#' in
  display (String.sub key 0 i) ^ "." ^ String.sub key (i + 1) (String.length key - i - 1)

(* Fields of live modules that no reached code reads. *)
let unread_fields st ~allowed =
  let live = modules st in
  List.filter_map
    (fun d ->
      let name = display_field d.key in
      if d.node.reached || List.mem_assoc name allowed
         || not (Option.value ~default:true (Hashtbl.find_opt live d.modkey))
      then None
      else Some { name; what = "unread field"; where = Printf.sprintf "%s:%d" d.file d.line })
    st.field_defs
  |> List.sort_uniq compare

(* The definition a value path names, or the path itself when the check
   does not track it (a functor's output, say). *)
let value_key st m v =
  match lookup st (fun k -> if Hashtbl.mem st.values k then Some k else None) m v with
  | Some k -> k
  | None -> canon st m ^ "." ^ v

(* Each exported [val] by display name, with where it is declared and
   whether a unit other than its own names it, or passes its whole module
   on. *)
let export_status st =
  let named = Hashtbl.create 4096 in
  let wholes = ref [] in
  List.iter
    (fun (u, use) ->
      match use with
      | Value (m, v) -> Hashtbl.add named (value_key st m v) u
      | Whole m -> wholes := (u, canon st m) :: !wholes
      | _ -> ())
    st.refs;
  List.map
    (fun (m, v, file, line) ->
      let owner = unit_of m in
      let key = value_key st m v in
      let path = canon st m ^ "." ^ v in
      let other u = u <> owner && u <> unit_of key in
      let used =
        List.exists other (Hashtbl.find_all named key)
        || List.exists
             (fun (u, prefix) -> other u && (is_under ~prefix path || is_under ~prefix key))
             !wholes
      in
      (display (m ^ "." ^ v), (Printf.sprintf "%s:%d" file line, used)))
    st.exports

(* ---- driver -------------------------------------------------------- *)

let rec files_under dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory path then files_under path else [ path ])

(* Units sit in [byte] directories: library units under [.objs], whose
   interfaces ([.cmti]) list the exports, and executable units under
   [.eobjs], which are roots unless they are tests. *)
let units ~skip ~tests dir =
  files_under dir
  |> List.filter (fun f ->
         Filename.basename (Filename.dirname f) = "byte"
         && not (List.exists (fun prefix -> String.starts_with ~prefix f) skip))
  |> List.filter_map (fun f ->
         let exe = Filename.check_suffix (Filename.dirname (Filename.dirname f)) ".eobjs" in
         if Filename.check_suffix f ".cmt" then Some (f, if not exe then Lib else if tests then Test else Exe)
         else if Filename.check_suffix f ".cmti" && not exe then Some (f, Lib)
         else None)

(* Whether each name the check could report is reached. *)
let status st =
  let names = Hashtbl.create 4096 in
  List.iter (fun d -> Hashtbl.replace names (display d.key) d.node.reached) st.defs;
  Hashtbl.iter (fun m live -> Hashtbl.replace names (display m) live) (modules st);
  names

(* The nodes a name stands for: a value, a constructor or a whole module. *)
let nodes_named st name =
  List.filter_map
    (fun d ->
      if display d.key = name || List.exists (fun m -> display m = name) (with_parents d.modkey)
      then Some d.node
      else None)
    st.defs

(* The allowlist entries that fail: with no one-line reason, naming
   nothing, or naming something that needs no entry ([lookup] answers
   [Some true]; [needless] says why). *)
let stale_entries allow ~lookup ~needless =
  List.filter_map
    (fun (name, reason) ->
      if reason = "" || String.contains reason '\n' then Some (name, "needs a one-line reason")
      else
        match lookup name with
        | None -> Some (name, "names nothing")
        | Some true -> Some (name, needless)
        | Some false -> None)
    allow

(* Check the units under [dirs], and the test units under [tests] (minus
   any file under a [skip] prefix), against three allowlists of (name,
   reason) pairs; print what fails and return the exit code.
   - [allow]: values, constructors and modules no executable reaches.  An
     entry must be unreachable from the executables; what it uses is then
     reached from it.
   - [fields]: record fields that code reached from the executables or
     from [allow] never reads.  Tests do not count as readers.
   - [exports]: [val]s of library interfaces that no other unit, tests
     included, names. *)
let run ?(fields = []) ?(exports = []) ?(tests = []) ?(skip = []) ~allow dirs =
  let st = create () in
  let load ~tests d = List.iter (fun (f, role) -> add_unit st ~role f) (units ~skip ~tests d) in
  List.iter (load ~tests:false) dirs;
  List.iter (load ~tests:true) tests;
  reach st st.roots;
  let reached = status st in
  let stale_values =
    stale_entries allow ~lookup:(Hashtbl.find_opt reached) ~needless:"names something reachable"
  in
  reach st (List.concat_map (fun (name, _) -> nodes_named st name) allow);
  let read = Hashtbl.create 1024 in
  List.iter (fun d -> Hashtbl.replace read (display_field d.key) d.node.reached) st.field_defs;
  let stale_fields = stale_entries fields ~lookup:(Hashtbl.find_opt read) ~needless:"names a field that is read" in
  let exported = export_status st in
  let stale_exports =
    stale_entries exports
      ~lookup:(fun name -> Option.map snd (List.assoc_opt name exported))
      ~needless:"names an export another unit uses"
  in
  let unused_exports =
    List.filter_map
      (fun (name, (where, used)) ->
        if used || List.mem_assoc name exports then None else Some { name; what = "unused export"; where })
      exported
    |> List.sort_uniq compare
  in
  let found = findings st @ unread_fields st ~allowed:fields @ unused_exports in
  let stale = stale_values @ stale_fields @ stale_exports in
  List.iter (fun f -> Printf.printf "%s %s (%s)\n" f.what f.name f.where) found;
  List.iter (fun (name, why) -> Printf.printf "stale allowlist entry %s: %s\n" name why) stale;
  if found = [] && stale = [] then begin
    Printf.printf "reachability: %d library values and constructors, all reached from %s or allowlisted (%d)\n"
      (List.length st.defs) (String.concat ", " dirs) (List.length allow);
    Printf.printf "reachability: %d record fields, each read by reached code or allowlisted (%d)\n"
      (List.length st.field_defs) (List.length fields);
    Printf.printf "reachability: %d exported vals, each named by another unit of %s or allowlisted (%d)\n"
      (List.length exported) (String.concat ", " (dirs @ tests)) (List.length exports);
    0
  end
  else 1
