(* The runner's plumbing: a clock, order statistics, flag parsing, scratch
   directories inside the working directory, and a JSON reader.  JSON is
   written with Leakdetect_util.Json. *)

module Json = Leakdetect_util.Json

(* CLOCK_MONOTONIC in nanoseconds.  Obs.Clock.now_ns reads gettimeofday,
   whose microsecond resolution would round the monitor's per-packet
   latencies (a few microseconds each) to whole microseconds; span trees
   of traced runs, which only sum durations, use Obs's clock. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* [f ()] and its duration in seconds. *)
let time f =
  let t0 = now_ns () in
  let v = f () in
  (v, float_of_int (now_ns () - t0) /. 1e9)

let sorted xs =
  if Array.length xs = 0 then invalid_arg "Harness: empty sample";
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* [p] in [0, 100], interpolating linearly between the closest ranks. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  let r = Float.max 0. (Float.min 1. (p /. 100.)) *. float_of_int (n - 1) in
  let lo = int_of_float r in
  let hi = min (n - 1) (lo + 1) in
  a.(lo) +. ((r -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.

(* Python's statistics.quantiles(xs, n=4), method='exclusive', step for
   step (including its extrapolation on two-element samples). *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* Off the OCaml heap, so that recording samples does not grow the heap
   the benchmark reports on, nor the work of the major GC. *)
module Samples = struct
  open Bigarray

  type t = { mutable data : (float, float64_elt, c_layout) Array1.t; mutable len : int }

  let create () = { data = Array1.create float64 c_layout 1024; len = 0 }

  let add t x =
    if t.len = Array1.dim t.data then begin
      let bigger = Array1.create float64 c_layout (2 * t.len) in
      Array1.blit t.data (Array1.sub bigger 0 t.len);
      t.data <- bigger
    end;
    Array1.unsafe_set t.data t.len x;
    t.len <- t.len + 1

  let length t = t.len
  let to_array t = Array.init t.len (Array1.get t.data)
end

(* --- flags -------------------------------------------------------------- *)

(* Every argument is [--name value], or [--name] for a name in [switches]. *)
type flags = { values : (string * string) list; switches : string list }

let parse_flags ~switches args =
  let rec go acc = function
    | [] -> Ok acc
    | arg :: rest when String.length arg > 2 && String.sub arg 0 2 = "--" -> (
      let name = String.sub arg 2 (String.length arg - 2) in
      if List.mem name switches then go { acc with switches = name :: acc.switches } rest
      else
        match rest with
        | value :: rest -> go { acc with values = (name, value) :: acc.values } rest
        | [] -> Error (Printf.sprintf "flag %s needs a value" arg))
    | arg :: _ -> Error (Printf.sprintf "unexpected argument %S" arg)
  in
  go { values = []; switches = [] } args

let flag t name = List.assoc_opt name t.values
let switch t name = List.mem name t.switches

let int_flag t name ~default =
  match flag t name with
  | None -> default
  | Some s -> (
    match int_of_string_opt s with
    | Some n -> n
    | None -> failwith (Printf.sprintf "--%s expects an integer, got %S" name s))

(* --- scratch directories -------------------------------------------------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* [f dir] on a fresh directory under ./.ledger_tmp/, removed (with
   .ledger_tmp when empty) however [f] ends: the benchmark reads and writes
   nothing outside the directory it is started from. *)
let tmp_root = ".ledger_tmp"
let tmp_counter = ref 0

let with_temp_dir f =
  if not (Sys.file_exists tmp_root) then Sys.mkdir tmp_root 0o700;
  incr tmp_counter;
  let dir =
    Filename.concat tmp_root (Printf.sprintf "%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  rm_rf dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      if Sys.readdir tmp_root = [||] then Sys.rmdir tmp_root)
    (fun () -> f dir)

(* --- JSON input ----------------------------------------------------------- *)

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip_ws () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\r' || s.[!pos] = '\t')
    then begin
      incr pos;
      skip_ws ()
    end
  in
  let expect c = if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let utf8 buf code =
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents buf
      | '\\' ->
        if !pos >= n then fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | '"' | '\\' | '/' -> Buffer.add_char buf e
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if !pos + 4 > n then fail "short \\u escape";
          (match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
          | Some code -> utf8 buf code
          | None -> fail "bad \\u escape");
          pos := !pos + 4
        | _ -> fail "bad escape");
        go ()
      | c ->
        Buffer.add_char buf c;
        go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    let lit = String.sub s start (!pos - start) in
    let integral = not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit) in
    match (integral, int_of_string_opt lit, float_of_string_opt lit) with
    | true, Some i, _ -> Json.Int i
    | _, _, Some f -> Json.Float f
    | _ -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then begin
        incr pos;
        Json.Obj []
      end
      else
        let rec fields acc =
          skip_ws ();
          let k = string_lit () in
          skip_ws ();
          expect ':';
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            fields ((k, v) :: acc)
          | '}' ->
            incr pos;
            Json.Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        fields []
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then begin
        incr pos;
        Json.List []
      end
      else
        let rec items acc =
          let v = value () in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            items (v :: acc)
          | ']' ->
            incr pos;
            Json.List (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
    | '"' -> Json.String (string_lit ())
    | 't' -> literal "true" (Json.Bool true)
    | 'f' -> literal "false" (Json.Bool false)
    | 'n' -> literal "null" Json.Null
    | _ -> number ()
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing data";
    v
  with
  | v -> Ok v
  | exception Bad_json msg -> Error msg

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> (
    match parse_json contents with
    | Ok v -> Ok v
    | Error e -> Error (Printf.sprintf "%s: %s" path e))
  | exception Sys_error e -> Error e

let member key = function Json.Obj fields -> List.assoc_opt key fields | _ -> None

let to_number = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None
