module Url = Leakdetect_net.Url
module Base64 = Leakdetect_util.Base64
module Hex = Leakdetect_util.Hex
module Strutil = Leakdetect_util.Strutil
module Obs = Leakdetect_obs.Obs

type step =
  | Percent_strict
  | Percent_lenient
  | Form_decode
  | Base64_std
  | Base64_url
  | Hex_decode
  | Case_fold
  | Chunked

let all_steps =
  [ Percent_strict; Percent_lenient; Form_decode; Base64_std; Base64_url;
    Hex_decode; Case_fold; Chunked ]

let step_name = function
  | Percent_strict -> "percent"
  | Percent_lenient -> "percent-lenient"
  | Form_decode -> "form"
  | Base64_std -> "base64"
  | Base64_url -> "base64url"
  | Hex_decode -> "hex"
  | Case_fold -> "case-fold"
  | Chunked -> "chunked"

let step_of_name name = List.find_opt (fun s -> step_name s = name) all_steps

type budgets = {
  max_depth : int;
  max_views : int;
  max_total_bytes : int;
  max_view_bytes : int;
}

let default_budgets =
  { max_depth = 3; max_views = 24; max_total_bytes = 1 lsl 20; max_view_bytes = 1 lsl 18 }

type error =
  | Depth_exhausted of int
  | Views_exhausted of int
  | Bytes_exhausted of int
  | View_too_large of int

let error_to_string = function
  | Depth_exhausted n -> Printf.sprintf "decode depth budget exhausted (%d layers)" n
  | Views_exhausted n -> Printf.sprintf "view budget exhausted (%d views)" n
  | Bytes_exhausted n -> Printf.sprintf "derived-bytes budget exhausted (%d bytes)" n
  | View_too_large n -> Printf.sprintf "derived view too large (%d bytes)" n

type view = { text : string; steps : step list }

type lattice = {
  root : string;
  derived : view list;
  errors : error list;
  failed_decodes : int;
}

(* --- individual decoders ---------------------------------------------- *)

(* Every decoder distinguishes "nothing here to decode" from "decodable-
   looking material that would not decode"; only the latter counts as a
   failed decode in the lattice report. *)
type attempt = Derived of string | Inapplicable | Malformed

let percent_strict s =
  if not (String.contains s '%') then Inapplicable
  else
    match Url.percent_decode_strict s with
    | Some d when d <> s -> Derived d
    | Some _ -> Inapplicable
    | None -> Malformed

let percent_lenient s =
  if not (String.contains s '%') then Inapplicable
  else
    let d, decoded = Url.percent_decode_lenient s in
    if decoded = 0 || d = s then Inapplicable else Derived d

let form_decode s =
  if not (String.contains s '+' || String.contains s '%') then Inapplicable
  else
    match Url.percent_decode s with
    | Some d when d <> s -> Derived d
    | Some _ -> Inapplicable
    | None -> Malformed

(* Byte classes for the run-based decoders, one table load per byte: hex
   digits, the two base64 alphabets as runs see them (padding included),
   and the uppercase hex digits case folding looks for. *)
let hex_class = 1
let b64_std_class = 2
let b64_url_class = 4
let upper_hex_class = 8

let classes =
  String.init 256 (fun i ->
      let c = Char.chr i in
      let alnum = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') in
      let bit cond cls = if cond then cls else 0 in
      Char.chr
        (bit (Hex.is_digit c) hex_class
        lor bit (alnum || c = '+' || c = '/' || c = '=') b64_std_class
        lor bit (alnum || c = '-' || c = '_' || c = '=') b64_url_class
        lor bit (c >= 'A' && c <= 'F') upper_hex_class))

let in_class cls c = Char.code (String.unsafe_get classes (Char.code c)) land cls <> 0

(* End of the run of [cls] bytes that starts at [i]. *)
let run_end cls s i =
  let j = ref i in
  while !j < String.length s && in_class cls (String.unsafe_get s !j) do incr j done;
  !j

(* Lowercase only hex runs long enough to be digest material: folding the
   whole string would also fold uppercase boilerplate ("GET", "HTTP/1.1")
   and break the very conjunction tokens the views exist to preserve.  The
   text is copied only once a run actually folds. *)
let hex_fold_min = 16

let case_fold s =
  let n = String.length s in
  let folded = ref Bytes.empty in
  let i = ref 0 in
  while !i < n do
    if in_class hex_class (String.unsafe_get s !i) then begin
      let j = run_end hex_class s !i in
      let upper = ref false in
      for k = !i to j - 1 do
        if in_class upper_hex_class (String.unsafe_get s k) then upper := true
      done;
      if j - !i >= hex_fold_min && !upper then begin
        if Bytes.length !folded = 0 then folded := Bytes.of_string s;
        for k = !i to j - 1 do
          Bytes.unsafe_set !folded k (Char.lowercase_ascii (String.unsafe_get s k))
        done
      end;
      i := j
    end
    else incr i
  done;
  if Bytes.length !folded = 0 then Inapplicable else Derived (Bytes.unsafe_to_string !folded)

(* Base64 and hex material arrives embedded in query strings and bodies,
   so the decoders work on maximal alphabet runs and splice the decoded
   bytes back in place — surrounding boilerplate ("d=", "&v=2") survives
   into the derived view, which conjunction signatures rely on. *)

let min_run = 16

(* Start of the first run of at least [min_run] [cls] bytes at or after
   [i], or [-1]. *)
let rec next_long_run cls s i =
  if i >= String.length s then -1
  else if not (in_class cls (String.unsafe_get s i)) then next_long_run cls s (i + 1)
  else
    let j = run_end cls s i in
    if j - i >= min_run then i else next_long_run cls s j

(* Each run decoder appends the replacement of the run [s.[i .. j-1]] to
   [out] and returns [true], or returns [false] with [out] untouched.

   A run may glue a parameter name to its value ("d=MTIz..."): padding is
   only legal at the end, so everything up to the last interior '=' is kept
   literally and the decode starts after it. *)
let decode_b64_run out s i j =
  let trailing = ref 0 in
  while !trailing < j - i && s.[j - 1 - !trailing] = '=' do incr trailing done;
  let k = ref (j - !trailing - 1) in
  while !k >= i && s.[!k] <> '=' do decr k done;
  let start = !k + 1 in
  let m = j - start in
  m >= min_run
  &&
  let mark = Buffer.length out in
  Buffer.add_substring out s i (start - i);
  Base64.decode_into out s ~pos:start ~len:m
  (* Unpadded runs may carry one stray trailing character. *)
  || (m mod 4 = 1 && Base64.decode_into out s ~pos:start ~len:(m - 1))
  || (Buffer.truncate out mark; false)

let decode_hex_run out s i j =
  let m = (j - i) land lnot 1 in
  m >= min_run
  && Hex.decode_into out s ~pos:i ~len:m
  && (Buffer.add_substring out s (i + m) (j - i - m); true)

(* The text outside decoded runs is appended straight from [s]; nothing is
   copied at all unless some run is long enough to try. *)
let replace_runs ~cls ~decode_run s =
  match next_long_run cls s 0 with
  | -1 -> Inapplicable
  | first ->
    let n = String.length s in
    let out = Buffer.create n in
    let copied = ref 0 and any_decoded = ref false and i = ref first in
    while !i >= 0 do
      let j = run_end cls s !i in
      Buffer.add_substring out s !copied (!i - !copied);
      copied := !i;
      if decode_run out s !i j then begin
        any_decoded := true;
        copied := j
      end;
      i := next_long_run cls s j
    done;
    if not !any_decoded then Malformed
    else begin
      Buffer.add_substring out s !copied (n - !copied);
      let d = Buffer.contents out in
      if d = s then Inapplicable else Derived d
    end

let base64_std s = replace_runs ~cls:b64_std_class ~decode_run:decode_b64_run s
let base64_url s = replace_runs ~cls:b64_url_class ~decode_run:decode_b64_run s
let hex_decode s = replace_runs ~cls:hex_class ~decode_run:decode_hex_run s

(* Chunked framing: "<hex-size>[;ext]\r\n<data>\r\n ... 0\r\n[trailers]".
   [chunks_into out s pos false] appends the payload of the framing that
   starts at [s.[pos]] to [out]; [true] when at least one chunk and the
   last-chunk line frame it.  A size that overflows an [int] or runs past
   the text is no framing, rejected before it enters any arithmetic. *)
let rec chunks_into out s pos seen_one =
  let n = String.length s in
  match String.index_from_opt s pos '\r' with
  | Some eol when eol + 1 < n && s.[eol + 1] = '\n' -> (
    let size_end = match Strutil.index_in s ~pos ~stop:eol ';' with -1 -> eol | i -> i in
    match Hex.int_of_sub s ~pos ~len:(size_end - pos) with
    | -1 -> false
    | 0 -> seen_one
    | size ->
      let data_start = eol + 2 in
      size <= n - data_start - 2
      && s.[data_start + size] = '\r'
      && s.[data_start + size + 1] = '\n'
      && begin
        Buffer.add_substring out s data_start size;
        chunks_into out s (data_start + size + 2) true
      end)
  | _ -> false

(* Tried against the whole text and, failing that, against the body part of
   a packet content triple (everything after the second '\n'), since that
   is where chunk framing lives on the wire.  Both need a '\r'. *)
let chunked s =
  if not (String.contains s '\r') then Inapplicable
  else
    let out = Buffer.create (String.length s) in
    if chunks_into out s 0 false then Derived (Buffer.contents out)
    else
      (* The content triple is request-line '\n' cookie '\n' body. *)
      match String.index_opt s '\n' with
      | None -> Inapplicable
      | Some first -> (
        match String.index_from_opt s (first + 1) '\n' with
        | None -> Inapplicable
        | Some second ->
          let bpos = second + 1 in
          Buffer.clear out;
          Buffer.add_substring out s 0 bpos;
          if chunks_into out s bpos false then Derived (Buffer.contents out) else Inapplicable)

let apply step s =
  match step with
  | Percent_strict -> percent_strict s
  | Percent_lenient -> percent_lenient s
  | Form_decode -> form_decode s
  | Base64_std -> base64_std s
  | Base64_url -> base64_url s
  | Hex_decode -> hex_decode s
  | Case_fold -> case_fold s
  | Chunked -> chunked s

(* --- the lattice -------------------------------------------------------- *)

type t = {
  budgets : budgets;
  steps : step list;
  c_views : (step * Obs.Counter.t) list;
  c_errors_depth : Obs.Counter.t;
  c_errors_views : Obs.Counter.t;
  c_errors_bytes : Obs.Counter.t;
  c_errors_view_bytes : Obs.Counter.t;
  c_failed : Obs.Counter.t;
}

let budgets t = t.budgets
let steps t = t.steps

let create ?(obs = Obs.noop) ?(budgets = default_budgets) ?(steps = all_steps) () =
  if steps = [] then invalid_arg "Normalize.create: empty step list";
  if budgets.max_depth <= 0 || budgets.max_views <= 0 || budgets.max_total_bytes <= 0
     || budgets.max_view_bytes <= 0
  then invalid_arg "Normalize.create: budgets must be positive";
  let error_counter budget =
    Obs.counter obs ~help:"Normalization budget exhaustions, by budget."
      ~labels:[ ("budget", budget) ]
      "leakdetect_normalize_errors_total"
  in
  {
    budgets;
    steps;
    c_views =
      List.map
        (fun s ->
          ( s,
            Obs.counter obs ~help:"Views derived by the canonicalization lattice, by step."
              ~labels:[ ("step", step_name s) ]
              "leakdetect_normalize_views_total" ))
        steps;
    c_errors_depth = error_counter "depth";
    c_errors_views = error_counter "views";
    c_errors_bytes = error_counter "bytes";
    c_errors_view_bytes = error_counter "view_bytes";
    c_failed =
      Obs.counter obs ~help:"Decodable-looking material that failed to decode."
        "leakdetect_normalize_failed_decodes_total";
  }

let record_error t = function
  | Depth_exhausted _ -> Obs.Counter.inc t.c_errors_depth
  | Views_exhausted _ -> Obs.Counter.inc t.c_errors_views
  | Bytes_exhausted _ -> Obs.Counter.inc t.c_errors_bytes
  | View_too_large _ -> Obs.Counter.inc t.c_errors_view_bytes

let lattice t root =
  let b = t.budgets in
  let seen = Hashtbl.create 16 in
  Hashtbl.add seen root ();
  let derived = ref [] and n_views = ref 0 and total_bytes = ref 0 in
  let errors = ref [] and failed = ref 0 in
  let push_error e =
    if not (List.mem e !errors) then begin
      errors := e :: !errors;
      record_error t e
    end
  in
  let queue = Queue.create () in
  Queue.add (root, [], 0) queue;
  let stop = ref false in
  while (not !stop) && not (Queue.is_empty queue) do
    let text, steps_so_far, depth = Queue.pop queue in
    List.iter
      (fun step ->
        if not !stop then
          match apply step text with
          | Inapplicable -> ()
          | Malformed ->
            incr failed;
            Obs.Counter.inc t.c_failed
          | Derived text' ->
            if Hashtbl.mem seen text' then ()
            else if depth >= b.max_depth then push_error (Depth_exhausted b.max_depth)
            else if String.length text' > b.max_view_bytes then
              push_error (View_too_large (String.length text'))
            else if !n_views >= b.max_views then begin
              push_error (Views_exhausted b.max_views);
              stop := true
            end
            else if !total_bytes + String.length text' > b.max_total_bytes then begin
              push_error (Bytes_exhausted b.max_total_bytes);
              stop := true
            end
            else begin
              Hashtbl.add seen text' ();
              incr n_views;
              total_bytes := !total_bytes + String.length text';
              let steps = steps_so_far @ [ step ] in
              derived := { text = text'; steps } :: !derived;
              (match List.assq_opt step t.c_views with
              | Some c -> Obs.Counter.inc c
              | None -> ());
              Queue.add (text', steps, depth + 1) queue
            end)
      t.steps
  done;
  {
    root;
    derived = List.rev !derived;
    errors = List.rev !errors;
    failed_decodes = !failed;
  }

let texts t root = root :: List.map (fun v -> v.text) (lattice t root).derived

let is_fixpoint t root = (lattice t root).derived = []
