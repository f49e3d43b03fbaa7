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

type view = { text : string; steps : step list }

type lattice = {
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
  match Url.percent_decode Url.Strict s with
  | Some d when d <> s -> Derived d
  | Some _ -> Inapplicable
  | None -> Malformed

let percent_lenient s =
  match Url.percent_decode Url.Lenient s with
  | Some d when d <> s -> Derived d
  | _ -> Inapplicable

let form_decode s =
  match Url.percent_decode Url.Form s with
  | Some d when d <> s -> Derived d
  | Some _ -> Inapplicable
  | None -> Malformed

(* Byte classes, one table load per byte: hex digits, the two base64
   alphabets as runs see them (padding included), the uppercase hex digits
   case folding looks for, and the bytes that make a step applicable at
   all: '%', '+', '\r' and the alphabet-62/63 digits that tell the two
   base64 alphabets apart. *)
let hex_class = 1
let b64_std_class = 2
let b64_url_class = 4
let upper_hex_class = 8
let percent_class = 16
let plus_class = 32
let cr_class = 64
let b64_62_63_class = 128

let classes =
  String.init 256 (fun i ->
      let c = Char.chr i in
      let alnum = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') in
      let bit cond cls = if cond then cls else 0 in
      Char.chr
        (bit (Hex.is_digit c) hex_class
        lor bit (alnum || c = '+' || c = '/' || c = '=') b64_std_class
        lor bit (alnum || c = '-' || c = '_' || c = '=') b64_url_class
        lor bit (c >= 'A' && c <= 'F') upper_hex_class
        lor bit (c = '%') percent_class
        lor bit (c = '+') plus_class
        lor bit (c = '\r') cr_class
        lor bit (c = '+' || c = '/' || c = '-' || c = '_') b64_62_63_class))

let class_of c = Char.code (String.unsafe_get classes (Char.code c))
let in_class cls c = class_of c land cls <> 0

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

(* [first] is the start of the first run of at least [min_run] [cls]
   bytes in [s], which the lattice's classification pass has found.  The
   text outside decoded runs is appended straight from [s]. *)
let replace_runs ~cls ~decode_run s first =
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

let base64_std = replace_runs ~cls:b64_std_class ~decode_run:decode_b64_run
let base64_url = replace_runs ~cls:b64_url_class ~decode_run:decode_b64_run
let hex_decode = replace_runs ~cls:hex_class ~decode_run:decode_hex_run

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
   is where chunk framing lives on the wire.  Both need a '\r', which the
   lattice checks before calling. *)
let chunked s =
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

(* One walk: the budgets, the consumer each derived view is handed to and
   its answer, plus what is known about the text being expanded.  The
   dedup table is created with the first derived view; until then the root
   is the only text seen. *)
type 'a run = {
  nz : t;
  root : string;
  consume : view -> 'a option;
  mutable found : 'a option;
  mutable seen : (string, unit) Hashtbl.t option;
  mutable next : view list;  (** the next level to expand, newest first *)
  mutable n_views : int;
  mutable total_bytes : int;
  mutable errors : error list;  (** newest first *)
  mutable failed : int;
  mutable stop : bool;  (** a budget ran out or the consumer answered *)
  (* The text being expanded, as [classify] found it. *)
  mutable facts : int;  (** the byte classes present, and [foldable] *)
  mutable std_run : int;
  mutable url_run : int;
  mutable hex_run : int;
      (** start of the first run of at least [min_run] bytes of each run
          class, or [-1] *)
  mutable strict : attempt option;  (** the [Percent_strict] outcome, once known *)
  mutable b64 : attempt option;
      (** the base64 outcome, once known, when both alphabets agree on it *)
}

(* A fact beside the byte classes: some hex run case folding would fold. *)
let foldable = 0x100

(* One pass over the text about to be expanded; it also forgets the
   outcomes kept for the previous text. *)
let classify r s =
  let facts = ref 0 and std = ref 0 and url = ref 0 and hex = ref 0 and upper = ref false in
  let std_run = ref (-1) and url_run = ref (-1) and hex_run = ref (-1) in
  for i = 0 to String.length s - 1 do
    let k = class_of (String.unsafe_get s i) in
    facts := !facts lor k;
    std := if k land b64_std_class = 0 then 0 else !std + 1;
    url := if k land b64_url_class = 0 then 0 else !url + 1;
    if k land hex_class = 0 then begin
      hex := 0;
      upper := false
    end
    else begin
      incr hex;
      if k land upper_hex_class <> 0 then upper := true;
      if !upper && !hex >= hex_fold_min then facts := !facts lor foldable;
      if !hex >= min_run && !hex_run < 0 then hex_run := i + 1 - min_run
    end;
    if !std >= min_run && !std_run < 0 then std_run := i + 1 - min_run;
    if !url >= min_run && !url_run < 0 then url_run := i + 1 - min_run
  done;
  r.facts <- !facts;
  r.std_run <- !std_run;
  r.url_run <- !url_run;
  r.hex_run <- !hex_run;
  r.strict <- None;
  r.b64 <- None

let has r cls = r.facts land cls <> 0

let strict_of r s =
  match r.strict with
  | Some a -> a
  | None ->
    let a = percent_strict s in
    r.strict <- Some a;
    a

let b64_of r s =
  match r.b64 with
  | Some a -> a
  | None ->
    let a = base64_std s r.std_run in
    r.b64 <- Some a;
    a

(* A step that cannot apply to the text is [Inapplicable] without a scan,
   and three decodes are shared where they are provably equal, whatever
   the step order:
   - lenient = strict once strict derives: every escape was valid;
   - form = strict on a text without '+';
   - base64url = base64 on a text without any of "+/-_": both classes then
     cut the same runs, and [Base64.decode_into] reads either alphabet. *)
let attempt r s = function
  | Percent_strict -> if has r percent_class then strict_of r s else Inapplicable
  | Percent_lenient -> (
    if not (has r percent_class) then Inapplicable
    else match r.strict with Some (Derived _ as d) -> d | _ -> percent_lenient s)
  | Form_decode ->
    if has r plus_class then form_decode s
    else if has r percent_class then strict_of r s
    else Inapplicable
  | Base64_std ->
    if r.std_run < 0 then Inapplicable
    else if has r b64_62_63_class then base64_std s r.std_run
    else b64_of r s
  | Base64_url ->
    if r.url_run < 0 then Inapplicable
    else if has r b64_62_63_class then base64_url s r.url_run
    else b64_of r s
  | Hex_decode -> if r.hex_run < 0 then Inapplicable else hex_decode s r.hex_run
  | Case_fold -> if has r foldable then case_fold s else Inapplicable
  | Chunked -> if has r cr_class then chunked s else Inapplicable

let push_error r e =
  if not (List.mem e r.errors) then begin
    r.errors <- e :: r.errors;
    record_error r.nz e
  end

let is_seen r text =
  match r.seen with Some tbl -> Hashtbl.mem tbl text | None -> String.equal text r.root

let add_view r text steps =
  (match r.seen with
  | Some tbl -> Hashtbl.add tbl text ()
  | None ->
    let tbl = Hashtbl.create 16 in
    Hashtbl.add tbl r.root ();
    Hashtbl.add tbl text ();
    r.seen <- Some tbl);
  r.n_views <- r.n_views + 1;
  r.total_bytes <- r.total_bytes + String.length text;
  let v = { text; steps } in
  r.next <- v :: r.next;
  v

let offer r ~chain ~depth step = function
  | Inapplicable -> ()
  | Malformed ->
    r.failed <- r.failed + 1;
    Obs.Counter.inc r.nz.c_failed
  | Derived text ->
    let b = r.nz.budgets in
    if is_seen r text then ()
    else if depth >= b.max_depth then push_error r (Depth_exhausted b.max_depth)
    else if String.length text > b.max_view_bytes then
      push_error r (View_too_large (String.length text))
    else if r.n_views >= b.max_views then begin
      push_error r (Views_exhausted b.max_views);
      r.stop <- true
    end
    else if r.total_bytes + String.length text > b.max_total_bytes then begin
      push_error r (Bytes_exhausted b.max_total_bytes);
      r.stop <- true
    end
    else begin
      let v = add_view r text (chain @ [ step ]) in
      (match List.assq_opt step r.nz.c_views with Some c -> Obs.Counter.inc c | None -> ());
      match r.consume v with
      | None -> ()
      | found ->
        r.found <- found;
        r.stop <- true
    end

let rec apply_steps r s ~chain ~depth = function
  | [] -> ()
  | step :: rest ->
    if not r.stop then begin
      offer r ~chain ~depth step (attempt r s step);
      apply_steps r s ~chain ~depth rest
    end

let expand r s ~chain ~depth =
  classify r s;
  apply_steps r s ~chain ~depth r.nz.steps

(* Breadth first, one level at a time: the views of level [depth] are
   expanded in derivation order, which is the order a FIFO queue pops them. *)
let rec expand_levels r depth =
  if (not r.stop) && r.next <> [] then begin
    let level = List.rev r.next in
    r.next <- [];
    List.iter (fun v -> if not r.stop then expand r v.text ~chain:v.steps ~depth) level;
    expand_levels r (depth + 1)
  end

(* The one walk: each view goes to [consume] as it is derived, so a
   consumer that answers stops the walk before the next step is attempted. *)
let walk t root consume =
  let r =
    { nz = t; root; consume; found = None; seen = None; next = []; n_views = 0;
      total_bytes = 0; errors = []; failed = 0; stop = false; facts = 0; std_run = -1;
      url_run = -1; hex_run = -1; strict = None; b64 = None }
  in
  expand r root ~chain:[] ~depth:0;
  expand_levels r 1;
  r

let find_view t root consume = (walk t root consume).found

let lattice t root =
  let derived = ref [] in
  let r = walk t root (fun v -> derived := v :: !derived; None) in
  { derived = List.rev !derived; errors = List.rev r.errors; failed_decodes = r.failed }

let texts t root = root :: List.map (fun v -> v.text) (lattice t root).derived
