(* Reference decoders and lattice: the original per-character
   implementation of [Leakdetect_normalize.Normalize] and of
   [Leakdetect_util.Base64.decode] / [Leakdetect_util.Hex.decode], kept as
   the differential-test oracle for the table-driven, offset-based code.
   Its character functions return an [option] per byte, its run splicer
   copies the text one character at a time and takes a substring per run,
   and case folding copies every text; only its output matters here, not
   its speed.  Observability counters are left out; the lattice takes its
   budgets and steps directly and builds the library's own [lattice] type,
   so the two compare with [=].

   It is the original code, defects included: a chunk size too large for an
   [int] wraps negative in [parse_chunked], which then raises. *)

module Normalize = Leakdetect_normalize.Normalize
open Normalize
module Url = Leakdetect_net.Url

module Base64 = struct
  let value c =
    match c with
    | 'A' .. 'Z' -> Some (Char.code c - Char.code 'A')
    | 'a' .. 'z' -> Some (Char.code c - Char.code 'a' + 26)
    | '0' .. '9' -> Some (Char.code c - Char.code '0' + 52)
    | '+' | '-' -> Some 62
    | '/' | '_' -> Some 63
    | _ -> None

  (* Both alphabets share the first 62 digits; the last two decide which one
     an input is written in.  Mixing them is rejected: no real encoder emits
     both, so a mixed string is noise, not data. *)
  let decode s =
    let n = String.length s in
    let pad = if n >= 1 && s.[n - 1] = '=' then if n >= 2 && s.[n - 2] = '=' then 2 else 1 else 0 in
    let core = n - pad in
    let valid_length =
      (pad = 0 && core mod 4 <> 1) || (pad > 0 && (core + pad) mod 4 = 0 && core mod 4 >= 2)
    in
    if not valid_length then None
    else if core = 0 then if pad = 0 then Some "" else None
    else begin
      let std = ref false and url = ref false in
      let ok = ref true in
      String.iteri
        (fun i c ->
          if i < core then (
            (match c with
            | '+' | '/' -> std := true
            | '-' | '_' -> url := true
            | _ -> ());
            if Option.is_none (value c) then ok := false))
        s;
      if (not !ok) || (!std && !url) then None
      else begin
        let out = Buffer.create (core / 4 * 3 + 2) in
        let i = ref 0 in
        while !i + 4 <= core do
          let d k = Option.get (value s.[!i + k]) in
          let triple = (d 0 lsl 18) lor (d 1 lsl 12) lor (d 2 lsl 6) lor d 3 in
          Buffer.add_char out (Char.chr ((triple lsr 16) land 0xff));
          Buffer.add_char out (Char.chr ((triple lsr 8) land 0xff));
          Buffer.add_char out (Char.chr (triple land 0xff));
          i := !i + 4
        done;
        (match core - !i with
        | 2 ->
          let d k = Option.get (value s.[!i + k]) in
          Buffer.add_char out (Char.chr (((d 0 lsl 2) lor (d 1 lsr 4)) land 0xff))
        | 3 ->
          let d k = Option.get (value s.[!i + k]) in
          Buffer.add_char out (Char.chr (((d 0 lsl 2) lor (d 1 lsr 4)) land 0xff));
          Buffer.add_char out (Char.chr (((d 1 lsl 4) lor (d 2 lsr 2)) land 0xff))
        | _ -> ());
        Some (Buffer.contents out)
      end
    end
end

module Hex = struct
  let nibble c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None

  let decode s =
    let n = String.length s in
    if n mod 2 <> 0 then None
    else
      let out = Bytes.create (n / 2) in
      let rec loop i =
        if i = n then Some (Bytes.unsafe_to_string out)
        else
          match (nibble s.[i], nibble s.[i + 1]) with
          | Some hi, Some lo ->
            Bytes.set out (i / 2) (Char.chr ((hi lsl 4) lor lo));
            loop (i + 2)
          | _ -> None
      in
      loop 0
end

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

(* Lowercase only hex runs long enough to be digest material: folding the
   whole string would also fold uppercase boilerplate ("GET", "HTTP/1.1")
   and break the very conjunction tokens the views exist to preserve. *)
let hex_fold_min = 16

let case_fold s =
  let n = String.length s in
  let is_hex c = Option.is_some (Hex.nibble c) in
  let folded = ref false in
  let b = Bytes.of_string s in
  let i = ref 0 in
  while !i < n do
    if is_hex s.[!i] then begin
      let j = ref !i in
      let upper = ref false in
      while !j < n && is_hex s.[!j] do
        if s.[!j] >= 'A' && s.[!j] <= 'F' then upper := true;
        incr j
      done;
      if !j - !i >= hex_fold_min && !upper then begin
        folded := true;
        for k = !i to !j - 1 do
          Bytes.set b k (Char.lowercase_ascii s.[k])
        done
      end;
      i := !j
    end
    else incr i
  done;
  if !folded then Derived (Bytes.to_string b) else Inapplicable

(* Base64 and hex material arrives embedded in query strings and bodies,
   so the decoders work on maximal alphabet runs and splice the decoded
   bytes back in place — surrounding boilerplate ("d=", "&v=2") survives
   into the derived view, which conjunction signatures rely on. *)

let min_run = 16

let is_b64_std c =
  (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')
  || c = '+' || c = '/' || c = '='

let is_b64_url c =
  (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')
  || c = '-' || c = '_' || c = '='

(* A run may glue a parameter name to its value ("d=MTIz..."): padding is
   only legal at the end, so everything up to the last interior '=' is kept
   literally and the decode starts after it. *)
let decode_b64_run run =
  let n = String.length run in
  let trailing = ref 0 in
  while !trailing < n && run.[n - 1 - !trailing] = '=' do incr trailing done;
  let last_interior =
    let rec find i = if i < 0 then None else if run.[i] = '=' then Some i else find (i - 1) in
    find (n - !trailing - 1)
  in
  let start = match last_interior with Some i -> i + 1 | None -> 0 in
  let candidate = String.sub run start (n - start) in
  if String.length candidate < min_run then None
  else
    let attempt c = Base64.decode c in
    let decoded =
      match attempt candidate with
      | Some d -> Some d
      | None ->
        (* Unpadded runs may carry one stray trailing character. *)
        let m = String.length candidate in
        if m mod 4 = 1 then attempt (String.sub candidate 0 (m - 1)) else None
    in
    Option.map (fun d -> String.sub run 0 start ^ d) decoded

let decode_hex_run run =
  let n = String.length run in
  let n = if n mod 2 = 0 then n else n - 1 in
  if n < min_run then None
  else
    match Hex.decode (String.sub run 0 n) with
    | Some d -> Some (d ^ String.sub run n (String.length run - n))
    | None -> None

let replace_runs ~is_run_char ~decode_run s =
  let n = String.length s in
  let out = Buffer.create n in
  let any_run = ref false and any_decoded = ref false in
  let i = ref 0 in
  while !i < n do
    if is_run_char s.[!i] then begin
      let j = ref !i in
      while !j < n && is_run_char s.[!j] do incr j done;
      let run = String.sub s !i (!j - !i) in
      if String.length run >= min_run then begin
        any_run := true;
        match decode_run run with
        | Some d ->
          any_decoded := true;
          Buffer.add_string out d
        | None -> Buffer.add_string out run
      end
      else Buffer.add_string out run;
      i := !j
    end
    else begin
      Buffer.add_char out s.[!i];
      incr i
    end
  done;
  if !any_decoded then
    let d = Buffer.contents out in
    if d = s then Inapplicable else Derived d
  else if !any_run then Malformed
  else Inapplicable

let base64_std s = replace_runs ~is_run_char:is_b64_std ~decode_run:decode_b64_run s
let base64_url s = replace_runs ~is_run_char:is_b64_url ~decode_run:decode_b64_run s
let hex_decode s = replace_runs ~is_run_char:(fun c -> Option.is_some (Hex.nibble c)) ~decode_run:decode_hex_run s

(* Chunked framing: "<hex-size>[;ext]\r\n<data>\r\n ... 0\r\n[trailers]".
   Tried against the whole text and, failing that, against the body part of
   a packet content triple (everything after the second '\n'), since that
   is where chunk framing lives on the wire. *)
let parse_chunked s =
  let n = String.length s in
  let body = Buffer.create n in
  let rec chunk pos seen_one =
    match String.index_from_opt s pos '\r' with
    | Some eol when eol + 1 < n && s.[eol + 1] = '\n' ->
      let line = String.sub s pos (eol - pos) in
      let size_part =
        match String.index_opt line ';' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      if size_part = "" || not (String.for_all (fun c -> Option.is_some (Hex.nibble c)) size_part)
      then None
      else (
        match int_of_string_opt ("0x" ^ size_part) with
        | None -> None
        | Some 0 -> if seen_one then Some (Buffer.contents body) else None
        | Some size ->
          let data_start = eol + 2 in
          if data_start + size + 2 > n then None
          else if s.[data_start + size] <> '\r' || s.[data_start + size + 1] <> '\n' then
            None
          else begin
            Buffer.add_string body (String.sub s data_start size);
            chunk (data_start + size + 2) true
          end)
    | _ -> None
  in
  chunk 0 false

let chunked s =
  match parse_chunked s with
  | Some d -> Derived d
  | None -> (
    (* The content triple is request-line '\n' cookie '\n' body. *)
    match String.index_opt s '\n' with
    | None -> Inapplicable
    | Some first -> (
      match String.index_from_opt s (first + 1) '\n' with
      | None -> Inapplicable
      | Some second ->
        let bpos = second + 1 in
        let body = String.sub s bpos (String.length s - bpos) in
        (match parse_chunked body with
        | Some d -> Derived (String.sub s 0 bpos ^ d)
        | None -> Inapplicable)))

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

let lattice ~budgets:b ~steps root =
  let seen = Hashtbl.create 16 in
  Hashtbl.add seen root ();
  let derived = ref [] and n_views = ref 0 and total_bytes = ref 0 in
  let errors = ref [] and failed = ref 0 in
  let push_error e =
    if not (List.mem e !errors) then errors := e :: !errors
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
          | Malformed -> incr failed
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
              Queue.add (text', steps, depth + 1) queue
            end)
      steps
  done;
  {
    root;
    derived = List.rev !derived;
    errors = List.rev !errors;
    failed_decodes = !failed;
  }
