module Prng = Leakdetect_util.Prng
module Base64 = Leakdetect_util.Base64
module Hex = Leakdetect_util.Hex
module Packet = Leakdetect_http.Packet

type class_ = Decodable | Layered | Structural | Control

let class_name = function
  | Decodable -> "decodable"
  | Layered -> "layered"
  | Structural -> "structural"
  | Control -> "control"

type t = {
  name : string;
  class_ : class_;
  apply : Prng.t -> Packet.t -> Packet.t;
}

(* --- rewriting the content triple --------------------------------------- *)

(* Mutators work on the form-encoded payload positions: the query string of
   the request line and the body.  Paths, parameter names and cookies are
   left alone — an evading module controls its own payload values, not the
   ad network's URL layout, and keeping the boilerplate intact is exactly
   what makes the evasion interesting: conjunction signatures still see
   their invariant context, only the sensitive values are disguised. *)

let map_query f q =
  String.split_on_char '&' q
  |> List.map (fun kv ->
         match String.index_opt kv '=' with
         | None -> kv
         | Some i ->
           String.sub kv 0 (i + 1)
           ^ f (String.sub kv (i + 1) (String.length kv - i - 1)))
  |> String.concat "&"

let map_target f target =
  match String.index_opt target '?' with
  | None -> target
  | Some i ->
    String.sub target 0 (i + 1)
    ^ map_query f (String.sub target (i + 1) (String.length target - i - 1))

let map_values f (p : Packet.t) =
  let c = p.Packet.content in
  let request_line =
    match String.split_on_char ' ' c.Packet.request_line with
    | [ meth; target; version ] ->
      String.concat " " [ meth; map_target f target; version ]
    | _ -> c.Packet.request_line
  in
  let body = if c.Packet.body = "" then "" else map_query f c.Packet.body in
  { p with Packet.content = { c with Packet.request_line; body } }

let map_body f (p : Packet.t) =
  let c = p.Packet.content in
  if c.Packet.body = "" then p
  else { p with Packet.content = { c with Packet.body = f c.Packet.body } }

(* --- value encoders ------------------------------------------------------ *)

let percent_byte buf c = Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c))

(* Escape everything, reserved or not — the heaviest-handed URL evasion,
   and still one strict percent-decode away from the original. *)
let percent_all_of v =
  let buf = Buffer.create (String.length v * 3) in
  String.iter (percent_byte buf) v;
  Buffer.contents buf

(* Escape only alphanumerics (the bytes signature tokens are made of),
   leaving separators readable — closer to what evasion code that must
   keep its own parser working would emit. *)
let percent_of v =
  let buf = Buffer.create (String.length v * 3) in
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> percent_byte buf c
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

(* Values shorter than this stay plain: the normalizer only decodes
   base64/hex runs of >= 16 chars, and short values (flags, nonces) carry
   no signature tokens anyway. *)
let min_value = 12

let strip_padding v =
  let n = ref (String.length v) in
  while !n > 0 && v.[!n - 1] = '=' do
    decr n
  done;
  String.sub v 0 !n

let base64_of v = if String.length v < min_value then v else strip_padding (Base64.encode v)
let base64url_of v = if String.length v < min_value then v else Base64.encode_url v
let hex_of v = if String.length v < 8 then v else Hex.encode v

(* Uppercase hex-looking values (hashed identifiers travel as lowercase
   hex; flipping the case defeats byte-exact matching at zero cost to the
   receiver). *)
let case_of v =
  if String.length v >= 16 && Hex.is_hex v then String.uppercase_ascii v else v

let chunk_size = 7

let chunked_of body =
  let buf = Buffer.create (String.length body * 2) in
  let n = String.length body in
  let pos = ref 0 in
  while !pos < n do
    let len = min chunk_size (n - !pos) in
    Buffer.add_string buf (Printf.sprintf "%x\r\n" len);
    Buffer.add_substring buf body !pos len;
    Buffer.add_string buf "\r\n";
    pos := !pos + len
  done;
  Buffer.add_string buf "0\r\n";
  Buffer.contents buf

(* Split a long value in two with a junk parameter between the halves: the
   receiver reassembles, the signature's value token never appears whole.
   No decode step can undo this — it is the catalogue's honest failure
   case. *)
let split_of rng v =
  if String.length v < min_value then v
  else
    let cut = (String.length v / 2) + Prng.int rng 3 - 1 in
    let cut = max 1 (min (String.length v - 1) cut) in
    String.sub v 0 cut ^ "&xp=" ^ String.sub v cut (String.length v - cut)

let alnum = "abcdefghijklmnopqrstuvwxyz0123456789"

let noise_of rng body =
  let junk = String.init (8 + Prng.int rng 8) (fun _ -> alnum.[Prng.int rng 36]) in
  if body = "" then body else body ^ "&zz" ^ string_of_int (Prng.int rng 100) ^ "=" ^ junk

(* --- the catalogue ------------------------------------------------------- *)

let pure f _rng p = map_values f p

let all =
  [
    {
      name = "percent";
      class_ = Decodable;
      (* percent-escape the alphanumerics of every payload value *)
      apply = pure percent_of;
    };
    {
      name = "percent-all";
      class_ = Decodable;
      (* percent-escape every byte of every payload value *)
      apply = pure percent_all_of;
    };
    {
      name = "base64";
      class_ = Decodable;
      (* base64 (unpadded) payload values of >= 12 bytes *)
      apply = pure base64_of;
    };
    {
      name = "base64url";
      class_ = Decodable;
      (* URL-safe unpadded base64 payload values of >= 12 bytes *)
      apply = pure base64url_of;
    };
    {
      name = "hex";
      class_ = Decodable;
      (* hex-encode payload values of >= 8 bytes *)
      apply = pure hex_of;
    };
    {
      name = "case";
      class_ = Decodable;
      (* uppercase hex-digest payload values *)
      apply = pure case_of;
    };
    {
      name = "chunked";
      class_ = Decodable;
      (* re-frame the body with HTTP chunked framing *)
      apply = (fun _rng p -> map_body chunked_of p);
    };
    {
      name = "double";
      class_ = Layered;
      (* base64 then percent-escape: two stacked decodable layers *)
      apply = pure (fun v -> if String.length v < min_value then v
                             else percent_all_of (base64_of v));
    };
    {
      name = "split";
      class_ = Structural;
      (* split long values across two parameters *)
      apply = (fun rng p -> map_values (split_of rng) p);
    };
    {
      name = "noise";
      class_ = Control;
      (* append a junk parameter; hides nothing *)
      apply = (fun rng p -> map_body (noise_of rng) p);
    };
  ]

let by_name name = List.find_opt (fun m -> m.name = name) all
let names () = List.map (fun m -> m.name) all
