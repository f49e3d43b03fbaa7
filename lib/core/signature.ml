module Search = Leakdetect_text.Search

type mode = Conjunction | Ordered

type t = { id : int; tokens : string list; mode : mode; cluster_size : int }

let make ~id ~mode ~cluster_size tokens =
  if tokens = [] then invalid_arg "Signature.make: no tokens";
  if List.exists (fun t -> t = "") tokens then
    invalid_arg "Signature.make: empty token";
  { id; tokens; mode; cluster_size }

type compiled = { sig_ : t; ordered : Search.compiled list; by_len : Search.compiled list }

let compile sig_ =
  let ordered = List.map Search.compile sig_.tokens in
  (* For conjunction matching, test the longest (most selective) token
     first: almost every non-matching packet is rejected on that probe. *)
  let by_len =
    List.sort
      (fun a b ->
        compare
          (String.length (Search.compiled_needle b))
          (String.length (Search.compiled_needle a)))
      ordered
  in
  { sig_; ordered; by_len }

let matches_content c content =
  match c.sig_.mode with
  | Conjunction -> List.for_all (fun pat -> Search.matches pat content) c.by_len
  | Ordered ->
    let rec loop from = function
      | [] -> true
      | pat :: rest -> (
        match Search.find pat ~from content with
        | None -> false
        | Some i -> loop (i + String.length (Search.compiled_needle pat)) rest)
    in
    loop 0 c.ordered

(* Generic HTTP scaffolding: any token that is a substring of one of these
   fragments matches sensitive and benign packets alike. *)
let boilerplate_corpus =
  [
    "GET /"; "POST /"; " HTTP/1.1"; " HTTP/1.0"; "http://"; "https://";
    "Content-Type: application/x-www-form-urlencoded"; "Cookie: ";
    "?=&;,. /:_-"; "id="; "=1&"; "=0&"; "json"; "&v="; "&t=";
  ]

let is_boilerplate_token token =
  (* Tokens extracted from flattened packet contents carry the '\n' field
     separators; strip them before comparing against the corpus. *)
  let stripped = String.trim token in
  stripped = ""
  || List.exists (fun frag -> Search.contains ~needle:stripped frag) boilerplate_corpus

let specificity t =
  List.fold_left
    (fun acc tok -> if is_boilerplate_token tok then acc else acc + String.length tok)
    0 t.tokens

let pp ppf t =
  Format.fprintf ppf "@[<hov 2>#%d (%s, %d pkts):@ %a@]" t.id
    (match t.mode with Conjunction -> "conj" | Ordered -> "ord")
    t.cluster_size
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " ++@ ")
       (fun ppf tok -> Format.fprintf ppf "%S" tok))
    t.tokens
