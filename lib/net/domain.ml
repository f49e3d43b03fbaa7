let labels s = String.split_on_char '.' (String.lowercase_ascii s)

(* Enough of the public-suffix list for this domain of traffic: generic
   TLDs, [jp], and the Japanese second-level registrations that appear in
   Table II (co.jp, ne.jp, or.jp, ac.jp, go.jp). *)
let two_label_suffixes = [ [ "co"; "jp" ]; [ "ne"; "jp" ]; [ "or"; "jp" ]; [ "ac"; "jp" ]; [ "go"; "jp" ] ]

let registrable host =
  let ls = labels host in
  let rev = List.rev ls in
  match rev with
  | tld :: second :: third :: _ when List.mem [ second; tld ] two_label_suffixes ->
    String.concat "." [ third; second; tld ]
  | tld :: second :: _ -> String.concat "." [ second; tld ]
  | _ -> host

let normalized_edit_distance a b =
  Leakdetect_text.Edit_distance.normalized (String.lowercase_ascii a) (String.lowercase_ascii b)
