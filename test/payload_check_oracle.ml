(* Reference payload check: the original per-needle implementation of
   [Leakdetect_core.Payload_check], kept as the differential-test oracle for
   the two-lane automaton.  It flattens every packet, lower-cases a copy for
   the digest needles and runs one KMP search per needle per text; only its
   output matters here, not its speed.

   Its one deliberate departure from the original is the documented
   attribution rule: a kind's verdict is the earliest stage (raw, folded,
   then each derived view in lattice order) at which any of its needles
   matched, independent of needle order. *)

module Search = Leakdetect_text.Search
module Packet = Leakdetect_http.Packet
module Hex = Leakdetect_util.Hex
module Normalize = Leakdetect_normalize.Normalize
module Sensitive = Leakdetect_core.Sensitive
module Payload_check = Leakdetect_core.Payload_check

type compiled_needle = {
  pattern : Search.compiled;
  fold : bool;  (* hex-digest needle, matched against folded content *)
}

let is_digest_needle n =
  (String.length n = 32 || String.length n = 40) && Hex.is_hex n

let compile needles =
  List.map
    (fun (k, n) ->
      if is_digest_needle n then
        (k, { pattern = Search.compile (String.lowercase_ascii n); fold = true })
      else (k, { pattern = Search.compile n; fold = false }))
    needles

let needle_in cn text =
  Search.matches cn.pattern (if cn.fold then String.lowercase_ascii text else text)

let views normalize content =
  match normalize with
  | None -> []
  | Some nz -> (Normalize.lattice nz content).Normalize.derived

(* Stage of a needle's first match: 0 raw, 1 folded, 2 + i the i-th view. *)
let needle_stage cn content views =
  if Search.matches cn.pattern content then Some (0, Payload_check.Raw)
  else if cn.fold && needle_in cn content then Some (1, Payload_check.Folded)
  else
    List.find_mapi
      (fun i (v : Normalize.view) ->
        if needle_in cn v.Normalize.text then
          Some (2 + i, Payload_check.View v.Normalize.steps)
        else None)
      views

let scan_verdicts ?normalize needles packet =
  let content = Packet.content_string packet in
  let views = views normalize content in
  let staged =
    List.filter_map
      (fun (kind, cn) ->
        Option.map (fun (stage, via) -> (kind, stage, via)) (needle_stage cn content views))
      (compile needles)
  in
  List.filter_map
    (fun kind ->
      List.filter (fun (k, _, _) -> Sensitive.equal k kind) staged
      |> List.sort (fun (_, a, _) (_, b, _) -> Int.compare a b)
      |> function
      | [] -> None
      | (_, _, via) :: _ -> Some { Payload_check.kind; via })
    (List.sort Sensitive.compare Sensitive.all)

let scan ?normalize needles packet =
  List.map (fun v -> v.Payload_check.kind) (scan_verdicts ?normalize needles packet)

let is_sensitive ?normalize needles packet =
  let content = Packet.content_string packet in
  let compiled = compile needles in
  List.exists (fun text -> List.exists (fun (_, cn) -> needle_in cn text) compiled)
    (content
    :: List.map (fun (v : Normalize.view) -> v.Normalize.text) (views normalize content))
