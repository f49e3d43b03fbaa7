module Aho_corasick = Leakdetect_text.Aho_corasick
module Packet = Leakdetect_http.Packet
module Hex = Leakdetect_util.Hex
module Normalize = Leakdetect_normalize.Normalize

(* Two lanes on the needle kernel, both built once in [create]:

   - the exact lane holds every needle, digests lower-cased, so a hit there
     is a [Raw] match exactly as a byte-exact search would report it;
   - the caseless lane holds the digest needles only and folds the text's
     case in its class map, so a hit there is a [Folded] match without a
     lower-cased copy of the packet.

   Each lane maps its pattern ids to kind bits ([1 lsl] the kind's position
   in [Sensitive.all]); a scan reduces to OR-ing the bits of the matched
   set. *)

type lane = { ac : Aho_corasick.t; bits : int array }

type t = {
  needles : (Sensitive.kind * string) list;
  exact : lane;
  caseless : lane;  (* empty when no needle is digest-shaped *)
  all_bits : int;  (* every kind some needle can report *)
}

(* MD5/SHA1 hex digests are transmitted in whichever case the ad module's
   formatter picked, so digest-shaped needles match case-insensitively.
   Raw identifiers (IMEI, IMSI, Android ID, carrier) stay byte-exact. *)
let is_digest_needle n =
  (String.length n = 32 || String.length n = 40) && Hex.is_hex n

let kind_bit kind =
  let rec index i = function
    | [] -> assert false
    | k :: rest -> if Sensitive.equal k kind then i else index (i + 1) rest
  in
  1 lsl index 0 Sensitive.all

let kinds_of_bits bits =
  List.filteri (fun i _ -> bits land (1 lsl i) <> 0) Sensitive.all
  |> List.sort Sensitive.compare

let lane ?caseless needles =
  {
    ac = Aho_corasick.build ?caseless (List.map snd needles);
    bits = Array.of_list (List.map (fun (k, _) -> kind_bit k) needles);
  }

let create needles =
  List.iter
    (fun (_, n) ->
      if n = "" then invalid_arg "Payload_check.create: empty needle")
    needles;
  let folded =
    List.map
      (fun (k, n) -> if is_digest_needle n then (k, String.lowercase_ascii n) else (k, n))
      needles
  in
  {
    needles;
    exact = lane folded;
    caseless = lane ~caseless:true (List.filter (fun (_, n) -> is_digest_needle n) folded);
    all_bits = List.fold_left (fun acc (k, _) -> acc lor kind_bit k) 0 needles;
  }

let needles t = t.needles

(* Per-call scan state: one matched set and one resumable cursor per lane,
   reused across the packets of a [split]. *)
type scratch = {
  exact_seen : bool array;
  exact_st : Aho_corasick.Stream.state;
  caseless_seen : bool array;
  caseless_st : Aho_corasick.Stream.state;
}

let scratch t =
  {
    exact_seen = Array.make (Aho_corasick.pattern_count t.exact.ac) false;
    exact_st = Aho_corasick.Stream.create ();
    caseless_seen = Array.make (Aho_corasick.pattern_count t.caseless.ac) false;
    caseless_st = Aho_corasick.Stream.create ();
  }

let reset sc =
  Array.fill sc.exact_seen 0 (Array.length sc.exact_seen) false;
  Array.fill sc.caseless_seen 0 (Array.length sc.caseless_seen) false;
  Aho_corasick.Stream.reset sc.exact_st;
  Aho_corasick.Stream.reset sc.caseless_st

(* Both lanes walk the text together, in one pass. *)
let feed t sc text =
  Aho_corasick.Stream.feed_pair_into t.exact.ac sc.exact_st sc.exact_seen t.caseless.ac
    sc.caseless_st sc.caseless_seen text

let sep = "\n"

(* Zero-copy: feeding the three fields with the ['\n'] separators walks the
   lanes over the exact bytes of [Packet.content_string] without building
   it, the same way the detector scans a packet. *)
let scan_content t sc (p : Packet.t) =
  let c = p.Packet.content in
  reset sc;
  feed t sc c.Packet.request_line;
  feed t sc sep;
  feed t sc c.Packet.cookie;
  feed t sc sep;
  feed t sc c.Packet.body

let bits_of_seen lane seen =
  let bits = ref 0 in
  for i = 0 to Array.length seen - 1 do
    if Array.unsafe_get seen i then bits := !bits lor lane.bits.(i)
  done;
  !bits

let exact_bits t sc = bits_of_seen t.exact sc.exact_seen
let caseless_bits t sc = bits_of_seen t.caseless sc.caseless_seen

(* A derived view is scanned by both lanes; a hit in either is its match. *)
let view_bits t sc text =
  reset sc;
  feed t sc text;
  exact_bits t sc lor caseless_bits t sc

(* The decoded views are derived from the flattened content, so only the
   [?normalize] path builds it. *)
let derived_views nz p =
  (Normalize.lattice nz (Packet.content_string p)).Normalize.derived

type via = Raw | Folded | View of Normalize.step list

let via_to_string = function
  | Raw -> "raw"
  | Folded -> "folded"
  | View steps -> String.concat "+" (List.map Normalize.step_name steps)

type verdict = { kind : Sensitive.kind; via : via }

(* Kinds are resolved stage by stage — raw, folded, then each derived view
   in lattice order — and a kind keeps the first stage that matched any of
   its needles, whatever order the needles were given in. *)
let scan_verdicts_with ?normalize t sc p =
  scan_content t sc p;
  let raw = exact_bits t sc in
  let folded = caseless_bits t sc land lnot raw in
  let verdicts = ref [] in
  let record bits via =
    List.iter (fun kind -> verdicts := { kind; via } :: !verdicts) (kinds_of_bits bits)
  in
  record raw Raw;
  record folded Folded;
  (match normalize with
  | Some nz when raw lor folded <> t.all_bits ->
    let rec views resolved = function
      | [] -> ()
      | (v : Normalize.view) :: rest ->
        let fresh = view_bits t sc v.Normalize.text land lnot resolved in
        record fresh (View v.Normalize.steps);
        let resolved = resolved lor fresh in
        if resolved <> t.all_bits then views resolved rest
    in
    views (raw lor folded) (derived_views nz p)
  | _ -> ());
  List.sort (fun a b -> Sensitive.compare a.kind b.kind) !verdicts

let scan_verdicts ?normalize t packet =
  scan_verdicts_with ?normalize t (scratch t) packet

let scan ?normalize t packet =
  match normalize with
  | None ->
    let sc = scratch t in
    scan_content t sc packet;
    kinds_of_bits (exact_bits t sc lor caseless_bits t sc)
  | Some _ -> List.map (fun v -> v.kind) (scan_verdicts ?normalize t packet)

let is_sensitive_with ?normalize t sc packet =
  scan_content t sc packet;
  exact_bits t sc <> 0
  || caseless_bits t sc <> 0
  ||
  match normalize with
  | None -> false
  | Some nz ->
    List.exists
      (fun (v : Normalize.view) -> view_bits t sc v.Normalize.text <> 0)
      (derived_views nz packet)

let is_sensitive ?normalize t packet =
  is_sensitive_with ?normalize t (scratch t) packet

module Obs = Leakdetect_obs.Obs

let split ?(obs = Obs.noop) ?normalize t packets =
  Obs.with_span obs "payload_check.split" @@ fun () ->
  let sc = scratch t in
  let suspicious = ref [] and normal = ref [] in
  Array.iter
    (fun p ->
      if is_sensitive_with ?normalize t sc p then suspicious := p :: !suspicious
      else normal := p :: !normal)
    packets;
  let suspicious = Array.of_list (List.rev !suspicious)
  and normal = Array.of_list (List.rev !normal) in
  let classified class_ n =
    Obs.Counter.add
      (Obs.counter obs ~help:"Packets classified by the payload check."
         ~labels:[ ("class", class_) ]
         "leakdetect_payload_check_packets_total")
      n
  in
  classified "sensitive" (Array.length suspicious);
  classified "normal" (Array.length normal);
  (suspicious, normal)
