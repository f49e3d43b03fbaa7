module Http = Leakdetect_http
module Signature_io = Leakdetect_core.Signature_io
module Leak_error = Leakdetect_util.Leak_error
module Crc32 = Leakdetect_util.Crc32
module Url = Leakdetect_net.Url

let signatures_endpoint = "/signatures"
let candidates_endpoint = "/candidates"
let metrics_endpoint = "/metrics"
let digest_endpoint = "/digest"
let default_digest_interval = 8

let id_ok s =
  let n = String.length s in
  n > 0 && n <= 64
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '.' || c = '_' || c = ':' || c = '-')
       s

(* --- body codecs --- *)

let tsv = ("Content-Type", "text/tab-separated-values")
let lines body = if body = "" then [] else String.split_on_char '\n' body

let parse_lines of_line lines =
  let rec loop acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match of_line line with
      | Ok x -> loop (x :: acc) rest
      | Error _ as e -> e)
  in
  loop [] lines

let sigs_of_lines =
  parse_lines (fun line ->
      Result.map_error
        (fun e -> "bad signature line: " ^ Leak_error.to_string e)
        (Signature_io.of_line line))

let entries_of_lines =
  parse_lines (fun line ->
      Result.map_error (fun e -> "bad entry line: " ^ e)
        (Changelog.entry_of_line line))

let sig_body sigs = String.concat "\n" (List.map Signature_io.to_line sigs)

let digest_body d =
  String.concat "\n"
    (List.map (fun (v, sum) -> Printf.sprintf "%d\t%s" v (Crc32.to_hex sum)) d)

let digest_of_body body =
  let rec loop prev acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      match String.index_opt line '\t' with
      | None -> Error (Printf.sprintf "bad digest line %S" line)
      | Some i -> (
        let version = String.sub line 0 i in
        let sum = String.sub line (i + 1) (String.length line - i - 1) in
        match
          (int_of_string_opt version, int_of_string_opt ("0x" ^ sum))
        with
        | Some v, Some sum when v >= 0 && v > prev ->
          loop v ((v, sum) :: acc) rest
        | Some v, Some _ when v <= prev ->
          Error (Printf.sprintf "digest versions not ascending at %d" v)
        | _ -> Error (Printf.sprintf "bad digest line %S" line)))
  in
  loop (-1) [] (lines body)

type tally = { accepted : int; duplicate : int; promoted : int; capped : int }

let tally_body t =
  Printf.sprintf "accepted\t%d\nduplicate\t%d\npromoted\t%d\ncapped\t%d"
    t.accepted t.duplicate t.promoted t.capped

(* Lenient in what it takes: any [key TAB count] lines, unknown keys
   ignored and missing ones 0. *)
let tally_of_body body =
  let counts = Hashtbl.create 4 in
  let ok =
    List.for_all
      (fun line ->
        match String.split_on_char '\t' line with
        | [ key; n ] -> (
          match int_of_string_opt n with
          | Some n ->
            Hashtbl.replace counts key n;
            true
          | None -> false)
        | _ -> false)
      (String.split_on_char '\n' body)
  in
  if not ok then Error "bad tally body"
  else
    let get k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
    Ok
      {
        accepted = get "accepted";
        duplicate = get "duplicate";
        promoted = get "promoted";
        capped = get "capped";
      }

(* --- serving --- *)

type served = [ `Not_modified | `Delta | `Snapshot | `Digest ]

type 'st server = {
  resolve : string -> ('st, Http.Response.t) result;
  gate : 'st -> (Changelog.t, Http.Response.t) result;
  headers : 'st -> (string * string) list;
  served : served -> unit;
  digest_interval : int;
  candidates : Http.Request.t -> (string * string) list -> Http.Response.t;
  metrics : unit -> string;
}

let respond ?body headers status =
  Http.Response.make ~headers:(Http.Headers.of_list headers) ?body status

let bad_request () = Http.Response.make 400

let only meth (request : Http.Request.t) k =
  if request.Http.Request.meth <> meth then
    respond [ ("Allow", Http.Request.meth_to_string meth) ] 405
  else k ()

(* An optional non-negative integer parameter. *)
let int_param params name ~default ~min =
  match List.assoc_opt name params with
  | None -> Some default
  | Some v -> (
    match int_of_string_opt v with Some n when n >= min -> Some n | _ -> None)

let version_headers log =
  [ ("X-Signature-Version", string_of_int (Changelog.version log));
    ("X-Signature-Checksum", Crc32.to_hex (Changelog.wire_checksum log)) ]

(* The steps every tenant read shares: method, tenant id, resolve, query,
   gate — in this order. *)
let tenant_read server request params ~query k =
  only Http.Request.GET request @@ fun () ->
  match List.assoc_opt "tenant" params with
  | Some tenant when id_ok tenant -> (
    match server.resolve tenant with
    | Error answer -> answer
    | Ok st -> (
      match query () with
      | None -> bad_request ()
      | Some q -> (
        match server.gate st with
        | Error refusal -> refusal
        | Ok log ->
          let headers extra = version_headers log @ server.headers st @ extra in
          k log headers q)))
  | _ -> bad_request ()

let serve_signatures server request params =
  tenant_read server request params
    ~query:(fun () ->
      Option.map
        (fun since -> (since, List.assoc_opt "full" params = Some "1"))
        (int_param params "since" ~default:0 ~min:0))
  @@ fun log headers (since, full) ->
  if since >= Changelog.version log && not full then begin
    server.served `Not_modified;
    respond (headers []) 304
  end
  else
    let snapshot () =
      server.served `Snapshot;
      respond
        (headers [ ("X-Signature-Mode", "snapshot"); tsv ])
        ~body:(sig_body (Changelog.current log))
        200
    in
    if full then snapshot ()
    else
      match Changelog.since_lines log since with
      | None -> snapshot ()
      | Some lines ->
        server.served `Delta;
        respond
          (headers
             [ ("X-Signature-Mode", "delta");
               ("X-Signature-Since", string_of_int since);
               tsv ])
          ~body:(String.concat "\n" lines)
          200

let serve_digest server request params =
  tenant_read server request params
    ~query:(fun () ->
      match
        ( int_param params "since" ~default:0 ~min:0,
          int_param params "interval" ~default:server.digest_interval ~min:1 )
      with
      | Some since, Some interval -> Some (since, interval)
      | _ -> None)
  @@ fun log headers (since, interval) ->
  server.served `Digest;
  respond
    (headers [ ("X-Signature-Mode", "digest"); tsv ])
    ~body:(digest_body (Changelog.digest log ~since ~interval))
    200

let accept_candidates ~gate ~report ~version (request : Http.Request.t) params =
  match (List.assoc_opt "tenant" params, List.assoc_opt "reporter" params) with
  | Some tenant, Some reporter when id_ok tenant && id_ok reporter -> (
    match gate tenant with
    | Error refusal -> refusal
    | Ok () -> (
      match sigs_of_lines (lines request.Http.Request.body) with
      | Error _ | Ok [] -> bad_request ()
      | Ok candidates ->
        let tally =
          List.fold_left
            (fun t s ->
              match report ~tenant ~reporter s with
              | `Accepted -> { t with accepted = t.accepted + 1 }
              | `Duplicate -> { t with duplicate = t.duplicate + 1 }
              | `Promoted -> { t with promoted = t.promoted + 1 }
              | `Capped -> { t with capped = t.capped + 1 })
            { accepted = 0; duplicate = 0; promoted = 0; capped = 0 }
            candidates
        in
        respond
          [ ("X-Signature-Version", string_of_int (version tenant)); tsv ]
          ~body:(tally_body tally) 200))
  | _ -> bad_request ()

let path_params (request : Http.Request.t) =
  let path, query = Url.split_path_query request.Http.Request.target in
  (path, Option.value ~default:[] (Url.decode_query query))

let handle server request =
  let path, params = path_params request in
  if path = signatures_endpoint then serve_signatures server request params
  else if path = digest_endpoint then serve_digest server request params
  else if path = candidates_endpoint then
    only Http.Request.POST request @@ fun () -> server.candidates request params
  else if path = metrics_endpoint then
    only Http.Request.GET request @@ fun () ->
    respond
      [ ("Content-Type", "text/plain; version=0.0.4; charset=utf-8") ]
      ~body:(server.metrics ()) 200
  else Http.Response.make 404

let parse_request raw =
  Result.map_error
    (fun e -> "request corrupt: " ^ Http.Wire.error_to_string e)
    (Http.Wire.parse raw)

let tenant_of request = List.assoc_opt "tenant" (snd (path_params request))

let wire_transport handle raw =
  Result.map
    (fun request -> Http.Response.print (handle request))
    (parse_request raw)

(* --- asking --- *)

type transport = string -> (string, string) result

let signatures_target ~tenant ~since ~full =
  Printf.sprintf "%s?tenant=%s&since=%d%s" signatures_endpoint tenant since
    (if full then "&full=1" else "")

let digest_target ~tenant ~since ~interval =
  Printf.sprintf "%s?tenant=%s&since=%d&interval=%d" digest_endpoint tenant since
    interval

let header response name = Http.Headers.get response.Http.Response.headers name

(* A body shorter or longer than its [Content-Length] was cut or padded on
   the way, so it is refused like bytes that do not parse: a truncated
   tally or signature body would otherwise read as a smaller one. *)
let parse_response raw =
  match Http.Response.parse raw with
  | Error e -> Error ("response corrupt: " ^ Http.Wire.error_to_string e)
  | Ok response -> (
    let body = response.Http.Response.body in
    match Option.bind (header response "Content-Length") int_of_string_opt with
    | Some n when n <> String.length body ->
      Error
        (Printf.sprintf "content-length mismatch: declared %d, got %d" n
           (String.length body))
    | _ -> Ok response)

let shard_answer ~epoch extra status =
  Http.Response.make
    ~headers:(Http.Headers.of_list (("X-Shard-Epoch", string_of_int epoch) :: extra))
    status

let misdirected ~epoch ~owner = shard_answer ~epoch [ ("X-Shard-Owner", owner) ] 421
let not_adopted ~epoch = shard_answer ~epoch [ ("Retry-After", "1") ] 503

let retry_later extra =
  Http.Response.make
    ~headers:(Http.Headers.of_list (("Retry-After", "1") :: extra))
    503

let relay_headers ~id ~staleness ~version_age =
  [ ("X-Relay-Id", id);
    ("X-Relay-Staleness", string_of_int staleness);
    ("X-Relay-Version-Age", string_of_int version_age) ]

let misdirected_to raw =
  match Http.Response.parse raw with
  | Ok r when r.Http.Response.status = 421 -> header r "X-Shard-Owner"
  | _ -> None

(* Handsets name the origin, relays and reporters the relay tier. *)
let exchange ~host transport ?body meth target =
  let host =
    match host with
    | `Authority -> "sigauthority.local"
    | `Relay -> "sigrelay.local"
  in
  let request =
    Http.Request.make
      ~headers:(Http.Headers.of_list [ ("Host", host) ])
      ?body meth target
  in
  match transport (Http.Wire.print request) with
  | Error _ as e -> e
  | Ok raw -> (
    match parse_response raw with
    | Ok response -> Ok (raw, response)
    | Error e -> Error e)

let get ~host transport target = exchange ~host transport Http.Request.GET target

let version response =
  Option.bind (header response "X-Signature-Version") int_of_string_opt

let checksum response =
  Option.bind (header response "X-Signature-Checksum") (fun hex ->
      int_of_string_opt ("0x" ^ hex))

let mode response =
  Option.map
    (function
      | "delta" -> `Delta
      | "snapshot" -> `Snapshot
      | other -> `Other other)
    (header response "X-Signature-Mode")

let post_candidates transport ~tenant ~reporter sigs =
  let target =
    Printf.sprintf "%s?tenant=%s&reporter=%s" candidates_endpoint tenant reporter
  in
  match
    exchange ~host:`Relay transport ~body:(sig_body sigs) Http.Request.POST
      target
  with
  | Error _ as e -> e
  | Ok (_, response) ->
    if response.Http.Response.status <> 200 then
      Error (Printf.sprintf "status %d" response.Http.Response.status)
    else tally_of_body response.Http.Response.body
