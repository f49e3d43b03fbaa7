(* Prints the origin's and a relay's printed response to a fixed grid of
   sync-protocol requests: every method on every endpoint, the query
   grammar's edge cases, and each serving state (shard gate, relay
   readiness and consistency, candidate forwarding).  Carriage returns
   are shown as [\r] so the transcript diffs as text. *)

module Http = Leakdetect_http
module Signature = Leakdetect_core.Signature
module Signature_io = Leakdetect_core.Signature_io
module Authority = Leakdetect_distrib.Authority
module Relay = Leakdetect_distrib.Relay
module Shard_map = Leakdetect_distrib.Shard_map

let sig_ ?(mode = Signature.Conjunction) id tokens =
  Signature.make ~id ~mode ~cluster_size:2 tokens

let s1 = sig_ 1 [ "imei=355021930123456"; "loc=35.6" ]
let s2 = sig_ 2 ~mode:Signature.Ordered [ "GET"; "/track"; "id=9774d56d" ]
let s3 = sig_ 3 [ "mac=00:11:22:33:44:55" ]
let s4 = sig_ 4 [ "imsi=240080000000001"; "carrier=x" ]

(* Five versions; with [compact_keep = 2] compaction leaves the horizon
   at 3, so [since=1] predates it and [since=3] is still a delta. *)
let history = [ [ s1 ]; [ s1; s2 ]; [ s1; s2; s3 ]; [ s2; s3 ]; [ s2; s3; s4 ] ]
let head = 5
let below_horizon = 1
let config = { Authority.k = 2; reporter_cap = 2; compact_keep = 2 }

let visible s = String.concat "\\r" (String.split_on_char '\r' s)

let raw meth target body =
  match meth with
  | `PUT ->
    Printf.sprintf "PUT %s HTTP/1.1\r\nHost: wire.test\r\n\r\n%s" target body
  | (`GET | `POST) as m ->
    Http.Wire.print
      (Http.Request.make
         ~headers:(Http.Headers.of_list [ ("Host", "wire.test") ])
         ~body
         (if m = `GET then Http.Request.GET else Http.Request.POST)
         target)

let meth_name = function `GET -> "GET" | `POST -> "POST" | `PUT -> "PUT"

let exchange ?(status_only = false) transport (meth, target, body) =
  Printf.printf "-- %s %s%s\n" (meth_name meth) target
    (if body = "" then "" else Printf.sprintf " [body %S]" body);
  match transport (raw meth target body) with
  | Error e -> Printf.printf "transport error: %s\n" e
  | Ok response when status_only -> (
    match Http.Response.parse response with
    | Ok r -> Printf.printf "status %d\n" r.Http.Response.status
    | Error e -> Printf.printf "unparseable: %s\n" (Http.Wire.error_to_string e))
  | Ok response -> Printf.printf "%s\n" (visible response)

let section name = Printf.printf "\n== %s\n" name

let valid_body =
  String.concat "\n"
    (List.map Signature_io.to_line
       [ sig_ 90 [ "cand"; "imsi=240080000000002" ];
         sig_ 91 ~mode:Signature.Ordered [ "POST"; "/beacon"; "uid=7f" ] ])

(* Requests that name no tenant, or a malformed one, plus every method on
   every path. *)
let tenantless =
  [ (`GET, "/signatures", "");
    (`GET, "/signatures?since=0", "");
    (`GET, "/signatures?tenant=bad%20id&since=0", "");
    (`GET, "/digest", "");
    (`GET, "/digest?tenant=bad%20id", "");
    (`POST, "/candidates?reporter=r1", valid_body);
    (`POST, "/candidates?tenant=bad%20id&reporter=r1", valid_body);
    (`POST, "/signatures?tenant=t0", "");
    (`PUT, "/signatures?tenant=t0", "");
    (`POST, "/digest?tenant=t0", "");
    (`PUT, "/digest?tenant=t0", "");
    (`GET, "/candidates?tenant=t0&reporter=r1", "");
    (`PUT, "/candidates?tenant=t0&reporter=r1", valid_body);
    (`GET, "/nope", "");
    (`POST, "/nope", "x");
    (`PUT, "/nope", "") ]

let metrics = [ (`GET, "/metrics", ""); (`POST, "/metrics", ""); (`PUT, "/metrics", "") ]

let reads tenant =
  let sigs q = (`GET, Printf.sprintf "/signatures?tenant=%s%s" tenant q, "") in
  let digest q = (`GET, Printf.sprintf "/digest?tenant=%s%s" tenant q, "") in
  [ sigs "";
    sigs "&since=banana";
    sigs "&since=-1";
    sigs "&since=0";
    sigs (Printf.sprintf "&since=%d" below_horizon);
    sigs (Printf.sprintf "&since=%d" (head - 2));
    sigs (Printf.sprintf "&since=%d" (head - 1));
    sigs (Printf.sprintf "&since=%d" head);
    sigs (Printf.sprintf "&since=%d" (head + 4));
    sigs (Printf.sprintf "&since=%d&full=1" head);
    sigs "&since=0&full=0";
    sigs "&since=banana&full=1";
    digest "";
    digest "&since=banana";
    digest "&since=-1";
    digest "&since=0";
    digest "&since=0&interval=0";
    digest "&since=0&interval=3";
    digest (Printf.sprintf "&since=%d&interval=1" below_horizon);
    digest (Printf.sprintf "&since=%d&interval=3" head);
    digest "&interval=banana";
    digest "&since=banana&interval=0" ]

let writes tenant =
  let cand q body = (`POST, Printf.sprintf "/candidates?tenant=%s%s" tenant q, body) in
  [ cand "" valid_body;
    cand "&reporter=bad%20id" valid_body;
    cand "&reporter=r1" "";
    cand "&reporter=r1" "not a signature line";
    cand "&reporter=r1" (valid_body ^ "\nnot a signature line");
    cand "&reporter=r1" valid_body;
    cand "&reporter=r1" valid_body;
    cand "&reporter=r2" valid_body;
    (`GET, Printf.sprintf "/signatures?tenant=%s&since=%d" tenant head, "") ]

let origin () =
  let auth = Authority.create ~config () in
  List.iter (fun set -> ignore (Authority.publish auth ~tenant:"t0" set)) history;
  Authority.compact auth;
  auth

let tenant_owned_by map origin prefix =
  let rec go i =
    let t = Printf.sprintf "%s%d" prefix i in
    if Shard_map.owner map ~tenant:t = origin then t else go (i + 1)
  in
  go 0

let () =
  section "authority: no shard map";
  let auth = origin () in
  let serve = Authority.wire_transport auth in
  List.iter (exchange serve) tenantless;
  List.iter (exchange ~status_only:true serve) metrics;
  List.iter (exchange serve) (reads "t0");
  List.iter (exchange serve) (reads "ghost");
  List.iter (exchange serve) (writes "t0");
  List.iter (exchange serve) (writes "ghost");

  let map =
    match Shard_map.create ~epoch:4 ~origins:[ "me"; "other" ] () with
    | Ok m -> m
    | Error e -> failwith e
  in
  let mine = tenant_owned_by map "me" "t"
  and foreign = tenant_owned_by map "other" "t"
  and unborn = tenant_owned_by map "me" "u" in
  let auth = Authority.create ~config () in
  List.iter
    (fun set ->
      ignore (Authority.publish auth ~tenant:mine set);
      ignore (Authority.publish auth ~tenant:foreign set))
    history;
  Authority.compact auth;
  Authority.set_shard auth ~self:"me" map;
  let serve = Authority.wire_transport auth in
  section (Printf.sprintf "authority: shard map, owned tenant %s" mine);
  List.iter (exchange serve) tenantless;
  List.iter (exchange serve) (reads mine);
  section (Printf.sprintf "authority: shard map, unowned tenant %s (421)" foreign);
  List.iter (exchange serve) (reads foreign);
  List.iter (exchange serve) (writes foreign);
  section
    (Printf.sprintf "authority: shard map, owned but not adopted %s (503)" unborn);
  List.iter (exchange serve) (reads unborn);
  List.iter (exchange serve) (writes unborn);
  section (Printf.sprintf "authority: shard map, owned tenant %s writes" mine);
  List.iter (exchange serve) (writes mine);

  (* The relay follows the origin version by version and, like it, keeps
     two entries delta-servable. *)
  let auth = Authority.create ~config () in
  let relay =
    Relay.create ~id:"r0" ~tenants:[ "t0" ]
      ~config:{ Relay.compact_keep = 2; digest_interval = 8 }
      ()
  in
  let serve = Relay.wire_transport relay in
  section "relay: unknown tenant";
  List.iter (exchange serve) (reads "ghost");
  section "relay: unsynced";
  List.iter (exchange serve) tenantless;
  List.iter (exchange ~status_only:true serve) metrics;
  List.iter (exchange serve) (reads "t0");
  section "relay: no upstream";
  List.iter (exchange serve) (writes "t0");
  section "relay: upstream error";
  Relay.set_upstream relay (fun _ -> Error "upstream down");
  List.iter (exchange serve) (writes "t0");
  Relay.set_upstream relay (fun _ -> Ok "garbage");
  List.iter (exchange serve) (writes "t0");
  section "relay: synced";
  List.iteri
    (fun i set ->
      ignore (Authority.publish auth ~tenant:"t0" set);
      Relay.set_clock relay (3 * i);
      ignore
        (Relay.sync_tenant relay ~tenant:"t0"
           ~transport:(Authority.wire_transport auth)))
    history;
  Authority.compact auth;
  Relay.set_clock relay 20;
  Relay.set_upstream relay (Authority.wire_transport auth);
  List.iter (exchange serve) tenantless;
  List.iter (exchange ~status_only:true serve) metrics;
  List.iter (exchange serve) (reads "t0");
  List.iter (exchange serve) (writes "t0");
  section "relay: forked, upstream partitioned";
  ignore
    (Relay.sync_tenant relay ~tenant:"t0" ~transport:(fun _ -> Error "partitioned"));
  Relay.inject_fork relay ~tenant:"t0";
  List.iter (exchange serve) (reads "t0");
  List.iter (exchange ~status_only:true serve) metrics
