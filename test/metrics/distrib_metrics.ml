(* Prints the Prometheus exposition of the distribution tier's metric
   registries after a fixed script: an authority's (a reopen from the
   journal, publishes that add, replace, retire and change nothing,
   candidate reports up to a promotion, a compaction, a tenant exported,
   adopted back and released, requests answered 200, 304 and 404), a
   relay's (one upstream sync of one of its two tenants, then a failed
   one), a handset's (syncs ending Updated, Unchanged and Failed) and a
   second handset's (one sync, Updated), then the relay's own
   [/metrics] scrape.  Only series the script used may appear, so a series created
   before its first use, or one renamed or relabelled, changes the
   transcript. *)

module Http = Leakdetect_http
module Obs = Leakdetect_obs.Obs
module Signature = Leakdetect_core.Signature
module Authority = Leakdetect_distrib.Authority
module Relay = Leakdetect_distrib.Relay
module Delta_client = Leakdetect_distrib.Delta_client

let sig_ ?(mode = Signature.Conjunction) id tokens =
  Signature.make ~id ~mode ~cluster_size:2 tokens

let s1 = sig_ 1 [ "imei=355021930123456"; "loc=35.6" ]
let s1' = sig_ 1 [ "imei=355021930123456"; "loc=35.7" ]
let s2 = sig_ 2 ~mode:Signature.Ordered [ "GET"; "/track"; "id=9774d56d" ]
let s3 = sig_ 3 [ "mac=00:11:22:33:44:55" ]
let s4 = sig_ 4 [ "imsi=240080000000001"; "carrier=x" ]
let candidate = sig_ 0 [ "cand"; "imsi=240080000000002" ]

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let open_authority ~obs ~config dir =
  match Authority.open_ ~obs ~config ~dir () with
  | Ok (a, _) -> a
  | Error e -> failwith e

let get target = Http.Request.make Http.Request.GET target

let section name obs =
  Printf.printf "== %s\n%s" name (Obs.to_prometheus obs)

let () =
  let dir = Filename.temp_file "distrib_metrics" "" in
  Sys.remove dir;
  let config = { Authority.default_config with Authority.k = 2 } in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let first = open_authority ~obs:(Obs.create ()) ~config dir in
  ignore (Authority.publish first ~tenant:"t0" [ s1; s2 ]);
  Authority.close first;
  let auth_obs = Obs.create () in
  let auth = open_authority ~obs:auth_obs ~config dir in
  ignore (Authority.publish auth ~tenant:"t0" [ s1; s2 ]);
  ignore (Authority.publish auth ~tenant:"t0" [ s1'; s3 ]);
  ignore (Authority.publish auth ~tenant:"t1" [ s4 ]);
  List.iter
    (fun reporter ->
      ignore (Authority.report_candidate auth ~tenant:"t0" ~reporter candidate))
    [ "r1"; "r1"; "r2"; "r3" ];
  Authority.compact auth;
  (match Authority.export_tenant auth ~tenant:"t1" with
  | Ok payload -> ignore (Authority.adopt_tenant auth payload)
  | Error e -> failwith e);
  ignore (Authority.release_tenant auth ~tenant:"t1");
  List.iter
    (fun target -> ignore (Authority.handle auth (get target)))
    [ "/signatures?tenant=t0&since=6"; "/signatures?tenant=t0&since=0";
      "/digest?tenant=t0"; "/nope" ];
  let relay_obs = Obs.create () in
  let relay = Relay.create ~obs:relay_obs ~id:"relay-0" ~tenants:[ "t0"; "t1" ] () in
  let origin = Authority.wire_transport auth in
  ignore (Relay.sync_tenant relay ~tenant:"t0" ~transport:origin);
  let handset_obs = Obs.create () in
  let handset = Delta_client.create ~obs:handset_obs ~seed:7 ~tenant:"t0" () in
  let relays = [ Relay.wire_transport relay ] in
  ignore (Delta_client.sync_via handset ~relays ~origin);
  ignore (Delta_client.sync_via handset ~relays ~origin);
  let down _ = Error "down" in
  ignore (Delta_client.sync handset ~transport:down);
  let second_obs = Obs.create () in
  let second = Delta_client.create ~obs:second_obs ~seed:8 ~tenant:"t0" () in
  ignore (Delta_client.sync_via second ~relays ~origin);
  ignore (Relay.sync_tenant relay ~tenant:"t0" ~transport:down);
  section "authority" auth_obs;
  section "relay" relay_obs;
  section "handset" handset_obs;
  section "second handset" second_obs;
  let scrape = Relay.handle relay (get "/metrics") in
  Printf.printf "== relay /metrics scrape (status %d)\n%s" scrape.Http.Response.status
    scrape.Http.Response.body;
  Authority.close auth
