module Prng = Leakdetect_util.Prng
module Http = Leakdetect_http
module Url = Leakdetect_net.Url

type backend = { host : string; ip : Leakdetect_net.Ipv4.t; weight : float }

type t = {
  id : int;
  package : string;
  permissions : Permissions.combo;
  modules : (Ad_module.family * string) list;
  backends : backend list;
  leaks_android_id : bool;
  leaks_imei : bool;
}

let backend_paths =
  [| "/api/v1/list"; "/api/v1/detail"; "/news/latest"; "/images/thumb";
     "/rank/daily"; "/update/check"; "/feed.json"; "/assets/pack"; "/user/sync" |]

let render_backend_packet rng device t backend =
  let path = Prng.pick rng backend_paths in
  let params =
    List.filteri
      (fun i _ -> i = 0 || Prng.bool rng)
      [
        ("page", string_of_int (1 + Prng.int rng 30));
        ("lang", "ja");
        ("v", Printf.sprintf "%d.%d.%d" (1 + Prng.int rng 3) (Prng.int rng 10) (Prng.int rng 10));
        ("t", string_of_int (1325376000 + Prng.int rng 10000000));
      ]
  in
  (* Some applications report device identifiers to their own servers —
     the long tail of Table III's destination counts. *)
  let params =
    if t.leaks_android_id && Prng.chance rng 0.5 then
      params @ [ ("aid", device.Device.android_id) ]
    else params
  in
  let params =
    if t.leaks_imei && Prng.chance rng 0.5 then
      params @ [ ("dnum", device.Device.imei) ]
    else params
  in
  let query = Url.encode_query params in
  let headers =
    Http.Headers.of_list
      [
        ("Host", backend.host);
        ("User-Agent", Printf.sprintf "%s/1.0 (Android 2.3.4)" t.package);
        ("Connection", "Keep-Alive");
      ]
  in
  let headers =
    if Prng.chance rng 0.3 then
      Http.Headers.add headers "Cookie"
        (Http.Cookie.to_string
           [ ("session", String.init 24 (fun _ ->
                  let v = Prng.int rng 16 in
                  if v < 10 then Char.chr (Char.code '0' + v)
                  else Char.chr (Char.code 'a' + v - 10))) ])
    else headers
  in
  let request = Http.Request.make ~headers Http.Request.GET (path ^ "?" ^ query) in
  let dst = { Http.Packet.ip = backend.ip; port = 80; host = backend.host } in
  Http.Packet.make ~dst ~request
