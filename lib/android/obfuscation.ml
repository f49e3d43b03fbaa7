module Prng = Leakdetect_util.Prng
module Base64 = Leakdetect_util.Base64
module Http = Leakdetect_http
module Url = Leakdetect_net.Url

let host = "c.zqcrypt.cn"
let service_ip = Leakdetect_net.Ipv4.of_octets 61 147 8 21

(* The module's embedded key, identical in every application build — the
   property the paper's argument relies on. *)
let embedded_key = 0x5EC12E7

let keystream n =
  let rng = Prng.create embedded_key in
  String.init n (fun _ -> Char.chr (Prng.int rng 256))

let xor_crypt s =
  let ks = keystream (String.length s) in
  String.init (String.length s) (fun i ->
      Char.chr (Char.code s.[i] lxor Char.code ks.[i]))

let headers package =
  Http.Headers.of_list
    [
      ("Host", host);
      ("User-Agent", Printf.sprintf "%s/1.0 (Linux; Android 2.3.4)" package);
      ("Content-Type", "application/x-www-form-urlencoded");
      ("Connection", "Keep-Alive");
    ]

let post package body =
  let request = Http.Request.make ~headers:(headers package) ~body Http.Request.POST "/c/report" in
  let dst = { Http.Packet.ip = service_ip; port = 80; host } in
  Http.Packet.make ~dst ~request

let leak_packet rng device ~package =
  (* Identifier fields first: the ciphertext prefix is constant across all
     packets of all applications; only the nonce tail varies. *)
  let plaintext =
    Printf.sprintf "imei=%s&iccid=%s&aid=%s&n=%d" device.Device.imei
      device.Device.sim_serial device.Device.android_id
      (Prng.int rng 1_000_000_000)
  in
  let body =
    Url.encode_query [ ("v", "2"); ("d", Base64.encode (xor_crypt plaintext)) ]
  in
  post package body

let beacon_packet rng device ~package =
  ignore device;
  let body =
    Url.encode_query [ ("v", "2"); ("hb", "1"); ("t", string_of_int (Prng.int rng 100000)) ]
  in
  post package body

let decode_leak (packet : Http.Packet.t) =
  match Url.decode_query packet.Http.Packet.content.Http.Packet.body with
  | None -> None
  | Some params -> (
    match List.assoc_opt "d" params with
    | None -> None
    | Some encoded -> Option.map xor_crypt (Base64.decode encoded))
