module Prng = Leakdetect_util.Prng
module Sensitive = Leakdetect_core.Sensitive

type t = {
  imei : string;
  imsi : string;
  sim_serial : string;
  android_id : string;
  carrier : string;
  model : string;
}

let carriers = [| "NTTdocomo"; "KDDI"; "SoftBank" |]
let models = [| "Nexus S"; "SC-02C"; "IS11S"; "SH-12C"; "P-07C" |]

let digits rng n = String.init n (fun _ -> Char.chr (Char.code '0' + Prng.int rng 10))

let hex_digits rng n =
  String.init n (fun _ ->
      let v = Prng.int rng 16 in
      if v < 10 then Char.chr (Char.code '0' + v) else Char.chr (Char.code 'a' + v - 10))

(* Luhn check digit over a digit string (doubling from the rightmost
   position of the full number, i.e. the check digit itself is position 1). *)
let luhn_check_digit payload =
  let n = String.length payload in
  let sum = ref 0 in
  for i = 0 to n - 1 do
    let d = Char.code payload.[n - 1 - i] - Char.code '0' in
    let d = if i mod 2 = 0 then let x = d * 2 in if x > 9 then x - 9 else x else d in
    sum := !sum + d
  done;
  (10 - (!sum mod 10)) mod 10

let create rng =
  let carrier = Prng.pick rng carriers in
  (* Type allocation codes of 2011-era handsets. *)
  let tac = Prng.pick rng [| "35502193"; "35851004"; "35896704"; "01215200" |] in
  let imei_payload = tac ^ digits rng 6 in
  let imei = imei_payload ^ string_of_int (luhn_check_digit imei_payload) in
  let mnc = match carrier with "NTTdocomo" -> "10" | "KDDI" -> "50" | _ -> "20" in
  let imsi = "440" ^ mnc ^ digits rng 10 in
  let sim_serial = "8981" ^ digits rng 15 in
  let android_id = hex_digits rng 16 in
  let model = Prng.pick rng models in
  { imei; imsi; sim_serial; android_id; carrier; model }

let value t kind =
  match kind with
  | Sensitive.Android_id -> t.android_id
  | Sensitive.Android_id_md5 -> Leakdetect_crypto.Md5.hex t.android_id
  | Sensitive.Android_id_sha1 -> Leakdetect_crypto.Sha1.hex t.android_id
  | Sensitive.Carrier -> t.carrier
  | Sensitive.Imei -> t.imei
  | Sensitive.Imei_md5 -> Leakdetect_crypto.Md5.hex t.imei
  | Sensitive.Imei_sha1 -> Leakdetect_crypto.Sha1.hex t.imei
  | Sensitive.Imsi -> t.imsi
  | Sensitive.Sim_serial -> t.sim_serial

let needles t = List.map (fun kind -> (kind, value t kind)) Sensitive.all
