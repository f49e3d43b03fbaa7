module Sensitive = Leakdetect_core.Sensitive

type combo = {
  internet : bool;
  location : bool;
  phone_state : bool;
  contacts : bool;
}

let requires_sensitive c = c.location || c.phone_state || c.contacts
let dangerous c = c.internet && requires_sensitive c

let pattern c =
  let mark b = if b then "X" else "-" in
  String.concat " " [ mark c.internet; mark c.location; mark c.phone_state; mark c.contacts ]

let combo ~internet ~location ~phone_state ~contacts =
  { internet; location; phone_state; contacts }

let table1_rows =
  [
    (combo ~internet:true ~location:false ~phone_state:false ~contacts:false, 302);
    (combo ~internet:true ~location:false ~phone_state:true ~contacts:false, 329);
    (combo ~internet:true ~location:true ~phone_state:true ~contacts:false, 153);
    (combo ~internet:true ~location:true ~phone_state:false ~contacts:false, 148);
    (combo ~internet:true ~location:true ~phone_state:true ~contacts:true, 23);
    (* Not printed in Table I; fills the population to 1,188. *)
    (combo ~internet:true ~location:false ~phone_state:false ~contacts:true, 233);
  ]

let population rng =
  let combos =
    List.concat_map (fun (c, count) -> List.init count (fun _ -> c)) table1_rows
  in
  let arr = Array.of_list combos in
  Leakdetect_util.Sample.shuffle rng arr;
  arr

let allows_kind c kind =
  match kind with
  | Sensitive.Imei | Sensitive.Imei_md5 | Sensitive.Imei_sha1 | Sensitive.Imsi
  | Sensitive.Sim_serial ->
    c.phone_state
  | Sensitive.Android_id | Sensitive.Android_id_md5 | Sensitive.Android_id_sha1
  | Sensitive.Carrier ->
    true
