module Prng = Leakdetect_util.Prng
module Sample = Leakdetect_util.Sample
module Http = Leakdetect_http
module Ipv4 = Leakdetect_net.Ipv4
module Payload_check = Leakdetect_core.Payload_check
module Sensitive = Leakdetect_core.Sensitive

let log_src = Logs.Src.create "leakdetect.workload" ~doc:"Synthetic trace generation"

module Log = (val Logs.src_log log_src)

type dataset = {
  device : Device.t;
  apps : App.t array;
  records : Http.Trace.record array;
  payload_check : Payload_check.t;
}

(* Figure 2 fit: destinations per app ~ round(LogNormal(1.64, 0.9)),
   clamped to [1, 84]. *)
let draw_destination_target rng =
  let d = int_of_float (Float.round (Sample.lognormal rng ~mu:1.64 ~sigma:0.9)) in
  max 1 (min 84 d)

(* Mean first-party packets per app at scale 1, sized so the whole trace
   approaches the paper's 107,859 packets once module traffic (~38k
   expected from the Table II calibration) is added. *)
let backend_mean = 76.0

let app_words =
  [| "game"; "news"; "tool"; "photo"; "music"; "book"; "fun"; "navi"; "cook";
     "train"; "weather"; "manga"; "quiz"; "chat"; "coupon"; "camera" |]

let shared_cdn_hosts rng =
  (* A wide pool keeps any single shared host out of the Table II top
     rows while still letting apps share infrastructure. *)
  Array.init 1200 (fun i ->
      let provider = Prng.pick rng [| "jcdn"; "spcloud"; "mobimg"; "apphost" |] in
      Printf.sprintf "img%d.%s.jp" i provider)

let random_ip rng =
  (* Avoid low/reserved first octets so addresses look routable. *)
  Ipv4.of_octets (Prng.int_in rng 20 220) (Prng.int rng 256) (Prng.int rng 256)
    (1 + Prng.int rng 254)

let make_backends rng ~package ~count ~cdn_pool =
  let mk_host i =
    if i = 0 || Prng.chance rng 0.75 then
      let sub = Prng.pick rng [| "api"; "img"; "cdn"; "app"; "dl"; "feed"; "s" |] in
      Printf.sprintf "%s.%s%04d.jp" sub package i
    else Prng.pick rng cdn_pool
  in
  if count = 0 then []
  else begin
    (* Zipf-ish traffic split: first backend dominates. *)
    let weights = Sample.zipf_weights ~n:count ~s:1.2 in
    List.init count (fun i ->
        { App.host = mk_host i; ip = random_ip rng; weight = weights.(i) })
  end

let build_apps rng ~n_apps =
  let combos = Permissions.population rng in
  let combos = Array.sub combos 0 (min n_apps (Array.length combos)) in
  let n = Array.length combos in
  let targets = Array.init n (fun _ -> draw_destination_target rng) in
  (* One application embeds a browser and tops Figure 2 at 84 hosts. *)
  if n > 0 then targets.(Prng.int rng n) <- 84;
  let packages =
    Array.init n (fun i -> Printf.sprintf "%s%04d" (Prng.pick rng app_words) i)
  in
  (* Module assignment: Bernoulli per family with probability chosen so the
     expected embed count matches the Table II target among eligible apps
     (apps with more than one destination and the required permission). *)
  let eligible family i =
    targets.(i) >= 2
    && ((not family.Ad_module.needs_phone_state) || combos.(i).Permissions.phone_state)
  in
  let family_prob =
    List.map
      (fun family ->
        let count = ref 0 in
        for i = 0 to n - 1 do
          if eligible family i then incr count
        done;
        let p =
          if !count = 0 then 0.
          else
            Float.min 1.
              (float_of_int family.Ad_module.target_apps
              *. (float_of_int n /. 1188.)
              /. float_of_int !count)
        in
        (family, p))
      Ad_module.catalog
  in
  let cdn_pool = shared_cdn_hosts rng in
  Array.init n (fun i ->
      let modules =
        List.filter_map
          (fun (family, p) ->
            if eligible family i && Prng.chance rng p then
              Some (family, Prng.pick rng family.Ad_module.hosts)
            else None)
          family_prob
      in
      let module_hosts = List.length modules in
      let backend_count =
        if module_hosts = 0 then max 1 targets.(i)
        else max 0 (targets.(i) - module_hosts)
      in
      let package = Printf.sprintf "jp.co.%s" packages.(i) in
      {
        App.id = i;
        package;
        permissions = combos.(i);
        modules;
        backends = make_backends rng ~package:packages.(i) ~count:backend_count ~cdn_pool;
        leaks_android_id = Prng.chance rng 0.06;
        leaks_imei = combos.(i).Permissions.phone_state && Prng.chance rng 0.03;
      })

let generate_app_records rng ~scale ~device ~check (app : App.t) =
  let records = ref [] in
  let ctx =
    {
      Ad_module.package = app.App.package;
      permissions = app.App.permissions;
      counter = ref 0;
    }
  in
  let emit packet =
    let labels = List.map Sensitive.to_string (Payload_check.scan check packet) in
    records := { Http.Trace.packet; app_id = app.App.id; labels } :: !records
  in
  (* Module traffic, pinned to the app's sticky host per family. *)
  List.iter
    (fun (family, host) ->
      let mean = Float.max 0.2 (family.Ad_module.packets_per_app *. scale) in
      let count = max 1 (Sample.poisson rng mean) in
      for _ = 1 to count do
        emit (Ad_module.render ~host rng device ctx family)
      done)
    app.App.modules;
  (* First-party traffic: touch every backend once (a destination exists
     because it was contacted), then split the rest by weight. *)
  let backends = Array.of_list app.App.backends in
  if Array.length backends > 0 then begin
    Array.iter (fun b -> emit (App.render_backend_packet rng device app b)) backends;
    let backend_total = Sample.poisson rng (Float.max 0.5 (backend_mean *. scale)) in
    let weights = Array.map (fun b -> b.App.weight) backends in
    for _ = 1 to backend_total do
      let b = backends.(Sample.weighted_index rng weights) in
      emit (App.render_backend_packet rng device app b)
    done
  end;
  List.rev !records

let generate ?(seed = 42) ?(scale = 1.0) ?(n_apps = 1188) () =
  let rng = Prng.create seed in
  let device = Device.create rng in
  let check = Payload_check.create (Device.needles device) in
  let apps = build_apps rng ~n_apps in
  let records =
    Array.to_list apps
    |> List.concat_map (fun app ->
           generate_app_records (Prng.split rng) ~scale ~device ~check app)
    |> Array.of_list
  in
  Log.info (fun m ->
      m "generated %d packets (%d sensitive) from %d apps, seed %d, scale %.2f"
        (Array.length records)
        (Array.fold_left (fun acc r -> if r.Http.Trace.labels = [] then acc else acc + 1) 0 records)
        (Array.length apps) seed scale);
  { device; apps; records; payload_check = check }

let packets dataset = Array.map (fun r -> r.Http.Trace.packet) dataset.records

let split dataset = Http.Trace.split dataset.records

let labels_of_record r =
  List.filter_map Sensitive.of_string r.Http.Trace.labels

let sensitive_count dataset =
  Array.fold_left
    (fun acc r -> if r.Http.Trace.labels = [] then acc else acc + 1)
    0 dataset.records
