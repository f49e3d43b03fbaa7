(* Tests for Leakdetect_android: device model, permissions, ad-module
   catalog, workload generator and trace statistics. *)

open Leakdetect_android
module Sensitive = Leakdetect_core.Sensitive
module Packet = Leakdetect_http.Packet
module Prng = Leakdetect_util.Prng

let qtest = QCheck_alcotest.to_alcotest

let find_family name = List.find_opt (fun f -> f.Ad_module.name = name) Ad_module.catalog

(* --- Device --- *)

(* Luhn check-digit validation of a digit string (IMEIs carry one). *)
let luhn_valid s =
  let n = String.length s in
  n >= 2
  && String.for_all (fun c -> c >= '0' && c <= '9') s
  &&
  let sum = ref 0 in
  String.iteri
    (fun i c ->
      let d = Char.code c - Char.code '0' in
      (* Double every second digit counting from the check digit. *)
      let d = if (n - 1 - i) mod 2 = 1 then (let d2 = 2 * d in if d2 > 9 then d2 - 9 else d2) else d in
      sum := !sum + d)
    s;
  !sum mod 10 = 0

(* Letters, digits and hyphens per label, 1..63 characters, no hyphen at
   either end; at least two labels. *)
let valid_fqdn s =
  let label l =
    let n = String.length l in
    n >= 1 && n <= 63
    && String.for_all (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-') l
    && l.[0] <> '-' && l.[n - 1] <> '-'
  in
  match String.split_on_char '.' s with [] | [ _ ] -> false | ls -> List.for_all label ls

let test_device_formats () =
  let d = Device.create (Prng.create 1) in
  Alcotest.(check int) "imei 15 digits" 15 (String.length d.Device.imei);
  Alcotest.(check bool) "imei digits" true
    (String.for_all (fun c -> c >= '0' && c <= '9') d.Device.imei);
  Alcotest.(check bool) "imei luhn valid" true (luhn_valid d.Device.imei);
  Alcotest.(check int) "imsi 15 digits" 15 (String.length d.Device.imsi);
  Alcotest.(check string) "imsi japanese mcc" "440" (String.sub d.Device.imsi 0 3);
  Alcotest.(check int) "sim serial 19 digits" 19 (String.length d.Device.sim_serial);
  Alcotest.(check string) "iccid prefix" "8981" (String.sub d.Device.sim_serial 0 4);
  Alcotest.(check int) "android id 16 hex" 16 (String.length d.Device.android_id);
  Alcotest.(check bool) "android id is hex" true (Leakdetect_util.Hex.is_hex d.Device.android_id);
  Alcotest.(check bool) "carrier known" true
    (Array.exists (String.equal d.Device.carrier) Device.carriers)

let test_device_values () =
  let d = Device.create (Prng.create 2) in
  Alcotest.(check string) "raw imei" d.Device.imei (Device.value d Sensitive.Imei);
  Alcotest.(check string) "md5 of imei"
    (Leakdetect_crypto.Md5.hex d.Device.imei)
    (Device.value d Sensitive.Imei_md5);
  Alcotest.(check string) "sha1 of android id"
    (Leakdetect_crypto.Sha1.hex d.Device.android_id)
    (Device.value d Sensitive.Android_id_sha1);
  Alcotest.(check string) "carrier" d.Device.carrier (Device.value d Sensitive.Carrier)

let test_device_needles_complete () =
  let d = Device.create (Prng.create 3) in
  let ns = Device.needles d in
  Alcotest.(check int) "all nine kinds" 9 (List.length ns);
  List.iter (fun (_, needle) -> Alcotest.(check bool) "non-empty" true (needle <> "")) ns

let test_device_determinism () =
  let d1 = Device.create (Prng.create 7) and d2 = Device.create (Prng.create 7) in
  Alcotest.(check string) "same seed, same imei" d1.Device.imei d2.Device.imei

(* --- Permissions --- *)

let test_table1_rows () =
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 Permissions.table1_rows in
  Alcotest.(check int) "sums to population" 1188 total;
  let counts = List.map snd Permissions.table1_rows in
  Alcotest.(check (list int)) "paper counts first" [ 302; 329; 153; 148; 23; 233 ] counts

let test_population_exact () =
  let pop = Permissions.population (Prng.create 11) in
  Alcotest.(check int) "size" 1188 (Array.length pop);
  let count combo = Array.fold_left (fun acc c -> if c = combo then acc + 1 else acc) 0 pop in
  List.iter
    (fun (combo, expected) -> Alcotest.(check int) "row count exact" expected (count combo))
    Permissions.table1_rows

let test_dangerous () =
  let c = { Permissions.internet = true; location = false; phone_state = true; contacts = false } in
  Alcotest.(check bool) "internet+phone_state" true (Permissions.dangerous c);
  let benign = { c with Permissions.phone_state = false } in
  Alcotest.(check bool) "internet only" false (Permissions.dangerous benign)

let test_allows_kind () =
  let ps = { Permissions.internet = true; location = false; phone_state = true; contacts = false } in
  let no_ps = { ps with Permissions.phone_state = false } in
  Alcotest.(check bool) "imei with PS" true (Permissions.allows_kind ps Sensitive.Imei);
  Alcotest.(check bool) "imei without PS" false (Permissions.allows_kind no_ps Sensitive.Imei);
  Alcotest.(check bool) "imei hash follows imei" false
    (Permissions.allows_kind no_ps Sensitive.Imei_md5);
  Alcotest.(check bool) "android id free" true (Permissions.allows_kind no_ps Sensitive.Android_id);
  Alcotest.(check bool) "carrier free" true (Permissions.allows_kind no_ps Sensitive.Carrier)

let test_pattern () =
  let c = { Permissions.internet = true; location = true; phone_state = false; contacts = false } in
  Alcotest.(check string) "pattern" "X X - -" (Permissions.pattern c)

(* --- Ad_module --- *)

let test_catalog_invariants () =
  let names = List.map (fun f -> f.Ad_module.name) Ad_module.catalog in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun f ->
      Alcotest.(check bool) (f.Ad_module.name ^ " has hosts") true
        (Array.length f.Ad_module.hosts > 0);
      Alcotest.(check bool) (f.Ad_module.name ^ " apps target positive") true
        (f.Ad_module.target_apps > 0);
      Alcotest.(check bool) (f.Ad_module.name ^ " rate in [0,1]") true
        (f.Ad_module.sensitive_rate >= 0. && f.Ad_module.sensitive_rate <= 1.);
      Array.iter
        (fun h ->
          Alcotest.(check bool) (h ^ " valid fqdn") true (valid_fqdn h))
        f.Ad_module.hosts)
    Ad_module.catalog

let test_catalog_covers_table2 () =
  (* Every Table II service the paper names must be in the catalog. *)
  List.iter
    (fun name ->
      Alcotest.(check bool) name true (Option.is_some (find_family name)))
    [
      "doubleclick.net"; "admob.com"; "google-analytics.com"; "gstatic.com";
      "google.com"; "yahoo.co.jp"; "ggpht.com"; "googlesyndication.com";
      "ad-maker.info"; "nend.net"; "mydas.mobi"; "amoad.com"; "flurry.com";
      "microad.jp"; "adwhirl.com"; "i-mobile.co.jp"; "adlantis.jp"; "naver.jp";
      "adimg.net"; "mbga.jp"; "rakuten.co.jp"; "fc2.com"; "medibaad.com";
      "mediba.jp"; "mobclix.com"; "gree.jp"; "zqapk.com";
    ]

let test_host_ip_in_block () =
  let f = Option.get (find_family "admob.com") in
  Array.iter
    (fun host ->
      let ip = Ad_module.host_ip f host in
      let a, b = f.Ad_module.ip_octets in
      let base = Leakdetect_net.Ipv4.of_octets a b 0 0 in
      Alcotest.(check bool) (host ^ " in /16") true (Leakdetect_net.Ipv4.lmatch base ip >= 16))
    f.Ad_module.hosts;
  (* deterministic *)
  Alcotest.(check bool) "stable mapping" true
    (Ad_module.host_ip f "r.admob.com" = Ad_module.host_ip f "r.admob.com")

let full_permissions =
  { Permissions.internet = true; location = true; phone_state = true; contacts = true }

let render_ctx () =
  { Ad_module.package = "jp.co.testapp"; permissions = full_permissions; counter = ref 0 }

let test_render_basic () =
  let rng = Prng.create 5 in
  let device = Device.create rng in
  let f = Option.get (find_family "ad-maker.info") in
  let p = Ad_module.render rng device (render_ctx ()) f in
  Alcotest.(check bool) "host from family" true
    (Array.exists (String.equal p.Packet.dst.Packet.host) f.Ad_module.hosts);
  Alcotest.(check int) "port" 80 p.Packet.dst.Packet.port;
  Alcotest.(check bool) "request line wellformed" true
    (Leakdetect_text.Search.contains ~needle:" HTTP/1.1" p.Packet.content.Packet.request_line)

let test_render_sticky_host () =
  let rng = Prng.create 6 in
  let device = Device.create rng in
  let f = Option.get (find_family "doubleclick.net") in
  for _ = 1 to 20 do
    let p = Ad_module.render ~host:"ad.doubleclick.net" rng device (render_ctx ()) f in
    Alcotest.(check string) "pinned host" "ad.doubleclick.net" p.Packet.dst.Packet.host
  done

let test_render_respects_permissions () =
  let rng = Prng.create 7 in
  let device = Device.create rng in
  let no_ps = { full_permissions with Permissions.phone_state = false } in
  let ctx = { Ad_module.package = "jp.co.x"; permissions = no_ps; counter = ref 0 } in
  let f = Option.get (find_family "ad-maker.info") in
  (* Render many packets: the IMEI must never appear without phone-state. *)
  for _ = 1 to 50 do
    let p = Ad_module.render rng device ctx f in
    Alcotest.(check bool) "no imei leak" false
      (Leakdetect_text.Search.contains ~needle:device.Device.imei
         (Packet.content_string p))
  done

let test_render_sensitive_rate_extremes () =
  let rng = Prng.create 8 in
  let device = Device.create rng in
  let f = Option.get (find_family "google-analytics.com") in
  (* sensitive_rate is 0: no identifier may ever appear. *)
  for _ = 1 to 30 do
    let p = Ad_module.render rng device (render_ctx ()) f in
    Alcotest.(check bool) "analytics stays clean" false
      (Leakdetect_text.Search.contains ~needle:device.Device.android_id
         (Packet.content_string p))
  done

let test_render_post_body () =
  let rng = Prng.create 9 in
  let device = Device.create rng in
  let f = Option.get (find_family "flurry.com") in
  let seen_body = ref false in
  for _ = 1 to 20 do
    let p = Ad_module.render rng device (render_ctx ()) f in
    if String.length p.Packet.content.Packet.body > 0 then seen_body := true;
    Alcotest.(check bool) "POST request line" true
      (String.length p.Packet.content.Packet.request_line >= 4
      && String.sub p.Packet.content.Packet.request_line 0 4 = "POST")
  done;
  Alcotest.(check bool) "bodies produced" true !seen_body

(* --- Workload --- *)

let small_dataset = lazy (Workload.generate ~seed:21 ~scale:0.02 ())

let test_workload_app_count () =
  let ds = Lazy.force small_dataset in
  Alcotest.(check int) "1188 apps" 1188 (Array.length ds.Workload.apps)

let test_workload_labels_consistent () =
  (* Labels stored in the trace must equal a fresh payload-check scan. *)
  let ds = Lazy.force small_dataset in
  Array.iteri
    (fun i r ->
      if i mod 37 = 0 then
        let fresh =
          List.map Sensitive.to_string
            (Leakdetect_core.Payload_check.scan ds.Workload.payload_check
               r.Leakdetect_http.Trace.packet)
        in
        Alcotest.(check (list string)) "labels match rescan" fresh
          r.Leakdetect_http.Trace.labels)
    ds.Workload.records

let test_workload_split_partition () =
  let ds = Lazy.force small_dataset in
  let suspicious, normal = Workload.split ds in
  Alcotest.(check int) "partition"
    (Array.length ds.Workload.records)
    (Array.length suspicious + Array.length normal);
  Alcotest.(check int) "sensitive count agrees"
    (Workload.sensitive_count ds) (Array.length suspicious)

let test_workload_determinism () =
  let a = Workload.generate ~seed:33 ~scale:0.01 () in
  let b = Workload.generate ~seed:33 ~scale:0.01 () in
  Alcotest.(check int) "same record count" (Array.length a.Workload.records)
    (Array.length b.Workload.records);
  Array.iteri
    (fun i r ->
      Alcotest.(check string) "same content"
        (Packet.content_string r.Leakdetect_http.Trace.packet)
        (Packet.content_string b.Workload.records.(i).Leakdetect_http.Trace.packet))
    a.Workload.records

let test_workload_seed_changes_trace () =
  let a = Workload.generate ~seed:1 ~scale:0.01 () in
  let b = Workload.generate ~seed:2 ~scale:0.01 () in
  Alcotest.(check bool) "different devices" true
    (a.Workload.device.Device.imei <> b.Workload.device.Device.imei)

let test_workload_n_apps () =
  let ds = Workload.generate ~seed:3 ~scale:0.02 ~n_apps:100 () in
  Alcotest.(check int) "truncated population" 100 (Array.length ds.Workload.apps)

let test_workload_app_ids_valid () =
  let ds = Lazy.force small_dataset in
  Array.iter
    (fun r ->
      let id = r.Leakdetect_http.Trace.app_id in
      if id < 0 || id >= Array.length ds.Workload.apps then
        Alcotest.failf "app id out of range: %d" id)
    ds.Workload.records

let test_workload_sensitive_share () =
  (* At tiny scale the sensitive share runs higher than the full-trace 22%
     because module traffic has a per-module floor of one packet; just pin
     it to a sane band. *)
  let ds = Lazy.force small_dataset in
  let total, sens, _ = Trace_stats.totals ds in
  let share = float_of_int sens /. float_of_int total in
  Alcotest.(check bool) "share within band" true (share > 0.05 && share < 0.6)

(* --- Trace_stats --- *)

let test_stats_table1 () =
  let ds = Lazy.force small_dataset in
  let rows = Trace_stats.table1 ds in
  let total = List.fold_left (fun acc r -> acc + r.Trace_stats.count) 0 rows in
  Alcotest.(check int) "all apps counted" 1188 total;
  let top = List.hd rows in
  Alcotest.(check int) "largest row is I+PS" 329 top.Trace_stats.count

let test_stats_table2 () =
  let ds = Lazy.force small_dataset in
  let rows : Trace_stats.dest_row list = Trace_stats.table2 ds in
  let total_pkts =
    List.fold_left (fun acc (r : Trace_stats.dest_row) -> acc + r.Trace_stats.packets) 0 rows
  in
  Alcotest.(check int) "every packet attributed" (Array.length ds.Workload.records) total_pkts;
  List.iter
    (fun (r : Trace_stats.dest_row) ->
      Alcotest.(check bool) "apps positive" true (r.Trace_stats.apps > 0);
      Alcotest.(check bool) "apps bounded" true (r.Trace_stats.apps <= 1188))
    rows;
  let top = Trace_stats.table2_top ~n:5 ds in
  Alcotest.(check int) "top-n size" 5 (List.length top)

let test_stats_table3 () =
  let ds = Lazy.force small_dataset in
  let rows : Trace_stats.kind_row list = Trace_stats.table3 ds in
  Alcotest.(check int) "nine rows" 9 (List.length rows);
  List.iter
    (fun (r : Trace_stats.kind_row) ->
      if r.Trace_stats.packets > 0 then begin
        Alcotest.(check bool) "apps positive when packets exist" true (r.Trace_stats.apps > 0);
        Alcotest.(check bool) "dests positive when packets exist" true
          (r.Trace_stats.destinations > 0)
      end)
    rows;
  (* The headline kinds must actually occur. *)
  let packets_of kind =
    (List.find (fun r -> r.Trace_stats.kind = kind) rows).Trace_stats.packets
  in
  Alcotest.(check bool) "android id seen" true (packets_of Sensitive.Android_id > 0);
  Alcotest.(check bool) "android id md5 seen" true (packets_of Sensitive.Android_id_md5 > 0);
  Alcotest.(check bool) "imei seen" true (packets_of Sensitive.Imei > 0);
  Alcotest.(check bool) "carrier seen" true (packets_of Sensitive.Carrier > 0)

let test_stats_dangerous () =
  let ds = Lazy.force small_dataset in
  let d = Trace_stats.dangerous ds in
  (* 886 apps carry INTERNET plus a sensitive permission by construction of
     Table I (329 + 153 + 148 + 23 + 233). *)
  Alcotest.(check int) "dangerous combination count" 886 d.Trace_stats.dangerous_apps;
  Alcotest.(check bool) "some apps leak" true (d.Trace_stats.leaking_apps > 0);
  Alcotest.(check bool) "permission auditing misses some leakers" true
    (d.Trace_stats.leaking_without_dangerous > 0);
  Alcotest.(check bool) "leakers bounded by population" true
    (d.Trace_stats.leaking_apps <= 1188)

let test_stats_figure2 () =
  let ds = Lazy.force small_dataset in
  let f2 = Trace_stats.figure2 ds in
  Alcotest.(check bool) "apps with traffic" true (f2.Trace_stats.total_apps > 1000);
  Alcotest.(check bool) "mean in plausible band" true
    (f2.Trace_stats.mean > 4. && f2.Trace_stats.mean < 12.);
  Alcotest.(check bool) "max below cap" true (f2.Trace_stats.max <= 84);
  Alcotest.(check bool) "cdf monotone" true
    (f2.Trace_stats.one_destination <= f2.Trace_stats.within_10
    && f2.Trace_stats.within_10 <= f2.Trace_stats.within_16)

let suite =
  [
    ( "android.device",
      [
        Alcotest.test_case "identifier formats" `Quick test_device_formats;
        Alcotest.test_case "kind values" `Quick test_device_values;
        Alcotest.test_case "needles complete" `Quick test_device_needles_complete;
        Alcotest.test_case "determinism" `Quick test_device_determinism;
      ] );
    ( "android.permissions",
      [
        Alcotest.test_case "table1 rows" `Quick test_table1_rows;
        Alcotest.test_case "population exact" `Quick test_population_exact;
        Alcotest.test_case "dangerous combos" `Quick test_dangerous;
        Alcotest.test_case "allows_kind" `Quick test_allows_kind;
        Alcotest.test_case "pattern" `Quick test_pattern;
      ] );
    ( "android.ad_module",
      [
        Alcotest.test_case "catalog invariants" `Quick test_catalog_invariants;
        Alcotest.test_case "covers Table II services" `Quick test_catalog_covers_table2;
        Alcotest.test_case "host ip in block" `Quick test_host_ip_in_block;
        Alcotest.test_case "render basic" `Quick test_render_basic;
        Alcotest.test_case "sticky host" `Quick test_render_sticky_host;
        Alcotest.test_case "respects permissions" `Quick test_render_respects_permissions;
        Alcotest.test_case "rate-zero module stays clean" `Quick test_render_sensitive_rate_extremes;
        Alcotest.test_case "POST bodies" `Quick test_render_post_body;
      ] );
    ( "android.workload",
      [
        Alcotest.test_case "app count" `Quick test_workload_app_count;
        Alcotest.test_case "labels consistent" `Quick test_workload_labels_consistent;
        Alcotest.test_case "split partition" `Quick test_workload_split_partition;
        Alcotest.test_case "determinism" `Quick test_workload_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_workload_seed_changes_trace;
        Alcotest.test_case "n_apps" `Quick test_workload_n_apps;
        Alcotest.test_case "app ids valid" `Quick test_workload_app_ids_valid;
        Alcotest.test_case "sensitive share" `Quick test_workload_sensitive_share;
      ] );
    ( "android.trace_stats",
      [
        Alcotest.test_case "table1" `Quick test_stats_table1;
        Alcotest.test_case "table2" `Quick test_stats_table2;
        Alcotest.test_case "table3" `Quick test_stats_table3;
        Alcotest.test_case "dangerous combinations" `Quick test_stats_dangerous;
        Alcotest.test_case "figure2" `Quick test_stats_figure2;
      ] );
  ]

let _ = qtest
