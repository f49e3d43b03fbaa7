module Prng = Leakdetect_util.Prng
module Sensitive = Leakdetect_core.Sensitive
module Ipv4 = Leakdetect_net.Ipv4
module Url = Leakdetect_net.Url
module Http = Leakdetect_http

type value_spec =
  | Sens of Sensitive.kind
  | Opt_sens of Sensitive.kind * float
  | Random_hex of int
  | Random_digits of int
  | Fixed of string
  | App_package
  | Seq
  | Model
  | Screen
  | Locale

type meth = Get | Post

type family = {
  name : string;
  hosts : string array;
  ip_octets : int * int;
  port : int;
  paths : string array;
  meth : meth;
  ad_params : (string * value_spec) list;
  ad_variants : (float * (string * value_spec) list) list;
  beacon_params : (string * value_spec) list;
  cookie_params : (string * value_spec) list;
  sensitive_rate : float;
  target_apps : int;
  packets_per_app : float;
  needs_phone_state : bool;
}

let ad ?(hosts = [||]) ?(port = 80) ?(paths = [| "/ad" |]) ?(meth = Get)
    ?(ad_params = []) ?(ad_variants = []) ?(beacon_params = []) ?(cookie_params = [])
    ?(sensitive_rate = 0.8) ?(needs_phone_state = false) ~ip ~apps
    ~ppa name =
  {
    name;
    hosts = (if Array.length hosts = 0 then [| "www." ^ name |] else hosts);
    ip_octets = ip;
    port;
    paths;
    meth;
    ad_params;
    ad_variants;
    beacon_params;
    cookie_params;
    sensitive_rate;
    target_apps = apps;
    packets_per_app = ppa;
    needs_phone_state;
  }

(* The catalog.  [apps] and [ppa] come from Table II (#Apps and
   #Packets / #Apps); sensitive parameters follow the associations named in
   Sec. III-B; [sensitive_rate] is tuned so the whole-trace sensitive-packet
   share approaches the paper's 22%. *)
let catalog =
  [
    (* --- Google ad stack: MD5 of the Android ID. --- *)
    ad "doubleclick.net" ~ip:(173, 194) ~apps:407 ~ppa:14.2
      ~hosts:
        [| "ad.doubleclick.net"; "googleads.g.doubleclick.net";
           "googleads2.g.doubleclick.net"; "ad-apac.doubleclick.net" |]
      ~paths:[| "/mads/gma"; "/pagead/ads" |]
      ~sensitive_rate:0.95
      ~ad_params:
        [
          ("preqs", Fixed "0"); ("u_sd", Fixed "1.5"); ("u_w", Fixed "320");
          ("u_h", Fixed "480"); ("hl", Locale); ("submodel", Model);
          ("udid", Sens Sensitive.Android_id_md5); ("format", Fixed "html");
          ("output", Fixed "html"); ("region", Fixed "mobile_app");
          ("u_tz", Fixed "540"); ("client_sdk", Fixed "1");
          ("app_name", App_package); ("seq_num", Seq); ("eid", Random_digits 8);
        ]
      ~beacon_params:
        [
          ("gads", Fixed "creative"); ("format", Fixed "html");
          ("output", Fixed "html"); ("region", Fixed "mobile_app");
          ("slotname", Random_hex 10); ("u_w", Fixed "320"); ("u_h", Fixed "480");
        ];
    ad "admob.com" ~ip:(74, 125) ~apps:401 ~ppa:3.2
      ~hosts:[| "r.admob.com"; "mm.admob.com"; "analytics.admob.com" |]
      ~paths:[| "/ad_source.php"; "/imp" |]
      ~sensitive_rate:0.95
      ~ad_params:
        [
          ("rt", Fixed "0"); ("z", Random_digits 10); ("u", Sens Sensitive.Android_id_md5);
          ("d[coord]", Opt_sens (Sensitive.Carrier, 0.1)); ("f", Fixed "jsonp");
          ("v", Fixed "20110915-ANDROID-53e372"); ("s", Random_hex 40);
          ("i", Fixed "ja"); ("e", App_package); ("seq", Seq);
        ]
      ~beacon_params:
        [ ("rt", Fixed "2"); ("z", Random_digits 10); ("f", Fixed "jsonp");
          ("v", Fixed "20110915-ANDROID-53e372"); ("evt", Fixed "imp") ];
    ad "googlesyndication.com" ~ip:(74, 125) ~apps:244 ~ppa:3.8
      ~hosts:[| "pagead2.googlesyndication.com"; "pagead1.googlesyndication.com" |]
      ~paths:[| "/pagead/ads"; "/simgad" |]
      ~sensitive_rate:0.9
      ~ad_params:
        [
          ("client", Fixed "ca-mb-app-pub"); ("format", Fixed "320x50_mb");
          ("output", Fixed "html"); ("udid", Sens Sensitive.Android_id_md5);
          ("markup", Fixed "xhtml"); ("dt", Random_digits 13); ("app", App_package);
        ]
      ~beacon_params:
        [ ("client", Fixed "ca-mb-app-pub"); ("format", Fixed "320x50_mb");
          ("simid", Random_digits 12) ];
    (* --- Japanese ad networks: raw identifiers (Sec. III-B pairings). --- *)
    ad "ad-maker.info" ~ip:(203, 104) ~apps:195 ~ppa:17.4
      ~hosts:[| "r.ad-maker.info"; "img.ad-maker.info"; "cnt.ad-maker.info" |]
      ~paths:[| "/ad/sdk/img"; "/ad/sdk/click" |]
      ~sensitive_rate:0.95 ~needs_phone_state:true
      ~ad_params:
        [
          ("aid", App_package); ("imei", Sens Sensitive.Imei);
          ("andid", Sens Sensitive.Android_id); ("size", Fixed "320x50");
          ("os", Fixed "android"); ("osver", Fixed "2.3.4"); ("model", Model);
          ("t", Random_digits 13);
        ]
      ~beacon_params:
        [ ("aid", App_package); ("size", Fixed "320x50"); ("os", Fixed "android");
          ("creative", Random_hex 12) ];
    ad "mydas.mobi" ~ip:(216, 157) ~apps:164 ~ppa:2.0
      ~hosts:[| "androidsdk.ads.mydas.mobi" |]
      ~paths:[| "/getAd.php5" |]
      ~sensitive_rate:0.95 ~needs_phone_state:true
      ~ad_params:
        [
          ("apid", Random_digits 5); ("auid", Sens Sensitive.Imei);
          ("uuid", Sens Sensitive.Android_id); ("ua", Model);
          ("mmisdk", Fixed "4.5.1-12"); ("density", Fixed "1.5");
          ("hsht", Fixed "480"); ("hswd", Fixed "320");
        ]
      ~beacon_params:[ ("apid", Random_digits 5); ("evt", Fixed "fetch") ];
    ad "medibaad.com" ~ip:(125, 6) ~apps:49 ~ppa:23.7
      ~hosts:[| "sh.medibaad.com" |]
      ~paths:[| "/sh/ad" |]
      ~sensitive_rate:0.95 ~needs_phone_state:true
      ~ad_params:
        [
          ("sid", Random_digits 6); ("imei", Sens Sensitive.Imei);
          ("aid", Sens Sensitive.Android_id); ("c", Fixed "sp");
          ("ver", Fixed "1.2.0"); ("rnd", Random_digits 10);
        ]
      ~beacon_params:[ ("sid", Random_digits 6); ("c", Fixed "sp"); ("evt", Fixed "view") ];
    ad "adlantis.jp" ~ip:(219, 94) ~apps:98 ~ppa:2.4
      ~hosts:[| "sp.ad.adlantis.jp" |]
      ~paths:[| "/sp/load_app_ads" |]
      ~sensitive_rate:0.95 ~needs_phone_state:true
      ~ad_params:
        [
          ("publisher", Random_hex 16); ("udid", Sens Sensitive.Imei);
          ("android_id", Sens Sensitive.Android_id); ("format", Fixed "json");
          ("sdk", Fixed "2.2.1");
        ]
      ~beacon_params:[ ("publisher", Random_hex 16); ("format", Fixed "json") ];
    ad "adimg.net" ~ip:(210, 140) ~apps:72 ~ppa:4.4
      ~hosts:[| "img.adimg.net"; "ad.adimg.net" |]
      ~paths:[| "/adp/img"; "/adp/req" |]
      ~sensitive_rate:0.9
      ~ad_params:
        [
          ("zone", Random_digits 4); ("did", Sens Sensitive.Android_id);
          ("fmt", Fixed "banner"); ("sdkver", Fixed "1.8");
        ]
      ~beacon_params:[ ("zone", Random_digits 4); ("fmt", Fixed "banner") ];
    (* --- Hash-transmitting networks (Table III MD5/SHA1 rows). --- *)
    ad "flurry.com" ~ip:(74, 6) ~apps:119 ~ppa:2.8
      ~hosts:[| "data.flurry.com"; "ads.flurry.com" |]
      ~paths:[| "/aap.do" |] ~meth:Post ~sensitive_rate:0.9
      ~ad_params:
        [
          ("ak", Random_hex 20); ("pk", App_package);
          ("u", Sens Sensitive.Android_id_sha1); ("v", Fixed "FL_2.2");
          ("st", Random_digits 13); ("seq", Seq);
        ]
      ~beacon_params:[ ("ak", Random_hex 20); ("v", Fixed "FL_2.2"); ("hb", Fixed "1") ];
    ad "mobclix.com" ~ip:(204, 93) ~apps:48 ~ppa:5.4
      ~hosts:[| "ads.mobclix.com" |]
      ~paths:[| "/1/vc/20" |] ~sensitive_rate:0.8 ~needs_phone_state:true
      ~ad_params:
        [
          ("p", Fixed "android"); ("an", App_package);
          ("hwdid", Sens Sensitive.Imei_sha1); ("s", Random_hex 8);
          ("sz", Fixed "320x50");
        ]
      ~beacon_params:[ ("p", Fixed "android"); ("sz", Fixed "320x50"); ("ev", Fixed "cc") ];
    ad "adwhirl.com" ~ip:(184, 73) ~apps:102 ~ppa:5.4
      ~hosts:[| "met.adwhirl.com"; "mob.adwhirl.com" |]
      ~paths:[| "/exmet.php"; "/getInfo.php" |]
      ~sensitive_rate:0.95 ~needs_phone_state:true
      ~ad_params:
        [
          ("appid", Random_hex 32); ("nid", Random_hex 16);
          ("uuid", Sens Sensitive.Imei_sha1); ("type", Fixed "9");
          ("client", Fixed "2");
        ]
      ~beacon_params:[ ("appid", Random_hex 32); ("type", Fixed "16") ];
    ad "amoad.com" ~ip:(54, 248) ~apps:116 ~ppa:5.0
      ~hosts:[| "d.amoad.com" |]
      ~paths:[| "/ad/json" |] ~sensitive_rate:0.8 ~needs_phone_state:true
      ~ad_params:
        [
          ("sid", Random_hex 24); ("uid", Sens Sensitive.Imei_md5);
          ("lang", Locale); ("rot", Fixed "1"); ("n", Random_digits 8);
        ]
      ~beacon_params:[ ("sid", Random_hex 24); ("rot", Fixed "1"); ("imp", Fixed "1") ];
    ad "mediba.jp" ~ip:(125, 6) ~apps:48 ~ppa:8.9
      ~hosts:[| "adm.mediba.jp" |]
      ~paths:[| "/admp/load" |] ~sensitive_rate:0.6 ~needs_phone_state:true
      ~ad_params:
        [
          ("auid", Random_hex 12); ("ifa", Sens Sensitive.Imei_md5);
          ("w", Fixed "320"); ("h", Fixed "50"); ("cb", Random_digits 10);
        ]
      ~beacon_params:[ ("auid", Random_hex 12); ("w", Fixed "320"); ("h", Fixed "50") ];
    (* --- Carrier-reporting networks; mixed optional identifiers make the
       false-positive-prone clusters the paper discusses (Sec. VI). --- *)
    ad "nend.net" ~ip:(175, 41) ~apps:192 ~ppa:7.1
      ~hosts:[| "output.nend.net"; "img.nend.net" |]
      ~paths:[| "/na.php" |] ~sensitive_rate:0.6
      ~ad_variants:
        [
          ( 0.95,
            [
              ("apikey", Random_hex 32); ("spot", Random_digits 6);
              ("carrier", Sens Sensitive.Carrier); ("model", Model);
              ("os", Fixed "android"); ("sdkver", Fixed "nend300");
            ] );
          ( 0.05,
            [
              ("apikey", Random_hex 32); ("spot", Random_digits 6);
              ("gaid", Sens Sensitive.Android_id); ("model", Model);
              ("os", Fixed "android"); ("sdkver", Fixed "nend300");
            ] );
        ]
      ~beacon_params:
        [ ("apikey", Random_hex 32); ("spot", Random_digits 6); ("model", Model);
          ("os", Fixed "android"); ("sdkver", Fixed "nend300") ];
    ad "i-mobile.co.jp" ~ip:(210, 129) ~apps:100 ~ppa:37.3
      ~hosts:[| "spad.i-mobile.co.jp"; "spimg.i-mobile.co.jp"; "spv.i-mobile.co.jp" |]
      ~paths:[| "/ad/spot"; "/img/creative" |]
      ~sensitive_rate:0.45 ~needs_phone_state:true
      ~cookie_params:[ ("imsession", Random_hex 16) ]
      ~ad_variants:
        [
          ( 0.96,
            [
              ("pid", Random_digits 5); ("asid", Random_digits 6);
              ("carrier", Sens Sensitive.Carrier); ("w", Fixed "320");
              ("h", Fixed "50"); ("sdk", Fixed "im120"); ("cb", Random_digits 12);
            ] );
          ( 0.04,
            [
              ("pid", Random_digits 5); ("asid", Random_digits 6);
              ("dnum", Sens Sensitive.Imei); ("w", Fixed "320");
              ("h", Fixed "50"); ("sdk", Fixed "im120"); ("cb", Random_digits 12);
            ] );
        ]
      ~beacon_params:
        [ ("pid", Random_digits 5); ("asid", Random_digits 6); ("w", Fixed "320");
          ("h", Fixed "50"); ("sdk", Fixed "im120"); ("cb", Random_digits 12) ];
    ad "microad.jp" ~ip:(27, 110) ~apps:103 ~ppa:8.4
      ~hosts:[| "sender.microad.jp" |]
      ~paths:[| "/spotreq" |] ~sensitive_rate:0.5
      ~ad_params:
        [
          ("spot", Random_hex 24); ("carrier", Sens Sensitive.Carrier);
          ("aid", Sens Sensitive.Android_id); ("vsn", Fixed "1.3.2");
          ("url", App_package);
        ]
      ~beacon_params:
        [ ("spot", Random_hex 24); ("vsn", Fixed "1.3.2"); ("url", App_package) ];
    (* --- Services named only in the running text. --- *)
    ad "zqapk.com" ~ip:(61, 145) ~apps:13 ~ppa:23.0
      ~hosts:[| "stat.zqapk.com" |]
      ~paths:[| "/s/collect" |] ~meth:Post ~sensitive_rate:0.9
      ~needs_phone_state:true
      ~ad_params:
        [
          ("imei", Sens Sensitive.Imei); ("iccid", Sens Sensitive.Sim_serial);
          ("op", Sens Sensitive.Carrier); ("chan", Random_digits 4);
          ("sv", Fixed "3.1");
        ]
      ~beacon_params:[ ("chan", Random_digits 4); ("sv", Fixed "3.1") ];
    ad "cnsdk.net" ~ip:(114, 80) ~apps:16 ~ppa:41.0
      ~hosts:[| "c.cnsdk.net" |]
      ~paths:[| "/t/u.gif" |] ~sensitive_rate:0.9 ~needs_phone_state:true
      ~ad_params:
        [
          ("si", Sens Sensitive.Imsi); ("ei", Sens Sensitive.Imei);
          ("av", Fixed "1.0.7"); ("r", Random_digits 9);
        ]
      ~beacon_params:[ ("av", Fixed "1.0.7"); ("hb", Fixed "1") ];
    (* --- Analytics without device identifiers. --- *)
    ad "google-analytics.com" ~ip:(74, 125) ~apps:353 ~ppa:8.8
      ~hosts:[| "www.google-analytics.com"; "ssl.google-analytics.com" |]
      ~paths:[| "/__utm.gif" |] ~sensitive_rate:0.
      ~beacon_params:
        [
          ("utmwv", Fixed "4.8.1ma"); ("utmn", Random_digits 10);
          ("utme", Random_hex 8); ("utmcs", Fixed "UTF-8");
          ("utmsr", Screen); ("utmul", Locale); ("utmac", Fixed "UA-00000000-1");
          ("utmcc", Random_digits 12);
        ];
    (* --- Content / platform / CDN traffic (benign). --- *)
    ad "gstatic.com" ~ip:(74, 125) ~apps:333 ~ppa:4.2
      ~hosts:[| "t0.gstatic.com"; "csi.gstatic.com" |]
      ~paths:[| "/images"; "/csi" |] ~sensitive_rate:0.
      ~beacon_params:[ ("q", Random_hex 14); ("s", Fixed "static") ];
    ad "google.com" ~ip:(74, 125) ~apps:308 ~ppa:11.7
      ~hosts:[| "www.google.com"; "clients3.google.com" |]
      ~paths:[| "/m/search"; "/complete/search" |] ~sensitive_rate:0.
      ~beacon_params:[ ("q", Random_hex 9); ("hl", Locale); ("client", Fixed "ms-android") ];
    ad "yahoo.co.jp" ~ip:(183, 79) ~apps:287 ~ppa:6.1
      ~hosts:[| "search.yahoo.co.jp"; "image.search.yahoo.co.jp" |]
      ~paths:[| "/search"; "/images/top" |] ~sensitive_rate:0.
      ~beacon_params:[ ("p", Random_hex 8); ("ei", Fixed "UTF-8"); ("fr", Fixed "applp2") ];
    ad "ggpht.com" ~ip:(74, 125) ~apps:281 ~ppa:3.3
      ~hosts:[| "lh3.ggpht.com"; "lh5.ggpht.com" |]
      ~paths:[| "/photos" |] ~sensitive_rate:0.
      ~beacon_params:[ ("img", Random_hex 20); ("sz", Fixed "w124") ];
    ad "naver.jp" ~ip:(125, 209) ~apps:82 ~ppa:41.3
      ~hosts:[| "api.naver.jp"; "cache.naver.jp" |]
      ~paths:[| "/api/json"; "/cache/body" |] ~sensitive_rate:0.
      ~beacon_params:[ ("q", Random_hex 10); ("st", Fixed "100"); ("r_format", Fixed "json") ];
    ad "mbga.jp" ~ip:(202, 238) ~apps:63 ~ppa:16.6
      ~hosts:[| "sp.mbga.jp" |]
      ~paths:[| "/_grp_view"; "/_game_top" |] ~sensitive_rate:0.8
      ~cookie_params:[ ("sess", Random_hex 26) ]
      ~ad_params:
        [ ("gid", Random_digits 8); ("did", Sens Sensitive.Android_id_sha1);
          ("v", Fixed "sp1") ]
      ~beacon_params:[ ("gid", Random_digits 8); ("v", Fixed "sp1") ];
    ad "rakuten.co.jp" ~ip:(133, 237) ~apps:56 ~ppa:9.0
      ~hosts:[| "app.rakuten.co.jp"; "image.rakuten.co.jp" |]
      ~paths:[| "/api/item/search"; "/img" |] ~sensitive_rate:0.
      ~beacon_params:[ ("keyword", Random_hex 7); ("format", Fixed "json"); ("page", Random_digits 2) ];
    ad "fc2.com" ~ip:(208, 71) ~apps:52 ~ppa:3.1
      ~hosts:[| "blog.fc2.com" |]
      ~paths:[| "/feed" |] ~sensitive_rate:0.
      ~beacon_params:[ ("uid", Random_hex 6); ("mode", Fixed "rss") ];
    ad "gree.jp" ~ip:(210, 172) ~apps:45 ~ppa:5.1
      ~hosts:[| "os-sp.gree.jp" |]
      ~paths:[| "/api/rest" |] ~sensitive_rate:0.7
      ~cookie_params:[ ("grid", Random_hex 22) ]
      ~ad_params:
        [ ("app_id", Random_digits 5); ("uid", Sens Sensitive.Android_id);
          ("fmt", Fixed "json") ]
      ~beacon_params:[ ("app_id", Random_digits 5); ("fmt", Fixed "json") ];
  ]

(* Deterministic host -> address mapping inside the family's /16: hash the
   FQDN into the low 16 bits.  Stable across runs, distinct per host. *)
let host_ip family host =
  let h = Hashtbl.hash host land 0xffff in
  let a, b = family.ip_octets in
  Ipv4.of_octets a b ((h lsr 8) land 0xff) (max 1 (h land 0xff))

(* WHOIS organization per family: the Google properties share allocations
   and really are one registrant; likewise the mediba brands. *)
let organization family =
  match family.name with
  | "doubleclick.net" | "admob.com" | "googlesyndication.com" | "google.com"
  | "gstatic.com" | "ggpht.com" | "google-analytics.com" ->
    "Google Inc."
  | "mediba.jp" | "medibaad.com" -> "mediba Inc."
  | name -> name

let registry () =
  List.fold_left
    (fun acc f ->
      let a, b = f.ip_octets in
      Leakdetect_net.Registry.register acc ~org:(organization f)
        ~base:(Ipv4.of_octets a b 0 0) ~prefix:16)
    Leakdetect_net.Registry.empty catalog

type app_context = {
  package : string;
  permissions : Permissions.combo;
  counter : int ref;
}

let render_value rng device app spec =
  match spec with
  | Sens kind | Opt_sens (kind, _) -> Device.value device kind
  | Random_hex n ->
    String.init n (fun _ ->
        let v = Prng.int rng 16 in
        if v < 10 then Char.chr (Char.code '0' + v)
        else Char.chr (Char.code 'a' + v - 10))
  | Random_digits n -> String.init n (fun _ -> Char.chr (Char.code '0' + Prng.int rng 10))
  | Fixed s -> s
  | App_package -> app.package
  | Seq ->
    incr app.counter;
    string_of_int !(app.counter)
  | Model -> device.Device.model
  | Screen -> "320x480"
  | Locale -> "ja_JP"

(* Drop sensitive parameters the app cannot read, and optional ones that
   lose their coin flip. *)
let select_params rng app params =
  List.filter
    (fun (_, spec) ->
      match spec with
      | Sens kind -> Permissions.allows_kind app.permissions kind
      | Opt_sens (kind, p) ->
        Permissions.allows_kind app.permissions kind && Prng.chance rng p
      | _ -> true)
    params

let render ?host rng device app family =
  let is_ad_request =
    (family.ad_params <> [] || family.ad_variants <> [])
    && Prng.chance rng family.sensitive_rate
  in
  let form =
    if not is_ad_request then family.beacon_params
    else
      match family.ad_variants with
      | [] -> family.ad_params
      | variants ->
        let weights = Array.of_list (List.map fst variants) in
        snd (List.nth variants (Leakdetect_util.Sample.weighted_index rng weights))
  in
  let params = select_params rng app form in
  let query = Url.encode_query (List.map (fun (k, s) -> (k, render_value rng device app s)) params) in
  let host = match host with Some h -> h | None -> Prng.pick rng family.hosts in
  let path = Prng.pick rng family.paths in
  let headers =
    Http.Headers.of_list
      [
        ("Host", host);
        ("User-Agent",
         Printf.sprintf "Dalvik/1.4.0 (Linux; U; Android 2.3.4; %s Build/GRJ22)"
           device.Device.model);
        ("Connection", "Keep-Alive");
      ]
  in
  let headers =
    match family.cookie_params with
    | [] -> headers
    | items ->
      let cookie =
        Http.Cookie.to_string
          (List.map (fun (k, s) -> (k, render_value rng device app s)) items)
      in
      Http.Headers.add headers "Cookie" cookie
  in
  let request =
    match family.meth with
    | Get ->
      let target = if query = "" then path else path ^ "?" ^ query in
      Http.Request.make ~headers Http.Request.GET target
    | Post ->
      let headers =
        Http.Headers.add headers "Content-Type" "application/x-www-form-urlencoded"
      in
      Http.Request.make ~headers ~body:query Http.Request.POST path
  in
  let dst =
    { Http.Packet.ip = host_ip family host; port = family.port; host }
  in
  Http.Packet.make ~dst ~request
