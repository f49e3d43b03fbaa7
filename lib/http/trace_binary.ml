let magic = "LDTB"
let version = 1

let add_u16 buf v =
  Buffer.add_char buf (Char.chr (v land 0xff));
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff))

let add_u32 buf v =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let add_str buf s =
  add_u32 buf (String.length s);
  Buffer.add_string buf s

let encode records =
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  add_u32 buf (List.length records);
  List.iter
    (fun (r : Trace.record) ->
      let { Packet.dst; content } = r.Trace.packet in
      add_u32 buf r.Trace.app_id;
      add_u32 buf (Leakdetect_net.Ipv4.to_int dst.Packet.ip);
      add_u16 buf dst.Packet.port;
      add_str buf dst.Packet.host;
      add_str buf content.Packet.request_line;
      add_str buf content.Packet.cookie;
      add_str buf content.Packet.body;
      add_u16 buf (List.length r.Trace.labels);
      List.iter (add_str buf) r.Trace.labels)
    records;
  Buffer.contents buf

exception Corrupt of string

let decode ?(on_error = `Fail) data =
  let pos = ref 0 in
  let remaining () = String.length data - !pos in
  let need n what = if remaining () < n then raise (Corrupt ("truncated " ^ what)) in
  let u8 what =
    need 1 what;
    let v = Char.code data.[!pos] in
    incr pos;
    v
  in
  let u16 what =
    let lo = u8 what in
    let hi = u8 what in
    lo lor (hi lsl 8)
  in
  let u32 what =
    let a = u16 what in
    let b = u16 what in
    a lor (b lsl 16)
  in
  let str what =
    let len = u32 what in
    need len what;
    let s = String.sub data !pos len in
    pos := !pos + len;
    s
  in
  try
    need 4 "magic";
    if String.sub data 0 4 <> magic then raise (Corrupt "bad magic");
    pos := 4;
    let v = u8 "version" in
    if v <> version then raise (Corrupt (Printf.sprintf "unsupported version %d" v));
    let count = u32 "record count" in
    let records = ref [] in
    let decoded = ref 0 in
    let skips = ref Trace.no_skips in
    (try
       for _ = 1 to count do
         let app_id = u32 "app id" in
         let ip_raw = u32 "ip" in
         let ip =
           try Leakdetect_net.Ipv4.of_int ip_raw
           with Invalid_argument _ -> raise (Corrupt "bad ip")
         in
         let port = u16 "port" in
         let host = str "host" in
         let request_line = str "request line" in
         let cookie = str "cookie" in
         let body = str "body" in
         let n_labels = u16 "label count" in
         let labels = List.init n_labels (fun _ -> str "label") in
         records :=
           {
             Trace.packet = Packet.v ~ip ~port ~host ~request_line ~cookie ~body;
             app_id;
             labels;
           }
           :: !records;
         incr decoded
       done;
       if remaining () <> 0 then raise (Corrupt "trailing bytes")
     with Corrupt m -> (
       match on_error with
       | `Fail -> raise (Corrupt m)
       | `Skip ->
         (* A length-prefixed stream cannot resync past a corrupt record:
            salvage what decoded cleanly, count the rest as skipped. *)
         let lost = max 1 (count - !decoded) in
         skips :=
           {
             Trace.skipped = lost;
             sample = [ (!decoded + 1, m ^ "; stream desynced, remainder skipped") ];
           }));
    Ok (List.rev !records, !skips)
  with Corrupt m -> Error m

let save path records =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (encode records))

let load ?on_error path =
  Trace.read_file ~open_:open_in_bin path (fun ic ->
      decode ?on_error (really_input_string ic (in_channel_length ic)))
