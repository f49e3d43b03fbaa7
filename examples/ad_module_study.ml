(* Advertisement-module study: the Sec. III analysis of the paper.

     dune exec examples/ad_module_study.exe

   Generates a full-population trace (at reduced per-app traffic), then
   answers the questions of Sec. III: which services receive the most
   traffic, which identifier kinds flow to which destinations, and what a
   leaking request actually looks like on the wire. *)

module Workload = Leakdetect_android.Workload
module Trace_stats = Leakdetect_android.Trace_stats
module Device = Leakdetect_android.Device
module Sensitive = Leakdetect_core.Sensitive
module Payload_check = Leakdetect_core.Payload_check
module Packet = Leakdetect_http.Packet
module Trace = Leakdetect_http.Trace
module Domain = Leakdetect_net.Domain
module Table = Leakdetect_util.Table

let () =
  let ds = Workload.generate ~seed:2013 ~scale:0.25 () in
  let total, sens, _ = Trace_stats.totals ds in
  Printf.printf "corpus: %d apps, %d packets, %d (%.0f%%) carrying sensitive information\n\n"
    (Array.length ds.Workload.apps) total sens
    (100. *. float_of_int sens /. float_of_int total);

  (* Who gets the traffic? (Table II view) *)
  print_string
    (Table.render ~title:"Top 12 destination services"
       ~columns:
         [ ("service", Table.Left); ("packets", Table.Right); ("apps", Table.Right) ]
       (List.map
          (fun (r : Trace_stats.dest_row) ->
            [ r.Trace_stats.domain; string_of_int r.Trace_stats.packets;
              string_of_int r.Trace_stats.apps ])
          (Trace_stats.table2_top ~n:12 ds)));

  (* Which identifiers leak, and how far do they spread? (Table III view) *)
  print_newline ();
  print_string
    (Table.render ~title:"Sensitive information kinds on the wire"
       ~columns:
         [ ("kind", Table.Left); ("packets", Table.Right); ("apps", Table.Right);
           ("destinations", Table.Right) ]
       (List.map
          (fun (r : Trace_stats.kind_row) ->
            [ Sensitive.paper_name r.Trace_stats.kind;
              string_of_int r.Trace_stats.packets;
              string_of_int r.Trace_stats.apps;
              string_of_int r.Trace_stats.destinations ])
          (Trace_stats.table3 ds)));

  (* Per-service leak profile: which kinds does each ad service collect?
     This reproduces the associations the paper calls out in Sec. III-B
     ("ad-maker.info ... expect IMEI and Android ID", etc). *)
  print_newline ();
  let profile = Hashtbl.create 32 in
  Array.iter
    (fun (r : Trace.record) ->
      let domain = Domain.registrable r.Trace.packet.Packet.dst.Packet.host in
      let kinds = Workload.labels_of_record r in
      if kinds <> [] then begin
        let current =
          Option.value ~default:Sensitive.Set.empty (Hashtbl.find_opt profile domain)
        in
        Hashtbl.replace profile domain
          (List.fold_left (fun acc k -> Sensitive.Set.add k acc) current kinds)
      end)
    ds.Workload.records;
  let rows =
    Hashtbl.fold (fun domain kinds acc -> (domain, kinds) :: acc) profile []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.filter (fun (_, kinds) -> not (Sensitive.Set.is_empty kinds))
    |> List.filteri (fun i _ -> i < 18)
    |> List.map (fun (domain, kinds) ->
           [ domain;
             String.concat ", "
               (List.map Sensitive.to_string (Sensitive.Set.elements kinds)) ])
  in
  print_string
    (Table.render ~title:"Leak profile per destination service"
       ~columns:[ ("service", Table.Left); ("identifier kinds received", Table.Left) ]
       rows);

  (* Finally, show one leaking request byte-for-byte. *)
  print_newline ();
  let device = ds.Workload.device in
  Printf.printf "the device under test: IMEI=%s  Android ID=%s  carrier=%s\n\n"
    device.Device.imei device.Device.android_id device.Device.carrier;
  let leaking =
    Array.to_list ds.Workload.records
    |> List.find (fun (r : Trace.record) ->
           List.mem Sensitive.Imei (Workload.labels_of_record r))
  in
  Printf.printf "an actual leaking request (to %s):\n"
    leaking.Trace.packet.Packet.dst.Packet.host;
  let c = leaking.Trace.packet.Packet.content in
  Printf.printf "  %s\n" c.Packet.request_line;
  if c.Packet.cookie <> "" then Printf.printf "  Cookie: %s\n" c.Packet.cookie;
  if c.Packet.body <> "" then Printf.printf "  body: %s\n" c.Packet.body;
  let kinds = Payload_check.scan ds.Workload.payload_check leaking.Trace.packet in
  Printf.printf "  -> payload check flags: %s\n"
    (String.concat ", " (List.map Sensitive.paper_name kinds))
