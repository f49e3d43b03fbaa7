module Http = Leakdetect_http
module Domain = Leakdetect_net.Domain
module Sensitive = Leakdetect_core.Sensitive

module Str_map = Map.Make (String)
module Int_set = Set.Make (Int)
module Str_set = Set.Make (String)

type dest_row = { domain : string; packets : int; apps : int }

let table2 (ds : Workload.dataset) =
  let acc =
    Array.fold_left
      (fun acc (r : Http.Trace.record) ->
        let domain = Domain.registrable r.packet.Http.Packet.dst.Http.Packet.host in
        Str_map.update domain
          (function
            | None -> Some (1, Int_set.singleton r.app_id)
            | Some (p, apps) -> Some (p + 1, Int_set.add r.app_id apps))
          acc)
      Str_map.empty ds.records
  in
  Str_map.bindings acc
  |> List.map (fun (domain, (packets, apps)) ->
         { domain; packets; apps = Int_set.cardinal apps })
  |> List.sort (fun a b ->
         match compare b.apps a.apps with 0 -> compare b.packets a.packets | c -> c)

let table2_top ?(n = 26) ds = List.filteri (fun i _ -> i < n) (table2 ds)

type kind_row = {
  kind : Sensitive.kind;
  packets : int;
  apps : int;
  destinations : int;
}

let table3 (ds : Workload.dataset) =
  List.map
    (fun kind ->
      let name = Sensitive.to_string kind in
      let packets = ref 0 and apps = ref Int_set.empty and dests = ref Str_set.empty in
      Array.iter
        (fun (r : Http.Trace.record) ->
          if List.mem name r.labels then begin
            incr packets;
            apps := Int_set.add r.app_id !apps;
            dests := Str_set.add r.packet.Http.Packet.dst.Http.Packet.host !dests
          end)
        ds.records;
      {
        kind;
        packets = !packets;
        apps = Int_set.cardinal !apps;
        destinations = Str_set.cardinal !dests;
      })
    Sensitive.all

type permission_row = { pattern : string; count : int }

let table1 (ds : Workload.dataset) =
  let acc =
    Array.fold_left
      (fun acc (app : App.t) ->
        let key = Permissions.pattern app.permissions in
        Str_map.update key (fun c -> Some (1 + Option.value ~default:0 c)) acc)
      Str_map.empty ds.apps
  in
  Str_map.bindings acc
  |> List.map (fun (pattern, count) -> { pattern; count })
  |> List.sort (fun a b -> compare b.count a.count)

let destinations_per_app (ds : Workload.dataset) =
  let per_app = Hashtbl.create (Array.length ds.apps) in
  Array.iter
    (fun (r : Http.Trace.record) ->
      let host = r.packet.Http.Packet.dst.Http.Packet.host in
      let current =
        Option.value ~default:Str_set.empty (Hashtbl.find_opt per_app r.app_id)
      in
      Hashtbl.replace per_app r.app_id (Str_set.add host current))
    ds.records;
  Hashtbl.fold (fun _ hosts acc -> Str_set.cardinal hosts :: acc) per_app []
  |> Array.of_list

type figure2_summary = {
  total_apps : int;
  one_destination : int;
  within_10 : int;
  within_16 : int;
  mean : float;
  max : int;
}

let figure2 ds =
  let counts = destinations_per_app ds in
  let count_le k = Array.fold_left (fun acc c -> if c <= k then acc + 1 else acc) 0 counts in
  {
    total_apps = Array.length counts;
    one_destination = count_le 1;
    within_10 = count_le 10;
    within_16 = count_le 16;
    mean = Leakdetect_util.Stats.mean_int counts;
    max = (if Array.length counts = 0 then 0 else Leakdetect_util.Stats.max_int_arr counts);
  }

let totals (ds : Workload.dataset) =
  let sensitive = Workload.sensitive_count ds in
  let total = Array.length ds.records in
  (total, sensitive, total - sensitive)

type dangerous_summary = {
  dangerous_apps : int;
  leaking_apps : int;
  leaking_without_dangerous : int;
}

let dangerous (ds : Workload.dataset) =
  let leakers = Hashtbl.create 256 in
  Array.iter
    (fun (r : Http.Trace.record) ->
      if r.labels <> [] then Hashtbl.replace leakers r.app_id ())
    ds.records;
  let dangerous_apps = ref 0 and leaking_without = ref 0 in
  Array.iter
    (fun (app : App.t) ->
      let d = Permissions.dangerous app.permissions in
      if d then incr dangerous_apps;
      if (not d) && Hashtbl.mem leakers app.App.id then incr leaking_without)
    ds.apps;
  {
    dangerous_apps = !dangerous_apps;
    leaking_apps = Hashtbl.length leakers;
    leaking_without_dangerous = !leaking_without;
  }
