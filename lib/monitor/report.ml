module Packet = Leakdetect_http.Packet

type app_summary = {
  app_id : int;
  packets : int;
  flagged : int;
  blocked : int;
  prompted : int;
  destinations : string list;
}

module Int_map = Map.Make (Int)
module Str_set = Set.Make (String)

type acc = {
  a_packets : int;
  a_flagged : int;
  a_blocked : int;
  a_prompted : int;
  a_dests : Str_set.t;
}

let empty_acc =
  { a_packets = 0; a_flagged = 0; a_blocked = 0; a_prompted = 0; a_dests = Str_set.empty }

let per_app monitor =
  let table =
    List.fold_left
      (fun acc (e : Flow_control.event) ->
        let current = Option.value ~default:empty_acc (Int_map.find_opt e.Flow_control.app_id acc) in
        let current = { current with a_packets = current.a_packets + 1 } in
        let current =
          match e.Flow_control.decision with
          | Flow_control.Allowed -> current
          | Flow_control.Blocked -> { current with a_blocked = current.a_blocked + 1 }
          | Flow_control.Prompted _ -> { current with a_prompted = current.a_prompted + 1 }
        in
        let current =
          match e.Flow_control.matched with
          | None -> current
          | Some _ ->
            {
              current with
              a_flagged = current.a_flagged + 1;
              a_dests =
                Str_set.add e.Flow_control.packet.Packet.dst.Packet.host current.a_dests;
            }
        in
        Int_map.add e.Flow_control.app_id current acc)
      Int_map.empty (Flow_control.log monitor)
  in
  Int_map.bindings table
  |> List.map (fun (app_id, a) ->
         {
           app_id;
           packets = a.a_packets;
           flagged = a.a_flagged;
           blocked = a.a_blocked;
           prompted = a.a_prompted;
           destinations = Str_set.elements a.a_dests;
         })
  |> List.sort (fun x y ->
         match compare y.flagged x.flagged with
         | 0 -> compare x.app_id y.app_id
         | c -> c)

let most_suspicious ?(limit = 20) monitor =
  List.filteri (fun i _ -> i < limit) (per_app monitor)

let render ?limit monitor =
  let rows =
    List.map
      (fun s ->
        [
          string_of_int s.app_id;
          string_of_int s.packets;
          string_of_int s.flagged;
          string_of_int s.prompted;
          string_of_int s.blocked;
          String.concat ", "
            (List.filteri (fun i _ -> i < 3) s.destinations
            @ if List.length s.destinations > 3 then [ "..." ] else []);
        ])
      (most_suspicious ?limit monitor)
  in
  Leakdetect_util.Table.render ~title:"Most suspicious applications"
    ~columns:
      [ ("app", Leakdetect_util.Table.Right); ("pkts", Leakdetect_util.Table.Right);
        ("flagged", Leakdetect_util.Table.Right); ("prompted", Leakdetect_util.Table.Right);
        ("blocked", Leakdetect_util.Table.Right); ("flagged destinations", Leakdetect_util.Table.Left) ]
    rows
