(* Reference set-publish diff: the original [Authority.diff_changes],
   which looks each desired member up in the tree and then folds the
   tree a second time for the retires.  Kept as the differential-test
   oracle for the one-walk merge; only its output matters here. *)

module Signature = Leakdetect_core.Signature
module Changelog = Leakdetect_distrib.Changelog
module Sigset = Leakdetect_distrib.Sigset

let diff_changes current desired =
  let id (s : Signature.t) = s.Signature.id in
  let rec ascending = function
    | a :: (b :: _ as rest) -> id a < id b && ascending rest
    | _ -> true
  in
  let rec last_per_id = function
    | a :: (b :: _ as rest) when id a = id b -> last_per_id rest
    | a :: rest -> a :: last_per_id rest
    | [] -> []
  in
  let want =
    if ascending desired then desired
    else last_per_id (List.stable_sort (fun a b -> compare (id a) (id b)) desired)
  in
  let adds =
    List.filter_map
      (fun s ->
        match Sigset.find (id s) current with
        | Some old when old == s || old = s -> None
        | _ -> Some (Changelog.Add s))
      want
  in
  let rest = ref want in
  let retires =
    Sigset.fold
      (fun s acc ->
        let rec skip = function
          | x :: more when id x < id s -> skip more
          | l -> l
        in
        rest := skip !rest;
        match !rest with
        | x :: _ when id x = id s -> acc
        | _ -> Changelog.Retire (id s) :: acc)
      current []
    |> List.rev
  in
  adds @ retires
