(* The benchmark runner: one workload per invocation, at jobs=1.

   ledger.exe run --workload W [--seed S] [--seconds T] [--trace 0|1]
                  [--smoke] [--out FILE]
     Runs workload W on inputs made from seed S (default 42), measuring
     for about T seconds (default 20).  --trace 1 is the separate traced
     run that reports the per-layer metrics.  The last line of standard
     output is one JSON object: correct, attempted, failed and metrics
     (name -> value and unit).  --out also writes that object with the
     run's parameters and output digest, for [compare].
   ledger.exe compare --benchmark BENCHMARK.json --base DIR --new DIR
     Compares two sets of --out files; exits 1 on a regression.
   ledger.exe smoke --benchmark BENCHMARK.json
     Runs every workload at smoke size, untraced and traced, and checks
     each result against BENCHMARK.json. *)

module Json = Leakdetect_util.Json
module Crc32 = Leakdetect_util.Crc32
module Pool = Leakdetect_parallel.Pool
module Clustering = Leakdetect_core.Clustering
module Sketch = Leakdetect_sketch.Sketch

let workloads ~smoke =
  let pick full small = if smoke then small else full in
  [ ( "sign_exact",
      Sign.run ~backend:Clustering.Exact
        ~size:
          (pick
             { Sign.scale = 0.25; n = 300; inputs = 3 }
             { Sign.scale = 0.02; n = 40; inputs = 2 }) );
    ( "sign_sketch",
      (* The bucket cap scales with N (48/256 ~ 300/1,600; 24 for the
         smoke size's 120), so that the largest LSH component exceeds it
         and refinement runs, as it does under the default cap at
         N=1,000, with jobs short enough to average a run over sixteen
         traces. *)
      Sign.run
        ~backend:(Clustering.Sketch { Sketch.default with Sketch.max_bucket = pick 48 24 })
        ~size:
          (pick
             { Sign.scale = 0.25; n = 300; inputs = 16 }
             { Sign.scale = 0.02; n = 120; inputs = 2 }) );
    ( "monitor_evasive",
      Monitor.run
        ~size:
          (pick
             { Monitor.scale = 0.1; n = 120; inputs = 6 }
             { Monitor.scale = 0.02; n = 40; inputs = 2 }) );
    ( "distrib_history",
      Distrib.run
        ~size:
          (pick
             { Distrib.versions = 1000; clients = 64; per_round = 4 }
             { Distrib.versions = 100; clients = 16; per_round = 4 }) ) ]

let die fmt = Printf.ksprintf (fun msg -> prerr_endline ("ledger: " ^ msg); exit 2) fmt

(* The declared metric set for the run, in table order.  A metric the
   workload does not measure reads 0 (idle layer); one it measures but the
   table lacks is a programming error. *)
let result_metrics ~traced (o : Outcome.t) =
  let table = if traced then Outcome.per_layer else Outcome.end_to_end in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name table) then die "workload reported undeclared metric %s" name)
    o.Outcome.metrics;
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name o.Outcome.metrics with
      | Some v -> (name, v, unit)
      | None when traced -> (name, 0., unit)
      | None -> die "workload did not report %s" name)
    table

let result_json (o : Outcome.t) metrics =
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  Json.Obj
    [ ("correct", Json.Bool (o.Outcome.correct && finite));
      ("attempted", Json.Int o.Outcome.attempted); ("failed", Json.Int o.Outcome.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, v, unit) ->
               (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
             metrics) ) ]

let run_workload ~name ~smoke ~seed ~seconds ~traced =
  match List.assoc_opt name (workloads ~smoke) with
  | None ->
    die "unknown workload %S (one of: %s)" name
      (String.concat ", " (List.map fst (workloads ~smoke)))
  | Some run ->
    let speed = Speed.start ~sampling:(not traced) in
    let o = Fun.protect ~finally:Speed.stop (fun () -> run { Outcome.seed; seconds; traced; smoke; speed }) in
    (o, speed)

let cmd_run flags =
  let name = match Harness.flag flags "workload" with Some w -> w | None -> die "--workload is required" in
  let seed = Harness.int_flag flags "seed" ~default:42 in
  let seconds = Harness.int_flag flags "seconds" ~default:20 in
  let traced =
    match Harness.flag flags "trace" with
    | None | Some "0" -> false
    | Some "1" -> true
    | Some s -> die "--trace expects 0 or 1, got %S" s
  in
  let smoke = Harness.switch flags "smoke" in
  Printf.printf "ledger: %s seed %d, %ds, %s%s, jobs 1 (%d hardware domains recommended)\n%!" name
    seed seconds (if traced then "traced" else "untraced") (if smoke then ", smoke" else "")
    (Pool.recommended_jobs ());
  let o, speed = run_workload ~name ~smoke ~seed ~seconds:(float_of_int seconds) ~traced in
  let metrics = result_metrics ~traced o in
  List.iter (fun (n, v, u) -> Printf.printf "  %-40s %14.6g %s\n" n v u) metrics;
  Printf.printf "  output digest %s, %d of %d operations failed\n" (Crc32.to_hex o.Outcome.digest)
    o.Outcome.failed o.Outcome.attempted;
  let result = result_json o metrics in
  Option.iter
    (fun file ->
      let record =
        Json.Obj
          ([ ("workload", Json.String name); ("seed", Json.Int seed);
             ("seconds", Json.Int seconds); ("trace", Json.Int (if traced then 1 else 0));
             ("smoke", Json.Bool smoke); ("jobs", Json.Int 1);
             ("recommended_jobs", Json.Int (Pool.recommended_jobs ()));
             ("output_digest", Json.String (Crc32.to_hex o.Outcome.digest)) ]
          @ o.Outcome.notes
          @ (if Speed.passes speed = 0 then []
             else
               [ ("reference_passes", Json.Int (Speed.passes speed));
                 ("reference_us", Json.Float (Speed.reference_us speed));
                 ("nominal_us", Json.Float (Speed.nominal_ns /. 1e3)) ])
          @ [ ("result", result) ])
      in
      Out_channel.with_open_bin file (fun oc ->
          output_string oc (Json.to_string_pretty record);
          output_char oc '\n'))
    (Harness.flag flags "out");
  print_endline (Json.to_string result)

(* --- BENCHMARK.json --------------------------------------------------------- *)

type declared = { name : string; unit : string; better : string; bound : float option }

let declared_metrics bench key =
  match Harness.member key bench with
  | Some (Json.List items) ->
    List.map
      (fun item ->
        let str k = match Harness.member k item with Some (Json.String s) -> s | _ -> "" in
        { name = str "name"; unit = str "unit"; better = str "better";
          bound = Option.bind (Harness.member "bound" item) Harness.to_number })
      items
  | _ -> []

let declared_workloads bench =
  match Harness.member "workloads" bench with
  | Some (Json.List items) ->
    List.filter_map
      (fun w -> match Harness.member "name" w with Some (Json.String s) -> Some s | _ -> None)
      items
  | _ -> []

let read_benchmark flags =
  let file = Option.value (Harness.flag flags "benchmark") ~default:"BENCHMARK.json" in
  match Harness.read_json file with Ok b -> b | Error e -> die "%s" e

(* --- compare ------------------------------------------------------------------ *)

type run_file = {
  workload : string;
  seed : int;
  traced : bool;
  digest : string;
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let read_runs dir =
  let files =
    match Sys.readdir dir with
    | entries -> List.sort compare (Array.to_list entries)
    | exception Sys_error e -> die "%s" e
  in
  List.filter_map
    (fun f ->
      if not (Filename.check_suffix f ".json") then None
      else
        let path = Filename.concat dir f in
        match Harness.read_json path with
        | Error e -> die "%s" e
        | Ok j ->
          let get k = Harness.member k j in
          let result = Option.value (get "result") ~default:Json.Null in
          let int_of = function Some (Json.Int i) -> i | _ -> die "%s: malformed run file" path in
          let values =
            match Harness.member "metrics" result with
            | Some (Json.Obj ms) ->
              List.filter_map
                (fun (k, m) ->
                  Option.map (fun v -> (k, v))
                    (Option.bind (Harness.member "value" m) Harness.to_number))
                ms
            | _ -> []
          in
          Some
            { workload = (match get "workload" with Some (Json.String s) -> s | _ -> "?");
              seed = int_of (get "seed"); traced = int_of (get "trace") = 1;
              digest = (match get "output_digest" with Some (Json.String s) -> s | _ -> "");
              correct = Harness.member "correct" result = Some (Json.Bool true);
              attempted = int_of (Harness.member "attempted" result);
              failed = int_of (Harness.member "failed" result); values })
    files

let spread xs =
  let q1, m, q3 = Harness.quartiles xs in
  if m = 0. then if q3 = q1 then 0. else infinity else (q3 -. q1) /. Float.abs m

(* Better, worse, unchanged or unresolved, per the benchmark's bound: a
   spread wider than the bound leaves the verdict unresolved unless every
   run of one side beats every run of the other. *)
let verdict ~better ~bound base news =
  let lower = better = "lower" in
  let mb = Harness.median base and mn = Harness.median news in
  let worse_by =
    if mb = 0. then if mn = mb then 0. else if (mn > mb) = lower then infinity else neg_infinity
    else (if lower then mn -. mb else mb -. mn) /. Float.abs mb
  in
  let beats a b =
    if lower then Array.fold_left Float.max neg_infinity a < Array.fold_left Float.min infinity b
    else Array.fold_left Float.min infinity a > Array.fold_left Float.max neg_infinity b
  in
  if Float.max (spread base) (spread news) > bound then
    if beats news base then "better"
    else if beats base news && worse_by > bound then "worse"
    else "unresolved"
  else if worse_by > bound then "worse"
  else if worse_by < -.bound then "better"
  else "unchanged"

let cmd_compare flags =
  let bench = read_benchmark flags in
  let dir k = match Harness.flag flags k with Some d -> d | None -> die "--%s DIR is required" k in
  let base = read_runs (dir "base") and news = read_runs (dir "new") in
  let regressions = ref 0 in
  let describe xs =
    let q1, m, q3 = Harness.quartiles xs in
    Printf.sprintf "%12.5g [%10.5g %10.5g]" m q1 q3
  in
  let section ~traced metrics =
    List.iter
      (fun w ->
        let pick runs = List.filter (fun r -> r.workload = w && r.traced = traced) runs in
        let b = pick base and n = pick news in
        if b <> [] && n <> [] then begin
          let share runs =
            let a = List.fold_left (fun acc r -> acc + r.attempted) 0 runs
            and f = List.fold_left (fun acc r -> acc + r.failed) 0 runs in
            Printf.sprintf "%d/%d failed%s" f a
              (if List.for_all (fun r -> r.correct) runs then "" else ", INCORRECT")
          in
          Printf.printf "\n%s%s (%d base runs: %s; %d new runs: %s)\n" w
            (if traced then " traced" else "") (List.length b) (share b) (List.length n) (share n);
          if List.exists (fun r -> r.failed > 0 || not r.correct) n then incr regressions;
          List.iter
            (fun m ->
              let values runs =
                Array.of_list (List.filter_map (fun r -> List.assoc_opt m.name r.values) runs)
              in
              let vb = values b and vn = values n in
              if Array.length vb > 0 && Array.length vn > 0 then begin
                let v =
                  match m.bound with
                  | Some bound -> verdict ~better:m.better ~bound vb vn
                  | None -> "-"
                in
                if v = "worse" then incr regressions;
                Printf.printf "  %-38s %-7s %s  %s  %s\n" m.name m.unit (describe vb) (describe vn) v
              end)
            metrics
        end)
      (declared_workloads bench)
  in
  Printf.printf "  %-38s %-7s %-36s  %-36s  %s\n" "metric" "unit" "base: median [q1 q3]"
    "new: median [q1 q3]" "verdict";
  section ~traced:false (declared_metrics bench "end_to_end");
  section ~traced:true (declared_metrics bench "per_layer");
  (* Outputs must be identical at one seed, within and across the sides. *)
  let mismatches = ref 0 in
  let runs = base @ news in
  List.iter
    (fun (w, seed) ->
      let digests =
        List.sort_uniq compare
          (List.filter_map
             (fun r -> if r.workload = w && r.seed = seed then Some r.digest else None)
             runs)
      in
      if List.length digests > 1 then begin
        incr mismatches;
        Printf.printf "output digest mismatch: %s seed %d: %s\n" w seed (String.concat " vs " digests)
      end)
    (List.sort_uniq compare (List.map (fun r -> (r.workload, r.seed)) runs));
  regressions := !regressions + !mismatches;
  Printf.printf "\n%s\n" (if !regressions = 0 then "no regression" else "REGRESSION");
  if !regressions > 0 then exit 1

(* --- smoke ---------------------------------------------------------------------- *)

let cmd_smoke flags =
  let bench = read_benchmark flags in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let same_table key table =
    let declared = List.map (fun m -> (m.name, m.unit)) (declared_metrics bench key) in
    if List.sort compare declared <> List.sort compare table then
      problem "BENCHMARK.json %s does not match the runner's metric table" key
  in
  same_table "end_to_end" Outcome.end_to_end;
  same_table "per_layer" Outcome.per_layer;
  if List.sort compare (declared_workloads bench)
     <> List.sort compare (List.map fst (workloads ~smoke:true))
  then problem "BENCHMARK.json workloads do not match the runner's";
  List.iter
    (fun name ->
      List.iter
        (fun traced ->
          let label = Printf.sprintf "%s%s" name (if traced then " traced" else "") in
          match run_workload ~name ~smoke:true ~seed:42 ~seconds:0. ~traced with
          | exception e -> problem "%s raised %s" label (Printexc.to_string e)
          | o, _ ->
            let metrics = result_metrics ~traced o in
            if not o.Outcome.correct then problem "%s: incorrect output" label;
            if o.Outcome.failed > 0 then problem "%s: %d failed operations" label o.Outcome.failed;
            List.iter
              (fun (m, v, _) -> if not (Float.is_finite v) then problem "%s: %s is not finite" label m)
              metrics;
            if traced then
              match List.find_opt (fun (m, _, _) -> m = "trace.unaccounted_pct") metrics with
              | Some (_, v, _) when v <= 5. -> ()
              | Some (_, v, _) -> problem "%s: stages leave %.2f%% of the wall clock unaccounted" label v
              | None -> problem "%s: no trace.unaccounted_pct" label)
        [ false; true ])
    (declared_workloads bench);
  match List.rev !problems with
  | [] -> print_endline "ledger smoke: every workload ran clean, untraced and traced"
  | ps ->
    List.iter (fun p -> prerr_endline ("ledger smoke FAILED: " ^ p)) ps;
    exit 1

let () =
  (* Unwind on SIGTERM/SIGINT so that scratch directories are removed. *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> failwith "interrupted")))
    [ Sys.sigterm; Sys.sigint ];
  match Array.to_list Sys.argv with
  | _ :: command :: args -> (
    let switches = if command = "run" then [ "smoke" ] else [] in
    match Harness.parse_flags ~switches args with
    | Error e -> die "%s" e
    | Ok flags -> (
      match command with
      | "run" -> cmd_run flags
      | "compare" -> cmd_compare flags
      | "smoke" -> cmd_smoke flags
      | c -> die "unknown command %S (run, compare or smoke)" c))
  | _ -> die "usage: ledger.exe (run|compare|smoke) [flags]"
