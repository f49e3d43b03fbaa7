(* Helpers the tests share to drive live code. *)

(* [with_pool jobs f] runs [f (Some pool)] with a fresh pool of [jobs]
   domains — or [f None] when [jobs <= 1], spawning nothing — and shuts the
   pool down afterwards, exceptions included. *)
let with_pool ?obs jobs f =
  if jobs <= 1 then f None
  else begin
    let t = Leakdetect_parallel.Pool.create ?obs jobs in
    Fun.protect ~finally:(fun () -> Leakdetect_parallel.Pool.shutdown t) (fun () -> f (Some t))
  end

(* All fault rates zero: the identity plan. *)
let no_faults =
  {
    Leakdetect_fault.Fault.corrupt_rate = 0.;
    corrupt_bytes = 1;
    truncate_rate = 0.;
    drop_rate = 0.;
    duplicate_rate = 0.;
    delay_rate = 0.;
    max_delay = 0;
    server_error_rate = 0.;
    crash_rate = 0.;
    torn_write_rate = 0.;
  }

(* Faults fired so far by [plan], over every kind. *)
let fault_total plan =
  List.fold_left (fun acc (_, n) -> acc + n) 0 (Leakdetect_fault.Fault.summary plan)
