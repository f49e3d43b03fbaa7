(* Persistent domain pool.

   Worker domains block on [work_cond] between jobs.  A job is an
   immutable record holding the iteration space and two atomic counters:
   [next] hands out index ranges, [completed] counts indices that have been
   executed (or skipped after a failure).  Every participant — the workers
   and the submitting domain — runs the same claim loop, so a 1-worker
   pool still overlaps the caller with one domain and a stale worker that
   wakes up late finds the counter exhausted and goes straight back to
   sleep.  Determinism comes from ownership, not scheduling: the loop body
   may only write slots owned by its index, and claims hand out each index
   exactly once no matter how they interleave.

   Claiming is guided by default: each claim takes a range proportional to
   the work remaining ([remaining / (2 * jobs)], clamped to
   [chunk_floor, max_claim]), so early claims are large (few atomic
   operations) and late claims shrink toward the floor (load balance for
   bodies whose cost varies by index, e.g. triangular distance-matrix
   rows).  An explicit [?chunk] forces fixed-size claims instead. *)

type claim_mode = Fixed of int | Guided

type job = {
  n : int;
  mode : claim_mode;
  jobs : int;
  next : int Atomic.t;  (* next unclaimed index *)
  completed : int Atomic.t;  (* indices executed or skipped *)
  claims : int Atomic.t;  (* successful claim operations *)
  failed : bool Atomic.t;
  exn_slot : (exn * Printexc.raw_backtrace) option Atomic.t;
  (* Called at most once per participating domain, on its first claimed
     range; returns the range runner closed over that domain's scratch. *)
  make_body : unit -> int -> int -> unit;
}

module Obs = Leakdetect_obs.Obs

type t = {
  jobs : int;
  obs : Obs.t;
  lock : Mutex.t;
  work_cond : Condition.t;
  done_cond : Condition.t;
  mutable current : job option;
  mutable generation : int;
  mutable closing : bool;
  mutable workers : unit Domain.t array;
  busy : bool Atomic.t;  (* a submission is in flight *)
  mutable closed : bool;
}

(* Floor for a single claim.  Below this, the fetch-and-add (and the cache
   traffic it causes) costs more than the claimed work amortizes; tiny
   iteration spaces run sequentially instead of degrading to per-index
   claims. *)
let chunk_floor = 16

(* Ceiling for a single guided claim: bounds the tail latency a single
   straggler domain can add when per-index cost is skewed. *)
let max_claim = 4096

let claim job =
  let rec loop () =
    let lo = Atomic.get job.next in
    if lo >= job.n then None
    else begin
      let size =
        match job.mode with
        | Fixed c -> c
        | Guided ->
          min max_claim (max chunk_floor ((job.n - lo) / (2 * job.jobs)))
      in
      let hi = min job.n (lo + size) in
      if Atomic.compare_and_set job.next lo hi then begin
        Atomic.incr job.claims;
        Some (lo, hi)
      end
      else loop ()
    end
  in
  loop ()

let drain job =
  let body = ref None in
  let rec loop () =
    match claim job with
    | None -> ()
    | Some (lo, hi) ->
      if not (Atomic.get job.failed) then begin
        (try
           let run =
             match !body with
             | Some f -> f
             | None ->
               let f = job.make_body () in
               body := Some f;
               f
           in
           run lo hi
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           (* First failure wins; later claims are taken but skipped. *)
           if Atomic.compare_and_set job.exn_slot None (Some (e, bt)) then ();
           Atomic.set job.failed true)
      end;
      ignore (Atomic.fetch_and_add job.completed (hi - lo));
      loop ()
  in
  loop ()

let worker_loop t =
  let my_gen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.lock;
    while t.generation = !my_gen && not t.closing do
      Condition.wait t.work_cond t.lock
    done;
    if t.closing then begin
      running := false;
      Mutex.unlock t.lock
    end
    else begin
      my_gen := t.generation;
      let job = t.current in
      Mutex.unlock t.lock;
      match job with
      | None -> ()
      | Some job ->
        drain job;
        Mutex.lock t.lock;
        Condition.broadcast t.done_cond;
        Mutex.unlock t.lock
    end
  done

let create ?(obs = Obs.noop) jobs =
  if jobs > 1024 then invalid_arg "Pool.create: more than 1024 jobs";
  let jobs = max 1 jobs in
  Obs.Gauge.set
    (Obs.gauge obs ~help:"Domains in the active pool, caller included."
       "leakdetect_pool_size")
    jobs;
  let t =
    {
      jobs;
      obs;
      lock = Mutex.create ();
      work_cond = Condition.create ();
      done_cond = Condition.create ();
      current = None;
      generation = 0;
      closing = false;
      workers = [||];
      busy = Atomic.make false;
      closed = false;
    }
  in
  t.workers <- Array.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t


let shutdown t =
  if not t.closed then begin
    t.closed <- true;
    Mutex.lock t.lock;
    t.closing <- true;
    Condition.broadcast t.work_cond;
    Mutex.unlock t.lock;
    Array.iter Domain.join t.workers;
    t.workers <- [||]
  end

let sequential ~init n f =
  if n > 0 then begin
    let scratch = init () in
    for i = 0 to n - 1 do
      f scratch i
    done
  end

let count_job t ~mode ~claims =
  if not (Obs.is_noop t.obs) then begin
    Obs.Counter.inc
      (Obs.counter t.obs ~help:"Jobs submitted to the pool, by execution mode."
         ~labels:[ ("mode", mode) ]
         "leakdetect_pool_jobs_total");
    Obs.Counter.add
      (Obs.counter t.obs ~help:"Index-range claims across all parallel jobs."
         "leakdetect_pool_chunks_total")
      claims
  end

let run_job t ~chunk ~init n f =
  if t.closed then invalid_arg "Pool: used after shutdown";
  let mode = match chunk with Some c -> Fixed (max 1 c) | None -> Guided in
  (* A space that cannot yield at least two claims has nothing to overlap:
     run it on the caller without waking the pool. *)
  let worth_splitting =
    match mode with Fixed c -> n > c | Guided -> n >= 2 * chunk_floor
  in
  if (not worth_splitting) || t.jobs = 1 then begin
    count_job t ~mode:"sequential" ~claims:0;
    sequential ~init n f
  end
  else begin
    if not (Atomic.compare_and_set t.busy false true) then
      invalid_arg "Pool: concurrent or nested job submission";
    let job =
      {
        n;
        mode;
        jobs = t.jobs;
        next = Atomic.make 0;
        completed = Atomic.make 0;
        claims = Atomic.make 0;
        failed = Atomic.make false;
        exn_slot = Atomic.make None;
        make_body =
          (fun () ->
            let scratch = init () in
            fun lo hi ->
              for i = lo to hi - 1 do
                f scratch i
              done);
      }
    in
    Mutex.lock t.lock;
    t.current <- Some job;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work_cond;
    Mutex.unlock t.lock;
    (* The caller is a participant too. *)
    drain job;
    Mutex.lock t.lock;
    while Atomic.get job.completed < job.n do
      Condition.wait t.done_cond t.lock
    done;
    t.current <- None;
    Mutex.unlock t.lock;
    count_job t ~mode:"parallel" ~claims:(Atomic.get job.claims);
    Atomic.set t.busy false;
    match Atomic.get job.exn_slot with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let parallel_for_with ~pool ?chunk ~init n f =
  if n < 0 then invalid_arg "Pool.parallel_for_with: negative count";
  match pool with
  | None -> sequential ~init n f
  | Some t -> run_job t ~chunk ~init n f

let parallel_for ~pool ?chunk n f =
  parallel_for_with ~pool ?chunk ~init:(fun () -> ()) n (fun () i -> f i)

let parallel_init ~pool ?chunk n f =
  if n = 0 then [||]
  else begin
    let out = Array.make n (f 0) in
    (* Slot 0 is already final: [f 0] evaluated once, sequentially, to seed
       the array; the fan-out covers the rest. *)
    parallel_for ~pool ?chunk (n - 1) (fun i -> out.(i + 1) <- f (i + 1));
    out
  end

let parallel_map_array ~pool ?chunk f a =
  parallel_init ~pool ?chunk (Array.length a) (fun i -> f a.(i))

(* --- warm pool registry -------------------------------------------------- *)

(* Spawning domains costs milliseconds; a CLI run or a benchmark that
   builds a fresh pool around every phase pays it over and over.  The warm
   registry keeps one pool per requested size alive for the rest of the
   process and shuts them all down at exit. *)

let warm_lock = Mutex.create ()
let warm_pools : (int * t) list ref = ref []
let warm_at_exit = ref false

let shutdown_warm () =
  Mutex.lock warm_lock;
  let pools = !warm_pools in
  warm_pools := [];
  Mutex.unlock warm_lock;
  List.iter (fun (_, p) -> shutdown p) pools

let warm ?obs jobs =
  if jobs <= 1 then None
  else begin
    Mutex.lock warm_lock;
    let pool =
      match List.assoc_opt jobs !warm_pools with
      | Some p when not p.closed -> p
      | _ ->
        let p = create ?obs jobs in
        warm_pools := (jobs, p) :: List.remove_assoc jobs !warm_pools;
        if not !warm_at_exit then begin
          warm_at_exit := true;
          at_exit shutdown_warm
        end;
        p
    in
    Mutex.unlock warm_lock;
    Some pool
  end

let recommended_jobs () = Domain.recommended_domain_count ()
