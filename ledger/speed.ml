(* Machine-speed calibration.

   The benchmark runs on shared virtual machines whose speed drifts.  On
   the 2-vCPU x86-64 VM it was set up on, one run of a workload at one
   seed took 35% longer than another an hour earlier, with process CPU
   time equal to wall time: neighbours contending for the core's caches
   slow everything the process does, in spells from milliseconds to
   minutes, and no clock and no statistic within a run removes that.

   So while a run measures, a fixed reference kernel is timed every
   [period] (from a SIGALRM handler, so that the samples fall inside long
   operations too, at the workload's own cache and heap state), and every
   operation is reported scaled to a fixed reference speed: an operation
   that took [d], less the kernel passes inside it, while the passes
   around it took a harmonic mean of [h], is reported as
   [d *. nominal_ns /. h].  The harmonic mean is the right average: a
   pass timed at a moment measures the machine's rate at that moment, and
   an operation's time is its work over the mean rate.

   The kernel is the benchmark's own code and calls nothing of the
   repository, so no change to the system under test can move it, and it
   allocates nothing, so it does not depend on the heap the workload
   leaves behind.  It is a hash-chain match search over a fixed text, the
   shape of the LZ77 pass under NCD: table writes, chain walks and byte
   compares in about 70 kB.  Kernels with larger working sets (the same
   search over 1 MB, pointer chases over 2 and 32 MB) and one that
   allocates followed the workloads' drift less closely than this one, and
   load on the VM's other core did not slow the workloads at all: what
   drifts is the speed of the core, not of memory.

   The correction is not complete: in the minutes when the kernel ran
   about 50% slower than in calm ones, the distribution workload's rounds
   ran about 70% slower, so its reported times still rise with the load. *)

(* What one kernel pass takes at the reference speed, in nanoseconds: the
   median on that VM in a calm minute, so that on a calm machine the
   reported times are close to the measured ones. *)
let nominal_ns = 450_000.

(* A pass of about half a millisecond every 25 ms takes about 2% of a
   run. *)
let period = 0.025

let text_len = 4096
let hash_bits = 12
let max_chain = 8

(* A fixed text of words from a small vocabulary, so that matches occur. *)
let text =
  let state = ref 0x2545F491 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state lsr 8
  in
  let vocabulary =
    Array.init 48 (fun _ -> String.init (3 + (next () mod 8)) (fun _ -> Char.chr (97 + (next () mod 12))))
  in
  let b = Buffer.create text_len in
  while Buffer.length b < text_len do
    Buffer.add_string b vocabulary.(next () mod Array.length vocabulary);
    Buffer.add_char b (if next () mod 5 = 0 then '&' else '=')
  done;
  Buffer.sub b 0 text_len

let head = Array.make (1 lsl hash_bits) (-1)
let prev = Array.make text_len (-1)

let hash3 i =
  ((Char.code (String.unsafe_get text i) lsl 10)
  lxor (Char.code (String.unsafe_get text (i + 1)) lsl 5)
  lxor Char.code (String.unsafe_get text (i + 2)))
  land ((1 lsl hash_bits) - 1)

(* One pass: the sum of the longest match found at every position. *)
let kernel () =
  Array.fill head 0 (Array.length head) (-1);
  let total = ref 0 in
  for i = 0 to text_len - 3 do
    let h = hash3 i in
    let best = ref 0 and j = ref head.(h) and steps = ref 0 in
    while !j >= 0 && !steps < max_chain do
      let l = ref 0 in
      while i + !l < text_len && String.unsafe_get text (!j + !l) = String.unsafe_get text (i + !l) do
        incr l
      done;
      if !l > !best then best := !l;
      j := prev.(!j);
      incr steps
    done;
    prev.(i) <- head.(h);
    head.(h) <- i;
    total := !total + !best
  done;
  !total

let expected = kernel ()

(* The passes of a run, in order, and the time they took out of the
   operations they interrupted. *)
type t = { passes : Harness.Samples.t; mutable stolen_ns : int; mutable busy : bool }

let pass t =
  if not t.busy then begin
    t.busy <- true;
    let t0 = Harness.now_ns () in
    let r = kernel () in
    Harness.Samples.add t.passes (float_of_int (Harness.now_ns () - t0));
    t.stolen_ns <- t.stolen_ns + (Harness.now_ns () - t0);
    t.busy <- false;
    if r <> expected then failwith "Speed: the reference kernel changed its result"
  end

let set_timer seconds =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = seconds; it_value = seconds })

(* Start sampling, unless [~sampling:false] (traced runs, whose per-layer
   metrics are ratios, counts and durations as measured); [stop] must
   follow, however the run ends. *)
let start ~sampling =
  let t = { passes = Harness.Samples.create (); stolen_ns = 0; busy = false } in
  if sampling then begin
    (* The first passes warm the caches; they are not kept.  One pass is
       kept at once, so that even the shortest run has one. *)
    for _ = 1 to 3 do
      ignore (kernel ())
    done;
    pass t;
    Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> pass t));
    set_timer period
  end;
  t

let stop () =
  set_timer 0.;
  Sys.set_signal Sys.sigalrm Sys.Signal_ignore

(* Operation durations, in seconds with the kernel passes inside them
   taken out, and the range of passes [first, last) each spans. *)
type ops = { durations : Harness.Samples.t; first : Harness.Samples.t; last : Harness.Samples.t }

let ops () =
  { durations = Harness.Samples.create (); first = Harness.Samples.create ();
    last = Harness.Samples.create () }

let count ops = Harness.Samples.length ops.durations
let raw ops = Harness.Samples.to_array ops.durations

(* [f ()], recorded in [ops]. *)
let time t ops f =
  let first = Harness.Samples.length t.passes and stolen = t.stolen_ns in
  let t0 = Harness.now_ns () in
  let v = f () in
  let d = Harness.now_ns () - t0 - (t.stolen_ns - stolen) in
  Harness.Samples.add ops.durations (float_of_int d /. 1e9);
  Harness.Samples.add ops.first (float_of_int first);
  Harness.Samples.add ops.last (float_of_int (Harness.Samples.length t.passes));
  v

(* An operation is calibrated by the passes inside it and [half] on each
   side: about [period *. half] seconds of the machine's speed around a
   short operation, mostly its own time for a long one. *)
let half = 4

let calibrated t ops =
  let d = Harness.Samples.to_array t.passes in
  let n = Array.length d in
  if n = 0 then failwith "Speed: no reference pass was timed";
  (* rates.(k): the sum of 1/d over the passes before k. *)
  let rates = Array.make (n + 1) 0. in
  Array.iteri (fun k x -> rates.(k + 1) <- rates.(k) +. (1. /. x)) d;
  let first = Harness.Samples.to_array ops.first and last = Harness.Samples.to_array ops.last in
  Array.mapi
    (fun i x ->
      let hi = min n (int_of_float last.(i) + half) in
      let lo = max 0 (min (int_of_float first.(i) - half) (hi - (2 * half))) in
      let harmonic = float_of_int (hi - lo) /. (rates.(hi) -. rates.(lo)) in
      x *. nominal_ns /. harmonic)
    (raw ops)

(* The median kernel pass of the run, in microseconds, and the count. *)
let reference_us t = Harness.median (Harness.Samples.to_array t.passes) /. 1e3
let passes t = Harness.Samples.length t.passes
