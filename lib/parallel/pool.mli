(** Fixed-size domain pool for the embarrassingly parallel pipeline phases.

    The pipeline's two hot loops — the O(N^2) NCD distance matrix and
    whole-trace detection — are data-parallel over independent indices.
    This pool fans such loops out over [jobs] OCaml 5 domains with a shared
    {!Stdlib.Atomic} index counter.  Work is handed out in contiguous index
    ranges and every result is written to a slot owned by its index, so
    output is bit-identical to the sequential loop no matter how the
    scheduler interleaves domains.

    All entry points take [~pool:(t option)]: [None] (or a pool of size 1)
    runs the plain sequential loop on the calling domain, so callers thread
    one optional value through and never branch themselves.

    The pool is persistent: worker domains are spawned once at {!create}
    and block on a condition variable between jobs, so per-call overhead is
    a broadcast rather than [jobs] domain spawns.  {!warm} goes further and
    keeps pools alive for the rest of the process, so repeated CLI phases
    and benchmark iterations reuse already-spun-up domains.  Jobs must not
    be submitted concurrently from several domains and must not nest (a
    worker must not submit to its own pool); both are programming errors
    and raise [Invalid_argument]. *)

type t

val create : ?obs:Leakdetect_obs.Obs.t -> int -> t
(** [create jobs] spawns [jobs - 1] worker domains (the submitting domain
    is always the [jobs]-th participant).  [jobs] is clamped below at 1; a
    1-job pool runs everything sequentially on the caller.  [?obs]
    (default noop) records the pool-size gauge and the per-job submission
    and claim counters ([leakdetect_pool_*]) — per job, never per index.
    @raise Invalid_argument when [jobs] exceeds 1024. *)

val shutdown : t -> unit
(** Joins the worker domains.  Idempotent.  Using the pool afterwards
    raises [Invalid_argument]. *)

val warm : ?obs:Leakdetect_obs.Obs.t -> int -> t option
(** [warm jobs] is the process-wide persistent pool of that size — created
    on first use, reused by every later call with the same [jobs], and shut
    down automatically at process exit.  [None] when [jobs <= 1].  This is
    what the CLI and the benchmarks use so domain spin-up is paid once per
    process instead of once per phase.  The same single-submitter rule as
    {!create} applies. *)

val shutdown_warm : unit -> unit
(** Shuts down every pool created by {!warm}.  Idempotent; registered
    [at_exit] automatically. *)

val chunk_floor : int
(** Minimum indices per claim (16).  Iteration spaces smaller than
    [2 * chunk_floor] run sequentially — claiming single indices costs more
    in atomic traffic than the work it spreads. *)

val parallel_for : pool:t option -> ?chunk:int -> int -> (int -> unit) -> unit
(** [parallel_for ~pool n f] runs [f i] for every [0 <= i < n], each index
    exactly once.  With a real pool, indices are claimed in contiguous
    ranges via an atomic counter.  Claims are guided by default: each takes
    [remaining / (2 * size)] indices, clamped to [{!chunk_floor}, 4096], so
    claim count stays logarithmic-ish in [n] while late claims shrink for
    load balance.  [?chunk] forces fixed-size claims instead.  [f] must be
    safe to call from any domain and must only write state owned by its
    index.  The first exception raised by [f] is re-raised on the caller
    after the loop drains. *)

val parallel_for_with :
  pool:t option -> ?chunk:int -> init:(unit -> 's) -> int -> ('s -> int -> unit) -> unit
(** [parallel_for_with ~pool ~init n f] is {!parallel_for} with per-domain
    scratch: each participating domain calls [init ()] once, lazily, and
    passes its private scratch to every [f] call it executes.  Sequential
    fallback allocates exactly one scratch.  Used for reusable match
    buffers in detection. *)

val parallel_map_array : pool:t option -> ?chunk:int -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map_array ~pool f a] is [Array.map f a] with the same
    ordering guarantee: slot [i] holds [f a.(i)].  [f] runs once per
    element; the result array is identical to the sequential map. *)

val parallel_init : pool:t option -> ?chunk:int -> int -> (int -> 'a) -> 'a array
(** [parallel_init ~pool n f] is [Array.init n f] fanned out over the
    pool; [f] must tolerate any evaluation order. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the CLI default for [--jobs]. *)
