(** Sampling primitives used by the workload generator and the evaluation
    harness (the paper samples N suspicious packets uniformly at random for
    signature generation, Sec. V-A). *)

val shuffle : Prng.t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val without_replacement : Prng.t -> int -> 'a array -> 'a array
(** [without_replacement rng n arr] draws [min n (Array.length arr)] distinct
    elements uniformly, preserving no particular order.
    @raise Invalid_argument when [n] is negative. *)

val weighted_index : Prng.t -> float array -> int
(** [weighted_index rng w] draws index [i] with probability proportional to
    [w.(i)].  @raise Invalid_argument on empty or non-positive total weight. *)

val zipf_weights : n:int -> s:float -> float array
(** The (unnormalized) Zipf pmf over ranks [1..n], as weights: destination
    popularity in real app traffic is heavy-tailed (Table II), which this
    models. *)

val gaussian : Prng.t -> float
(** Standard normal deviate (Box-Muller). *)

val lognormal : Prng.t -> mu:float -> sigma:float -> float
(** [exp (mu + sigma * gaussian)].  The destinations-per-application
    distribution of Figure 2 is fit with a discretized lognormal. *)

val poisson : Prng.t -> float -> int
(** Poisson deviate with the given mean (Knuth's method below mean 30, a
    rounded normal approximation above).  @raise Invalid_argument on a
    non-positive mean. *)
