(** Descriptive statistics and cumulative-distribution summaries used to
    report Figure 2 (destinations-per-app CDF) and the evaluation tables. *)

val mean : float array -> float
(** Arithmetic mean; 0 on empty input. *)

val mean_int : int array -> float

val max_int_arr : int array -> int
(** Maximum; @raise Invalid_argument on empty input. *)

val histogram : int array -> (int * int) list
(** [histogram xs] is the sorted association list (value, count). *)

type cdf_point = { value : int; fraction : float }

val cdf : int array -> cdf_point list
(** Cumulative frequency distribution over distinct values, ascending:
    [fraction] is the share of the sample at or below [value]. *)
