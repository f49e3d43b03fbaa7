(** Bounded canonicalization lattice.

    The paper's payload check and the generated signatures match raw bytes,
    so a leak that is merely re-encoded — percent-escaped, base64'd,
    hex-dumped, case-shifted, chunk-framed — evades both (the evasion class
    Polygraph and Hamsa warn signature systems about).  This module derives
    a small lattice of decoded views from one packet content: each view is
    the content with one more decoding layer peeled off, and detection
    scans the views with the same matcher it uses on the raw bytes.  The
    lattice is one breadth-first walk that hands each view on as soon as it
    is derived ({!find_view}), so a detector stops deriving at the first
    view that matches.

    Derivation is bounded by explicit budgets (decode depth, view count,
    total derived bytes, single-view bytes) so adversarial inputs — decode
    bombs, self-expanding escapes — degrade gracefully: the lattice stops
    deriving, keeps the views it has, and reports which budget it hit as a
    typed {!error} instead of diverging.  Views are deduplicated, so a
    fixpoint (a text none of the decoders change) derives nothing and the
    lattice is idempotent.

    The default configuration is never active on its own: the pipeline
    gates it behind [Pipeline.Config.normalize], which defaults to [None]
    (byte-identical legacy behavior). *)

(** One decoding layer.  Each step maps a text to at most one derived
    view; inapplicable steps (nothing to decode) derive nothing. *)
type step =
  | Percent_strict  (** Decode [%XX] escapes; reject on a malformed escape. *)
  | Percent_lenient
      (** Decode every valid [%XX] escape, pass malformed ones through. *)
  | Form_decode  (** [application/x-www-form-urlencoded]: [+] is space, [%XX] strict. *)
  | Base64_std  (** Decode standard-alphabet base64 runs in place. *)
  | Base64_url  (** Decode URL-safe-alphabet base64 runs in place. *)
  | Hex_decode  (** Decode long even-length hex runs in place. *)
  | Case_fold
      (** Hex runs of >= 16 chars lowercased in place, so case-shifted
          digests match while uppercase boilerplate survives. *)
  | Chunked  (** Reassemble a [Transfer-Encoding: chunked] framed body. *)

val all_steps : step list
(** Every step, in derivation order. *)

val step_name : step -> string

type budgets = {
  max_depth : int;  (** Decode layers below the root (default 3). *)
  max_views : int;  (** Derived views per lattice (default 24). *)
  max_total_bytes : int;  (** Sum of derived view sizes (default 1 MiB). *)
  max_view_bytes : int;  (** Size of any single derived view (default 256 KiB). *)
}

val default_budgets : budgets

type error =
  | Depth_exhausted of int  (** A decodable view sat at [max_depth]. *)
  | Views_exhausted of int  (** [max_views] reached with more to derive. *)
  | Bytes_exhausted of int  (** [max_total_bytes] reached. *)
  | View_too_large of int  (** A derived view exceeded [max_view_bytes]. *)
(** Budget exhaustions, in the {!Leakdetect_util.Leak_error} style: typed
    and carrying the offending quantity.  An exhausted lattice is still usable — it simply stops deriving. *)

type view = {
  text : string;
  steps : step list;  (** Root-first decode chain that produced this view. *)
}

type lattice = {
  derived : view list;  (** Breadth-first derivation order, root excluded. *)
  errors : error list;  (** Distinct budget exhaustions, oldest first. *)
  failed_decodes : int;
      (** Decode attempts that found decodable-looking material but could
          not decode it (malformed escapes, bad base64 runs, ...). *)
}

type t
(** A compiled normalizer: budgets, enabled steps and pre-interned obs
    handles, reusable across packets and domains (it holds no per-call
    mutable state). *)

val create :
  ?obs:Leakdetect_obs.Obs.t -> ?budgets:budgets -> ?steps:step list -> unit -> t
(** [create ()] enables {!all_steps} under {!default_budgets} without
    instrumentation.  With an active [obs], every derivation bumps
    [leakdetect_normalize_views_total{step=...}], budget exhaustions bump
    [leakdetect_normalize_errors_total{budget=...}], and failed decodes
    bump [leakdetect_normalize_failed_decodes_total].  The counters bump
    as the walk goes, so they count the derivations actually performed: a
    {!find_view} walk that stops early counts only the prefix it derived.
    @raise Invalid_argument on empty [steps] or non-positive budgets. *)

val find_view : t -> string -> (view -> 'a option) -> 'a option
(** [find_view t root f] walks the lattice of [root] breadth first and
    hands each derived view to [f] as soon as it is derived, in the order of
    {!lattice}'s [derived].  The first [Some] answer stops the walk: no
    further step is attempted and no further level expanded, so the views
    [f] saw are a prefix of [derived].  [None] once the lattice is
    exhausted (or a budget stops it) without an answer. *)

val lattice : t -> string -> lattice
(** Derive the bounded lattice of decoded views of a text: {!find_view}
    with a consumer that never answers. *)

val texts : t -> string -> string list
(** The root followed by every derived view text — every text a detector
    may scan.  Always non-empty; equals [[root]] when the root is a
    fixpoint. *)
