(** Fully-qualified domain names.  The host component of the destination
    distance is a normalized edit distance over FQDN strings; this module
    additionally knows enough public-suffix structure to group hosts by
    registrable domain, which the trace-analysis tables (Table II) report. *)

val labels : string -> string list
(** Dot-separated labels, lowercased. *)

val registrable : string -> string
(** [registrable "cache1.ads.example.co.jp"] is ["example.co.jp"]; a host
    that is itself a public suffix (or invalid) is returned unchanged.
    Knows the generic suffixes plus the Japanese second-level suffixes that
    dominate the paper's Table II. *)

val normalized_edit_distance : string -> string -> float
(** The paper's [d_host]: Levenshtein distance divided by the longer
    length, in [\[0, 1\]]. *)
