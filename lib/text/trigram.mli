(** Byte-trigram profiles and cosine distance.

    The traffic-clustering literature the paper builds on (BotMiner,
    Perdisci et al.) commonly compares payloads by n-gram statistics rather
    than compression.  This module provides that comparator for the content
    -distance ablation: it is an order of magnitude cheaper than NCD but
    blind to long-range structure. *)

type profile
(** Sparse trigram frequency vector. *)

val profile : string -> profile
(** Profile of all overlapping 3-byte windows; strings shorter than 3 bytes
    produce the empty profile. *)

val cardinality : profile -> int
(** Number of distinct trigrams. *)

val cosine_similarity : profile -> profile -> float
(** In [\[0, 1\]]; 0 when either profile is empty. *)

val profile_distance : profile -> profile -> float
(** [1 - cosine_similarity], clamped to [\[0, 1\]]; 0 when both profiles
    are empty, 1 when exactly one is.  Argument order is part of the
    contract: on equal cardinalities the dot product folds over the first
    profile, so swapping the arguments may change the last bit. *)

val cosine_distance : string -> string -> float
(** [profile_distance] over fresh profiles.  Empty profiles come from
    strings shorter than 3 bytes. *)

module Cache : sig
  (** Memoizes profiles per string for string-level queries.  A plain
      [Hashtbl] underneath: use one cache per domain. *)

  type t

  val create : unit -> t
  val distance : t -> string -> string -> float
end
