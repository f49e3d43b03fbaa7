(** 64-bit minhash signatures over shingle sets.

    A signature is [hashes] slots, each the minimum of an independently
    keyed 64-bit hash over the set; the fraction of slots on which two
    signatures agree is an unbiased estimate of the sets' Jaccard
    similarity with variance [J(1-J)/hashes].  Keys derive from one
    {!Leakdetect_util.Prng} stream, so equal seeds give equal
    signatures — the foundation of sketch-mode determinism. *)

type t
(** An immutable family of [hashes] keyed hash functions.  Safe to share
    across domains. *)

val create : hashes:int -> seed:int -> t
(** [create ~hashes ~seed] draws [hashes] 64-bit keys from a fresh
    generator seeded with [seed].
    @raise Invalid_argument when [hashes < 1]. *)

val empty_slot : int64
(** The slot value assigned to the empty shingle set ([Int64.max_int]);
    two empty payloads agree on every slot. *)

val signature : t -> int array -> int64 array
(** [signature t shingles] is the minhash signature of a shingle set as
    produced by {!Shingle.set}.  Pure: depends only on [t] and the set
    contents, not on element order. *)

val estimate : int64 array -> int64 array -> float
(** [estimate a b] is the fraction of agreeing slots — the estimated
    Jaccard similarity.  @raise Invalid_argument when widths differ. *)
