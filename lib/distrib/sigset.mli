(** Signature sets keyed by id, with their canonical checksum kept up to
    date in O(log n) per change.

    The canonical serialization of a set is its {!Leakdetect_core.Signature_io}
    lines in ascending id order, joined by ["\n"].  The set is a
    persistent AVL tree; every node caches the CRC-32 and byte length of
    its member's piece ["\n" ^ line] and, once first read, of its
    subtree's U-form (the pieces concatenated in id order).
    {!Leakdetect_util.Crc32.combine} computes a node's values from its
    children's, so a change costs one serialization of the changed
    member plus O(log n) combines at the next checksum — shared by every
    change made since — and never a pass over the whole set. *)

module Signature = Leakdetect_core.Signature

type t

val empty : t

val add : Signature.t -> t -> t
(** Install [s], replacing any member with the same id. *)

val remove : int -> t -> t
(** Drop the member with this id; absent ids leave the set unchanged. *)

val find : int -> t -> Signature.t option

val fold : (Signature.t -> 'a -> 'a) -> t -> 'a -> 'a
(** In ascending id order. *)

val to_list : t -> Signature.t list
(** Members in ascending id order. *)

val of_list : Signature.t list -> (t, [> `Duplicate_id of int ]) result
(** A set holding exactly these signatures, in O(n).  Two signatures
    with one id are refused: a set never holds both, and keeping either
    would silently drop the other. *)

val checksum : t -> int
(** CRC-32 of the canonical serialization, [0] for the empty set. *)

val canonical_length : t -> int
(** Byte length of the canonical serialization, in O(1). *)

val wire_checksum : version:int -> t -> int
(** CRC-32 of [string_of_int version ^ "\n" ^ canonical] — the value
    carried in [X-Signature-Checksum]. *)
