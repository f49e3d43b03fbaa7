(** CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the checksum
    guarding every write-ahead-log record and snapshot in the durability
    layer ({!Leakdetect_store}).

    Table-driven, with an incremental API so a checksum can be folded over
    chunks without concatenating them.  Values are plain non-negative
    [int]s in [\[0, 0xFFFFFFFF\]] (OCaml ints are 63-bit, so the full CRC
    range fits). *)

type t
(** Running checksum state.  Immutable: {!update} returns a new state. *)

val init : t
(** The state with no bytes folded in yet. *)

val update : t -> ?pos:int -> ?len:int -> string -> t
(** [update t s] folds [s] (or its [pos]/[len] slice) into the running
    checksum.  @raise Invalid_argument on an out-of-bounds slice. *)

val value : t -> int
(** The CRC of everything folded so far.  [value init = 0]. *)

val string : string -> int
(** One-shot checksum: [string s = value (update init s)]. *)

val combine : int -> int -> int -> int
(** [combine (string a) (string b) (String.length b) = string (a ^ b)]:
    the checksum of a concatenation from the checksums of its parts, in
    O(log [len2]) word operations and without the bytes (zlib's
    [crc32_combine]).  @raise Invalid_argument on a negative length. *)

val to_hex : int -> string
(** Fixed-width lowercase hex, e.g. [to_hex 0xCBF43926 = "cbf43926"]. *)
