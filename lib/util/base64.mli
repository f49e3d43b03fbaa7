(** RFC 4648 Base64, implemented from scratch (the sealed toolchain has no
    base64 package).  Used by the obfuscated-traffic experiment: ad modules
    that encrypt their payload with a fixed key still produce invariant
    ciphertext tokens, which the paper argues its signatures can catch
    (Sec. VI).  The decoder also feeds the canonicalization lattice, so it
    accepts everything real ad-module traffic emits: padded or unpadded
    input, in the standard or the URL-safe alphabet. *)

val encode : string -> string
(** Standard alphabet, with [=] padding. *)

val encode_url : string -> string
(** URL-safe alphabet ([-]/[_] for [+]/[/]), unpadded — the form JWTs and
    query-embedded blobs use. *)

val decode : string -> string option
(** Decodes either alphabet, padded or unpadded.  [None] on bad characters,
    a mixed alphabet ([+]/[/] together with [-]/[_]), misplaced padding or
    an impossible length (length 1 mod 4 after stripping padding). *)

val decode_into : Buffer.t -> string -> pos:int -> len:int -> bool
(** [decode_into buf s ~pos ~len] is {!decode} on [s.\[pos .. pos+len-1\]],
    appending the decoded bytes to [buf] instead of returning them: [true]
    on success; [false], with [buf] untouched, wherever {!decode} is [None].
    It reads the input through a 256-entry value table and takes no
    substring.  {!decode} is a wrapper over it.
    @raise Invalid_argument if the range is not inside [s]. *)
