(** Conjunction signatures (Sec. IV-E).

    A signature is the set of invariant tokens extracted from one cluster of
    suspicious packets; a packet matches when every token occurs in its
    content ([`Conjunction], the paper's semantics, after Polygraph) or when
    the tokens occur in order ([`Ordered], the stricter Polygraph variant
    kept for comparison).

    The paper warns (Sec. VI) that careless generation yields signatures
    such as ["GET *"] or ["* HTTP/1.1"] that match most packets.  The
    {!specificity} measure ignores tokens made of protocol boilerplate;
    generation rejects signatures below a specificity floor. *)

type mode = Conjunction | Ordered

type t = {
  id : int;
  tokens : string list;  (** Non-empty, in extraction order. *)
  mode : mode;
  cluster_size : int;  (** Packets in the generating cluster. *)
}

val make : id:int -> mode:mode -> cluster_size:int -> string list -> t
(** @raise Invalid_argument on an empty token list or an empty token. *)

type compiled

val compile : t -> compiled

val matches_content : compiled -> string -> bool
(** Match against a pre-flattened {!Leakdetect_http.Packet.content_string}. *)

val is_boilerplate_token : string -> bool
(** True for substrings of generic HTTP scaffolding ("GET ", " HTTP/1.1",
    "Cookie: ", separators...) that carry no leak-specific information. *)

val specificity : t -> int
(** Total length of the non-boilerplate tokens. *)

val pp : Format.formatter -> t -> unit
