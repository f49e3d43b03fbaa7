(** Bit-level I/O used by the compressors.  Bits are written and read
    LSB-first within each byte. *)

module Writer : sig
  type t

  val create : unit -> t
  val add_bit : t -> bool -> unit

  val add_bits : t -> int -> int -> unit
  (** [add_bits w value width] writes the low [width] bits of [value],
      LSB first.  [width] must be in [\[0, 62\]]. *)

  val bit_length : t -> int
  (** Exact number of bits written so far (before byte padding). *)

  val contents : t -> string
  (** Byte string; the final partial byte is zero-padded. *)
end

module Reader : sig
  type t

  exception End_of_input

  val of_string : string -> t
  val read_bit : t -> bool
  val read_bits : t -> int -> int
end
