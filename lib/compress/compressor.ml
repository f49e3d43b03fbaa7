type algorithm = Lz77 | Lzw | Huffman

let name = function Lz77 -> "lz77" | Lzw -> "lzw" | Huffman -> "huffman"

let of_name = function
  | "lz77" -> Some Lz77
  | "lzw" -> Some Lzw
  | "huffman" -> Some Huffman
  | _ -> None

let compress = function
  | Lz77 -> Lz77.compress
  | Lzw -> Lzw.compress
  | Huffman -> Huffman.compress

let decompress = function
  | Lz77 -> Lz77.decompress
  | Lzw -> Lzw.decompress
  | Huffman -> Huffman.decompress

let length_bits = function
  | Lz77 -> Lz77.compressed_length_bits
  | Lzw -> Lzw.compressed_length_bits
  | Huffman -> Huffman.compressed_length_bits

let concat_length_bits = function
  | Lz77 -> Lz77.concat_length_bits
  | Lzw -> fun x y -> Lzw.compressed_length_bits (x ^ y)
  | Huffman -> fun x y -> Huffman.compressed_length_bits (x ^ y)

let ncd_of_lengths ~cx ~cy ~cxy =
  let lo = min cx cy and hi = max cx cy in
  let d = float_of_int (cxy - lo) /. float_of_int hi in
  Float.min 1. (Float.max 0. d)

let algo_length_bits = length_bits

module Cache = struct
  type t = {
    algo : algorithm;
    table : (string, int) Hashtbl.t;
    pair_table : (string * string, int) Hashtbl.t;
    pair_capacity : int;
  }

  let create ?(pair_capacity = 16384) algo =
    if pair_capacity < 0 then invalid_arg "Compressor.Cache.create: negative capacity";
    {
      algo;
      table = Hashtbl.create 1024;
      pair_table = Hashtbl.create 1024;
      pair_capacity;
    }

  let algorithm t = t.algo

  let length_bits t s =
    match Hashtbl.find_opt t.table s with
    | Some v -> v
    | None ->
      let v = algo_length_bits t.algo s in
      Hashtbl.add t.table s v;
      v

  (* C(xy) and C(yx) differ slightly; canonical ordering keeps the distance
     exactly symmetric and lets repeated pairs share one cache slot. *)
  let pair_length_bits t x y =
    let key = (x, y) in
    match Hashtbl.find_opt t.pair_table key with
    | Some v -> v
    | None ->
      let v = concat_length_bits t.algo x y in
      if Hashtbl.length t.pair_table < t.pair_capacity then Hashtbl.add t.pair_table key v;
      v

  let ncd t x y =
    if String.length x = 0 && String.length y = 0 then 0.
    else begin
      let cx = length_bits t x and cy = length_bits t y in
      let x, y = if String.compare x y <= 0 then (x, y) else (y, x) in
      ncd_of_lengths ~cx ~cy ~cxy:(pair_length_bits t x y)
    end

end
