(* Reference LZ77 encoder: the original token-list implementation of
   [Leakdetect_compress.Lz77], kept verbatim as the differential-test
   oracle for the scratch-based parser.  It allocates its hash tables per
   call, builds the whole token list and pushes every bit through a
   [Bitio.Writer]; only its output matters here, not its speed. *)

open Leakdetect_compress

let min_match = Lz77.min_match
let max_match = Lz77.max_match
let window_size = Lz77.window_size
let hash_bits = 15
let hash_size = 1 lsl hash_bits
let max_chain = 64

let hash3 s i =
  let a = Char.code s.[i] and b = Char.code s.[i + 1] and c = Char.code s.[i + 2] in
  ((a * 2654435761) lxor (b * 40503) lxor (c * 65599)) land (hash_size - 1)

type token = Literal of char | Match of int * int (* distance, length *)

(* Greedy parse with a hash-chain over 3-byte prefixes. *)
let tokenize s =
  let n = String.length s in
  let head = Array.make hash_size (-1) in
  let prev = Array.make (max n 1) (-1) in
  let tokens = ref [] in
  let insert i =
    if i + min_match <= n then begin
      let h = hash3 s i in
      prev.(i) <- head.(h);
      head.(h) <- i
    end
  in
  let match_length i j =
    let limit = min max_match (n - i) in
    let rec loop k = if k < limit && s.[j + k] = s.[i + k] then loop (k + 1) else k in
    loop 0
  in
  let best_match i =
    if i + min_match > n then None
    else begin
      let h = hash3 s i in
      let best_len = ref 0 and best_pos = ref (-1) in
      let rec walk j depth =
        if j >= 0 && depth < max_chain then begin
          if i - j <= window_size then begin
            let len = match_length i j in
            if len > !best_len then begin
              best_len := len;
              best_pos := j
            end;
            if !best_len < max_match then walk prev.(j) (depth + 1)
          end
        end
      in
      walk head.(h) 0;
      if !best_len >= min_match then Some (i - !best_pos, !best_len) else None
    end
  in
  let i = ref 0 in
  while !i < n do
    (match best_match !i with
    | Some (dist, len) ->
      tokens := Match (dist, len) :: !tokens;
      for k = 0 to len - 1 do insert (!i + k) done;
      i := !i + len
    | None ->
      tokens := Literal s.[!i] :: !tokens;
      insert !i;
      incr i)
  done;
  List.rev !tokens

let encode s =
  let w = Bitio.Writer.create () in
  Bitio.Writer.add_bits w (String.length s) 32;
  List.iter
    (function
      | Literal c ->
        Bitio.Writer.add_bit w false;
        Bitio.Writer.add_bits w (Char.code c) 8
      | Match (dist, len) ->
        Bitio.Writer.add_bit w true;
        Bitio.Writer.add_bits w (dist - 1) 15;
        Bitio.Writer.add_bits w (len - min_match) 8)
    (tokenize s);
  w

let compress s = Bitio.Writer.contents (encode s)
let compressed_length_bits s = Bitio.Writer.bit_length (encode s)
