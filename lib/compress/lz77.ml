let min_match = 3
let max_match = 258
let window_size = 32768
let hash_bits = 15
let hash_size = 1 lsl hash_bits
let max_chain = 64

(* Stream sizes: a 32-bit length header, then 1+8 bits per literal and
   1+15+8 bits per match. *)
let header_bits = 32
let literal_bits = 9
let match_bits = 24

(* Per-domain parser state, reused across calls so a length query
   allocates nothing.  Both tables hold positions offset by [base], which
   advances past [n + window_size] after every parse: a position left over
   from an earlier call therefore always fails the window check, so
   neither table is ever cleared.  [prev] is a ring indexed by [position mod window_size]:
   a slot is overwritten only by the position one window later, which the
   walk would reject anyway.  [buf] holds the concatenation for
   {!concat_length_bits} and grows on demand. *)
type scratch = {
  head : int array;
  prev : int array;
  mutable base : int;
  mutable buf : Bytes.t;
  mutable busy : bool;
}

let first_base = window_size + 1

let create_scratch () =
  {
    head = Array.make hash_size 0;
    prev = Array.make window_size 0;
    base = first_base;
    buf = Bytes.empty;
    busy = false;
  }

let scratch_key = Domain.DLS.new_key create_scratch

(* A scratch already in use on this domain (a signal handler re-entering
   the compressor) gets a private one instead of sharing it. *)
let acquire () =
  let sc = Domain.DLS.get scratch_key in
  if sc.busy then create_scratch ()
  else begin
    sc.busy <- true;
    sc
  end

let release sc = sc.busy <- false

let hash3 b i =
  let a = Char.code (Bytes.unsafe_get b i)
  and c1 = Char.code (Bytes.unsafe_get b (i + 1))
  and c2 = Char.code (Bytes.unsafe_get b (i + 2)) in
  ((a * 2654435761) lxor (c1 * 40503) lxor (c2 * 65599)) land (hash_size - 1)

let mask = window_size - 1

(* Register position [i] of [b.[0 .. n-1]] at the head of its hash chain. *)
let insert head prev base b n i =
  if i + min_match <= n then begin
    let h = hash3 b i in
    Array.unsafe_set prev (i land mask) (Array.unsafe_get head h);
    Array.unsafe_set head h (base + i)
  end

(* Greedy parse of [b.[0 .. n-1]] with a hash chain over 3-byte prefixes:
   at each cursor take the longest match among the first [max_chain]
   in-window candidates (the most recent one on ties), or a literal when
   no match reaches [min_match]; register every covered position so later
   matches can point into it.  Emits the tokens to [w] when given and
   returns the stream length in bits, header included.  Byte reads are
   unchecked: every index is below [n <= Bytes.length b]. *)
let parse sc b n w =
  let head = sc.head and prev = sc.prev and base = sc.base in
  let bits = ref header_bits in
  let i = ref 0 in
  while !i < n do
    let cur = !i in
    let best_len = ref 0 and best_pos = ref 0 in
    if cur + min_match <= n then begin
      let limit = min max_match (n - cur) in
      let j = ref (Array.unsafe_get head (hash3 b cur) - base) in
      let depth = ref 0 in
      while !depth < max_chain && cur - !j <= window_size && !best_len < max_match do
        let cand = !j in
        let len = ref 0 in
        while
          !len < limit && Bytes.unsafe_get b (cand + !len) = Bytes.unsafe_get b (cur + !len)
        do
          incr len
        done;
        if !len > !best_len then begin
          best_len := !len;
          best_pos := cand
        end;
        j := Array.unsafe_get prev (cand land mask) - base;
        incr depth
      done
    end;
    if !best_len >= min_match then begin
      let len = !best_len in
      (match w with
      | Some w ->
        Bitio.Writer.add_bit w true;
        Bitio.Writer.add_bits w (cur - !best_pos - 1) 15;
        Bitio.Writer.add_bits w (len - min_match) 8
      | None -> ());
      bits := !bits + match_bits;
      for k = cur to cur + len - 1 do insert head prev base b n k done;
      i := cur + len
    end
    else begin
      (match w with
      | Some w ->
        Bitio.Writer.add_bit w false;
        Bitio.Writer.add_bits w (Char.code (Bytes.unsafe_get b cur)) 8
      | None -> ());
      bits := !bits + literal_bits;
      insert head prev base b n cur;
      i := cur + 1
    end
  done;
  (* Positions are stored as [base + i]; leave a full window of headroom
     so nothing stored here passes the next call's window check.  The
     reset is unreachable in practice (it takes ~10^14 calls). *)
  let next = base + n + window_size + 1 in
  if next > max_int / 2 then begin
    Array.fill head 0 hash_size 0;
    sc.base <- first_base
  end
  else sc.base <- next;
  !bits

let run sc b n w =
  match parse sc b n w with
  | bits ->
    release sc;
    bits
  | exception e ->
    release sc;
    raise e

let compress s =
  let w = Bitio.Writer.create () in
  Bitio.Writer.add_bits w (String.length s) 32;
  ignore (run (acquire ()) (Bytes.unsafe_of_string s) (String.length s) (Some w));
  Bitio.Writer.contents w

let compressed_length_bits s =
  run (acquire ()) (Bytes.unsafe_of_string s) (String.length s) None

let concat_length_bits x y =
  let nx = String.length x and ny = String.length y in
  let sc = acquire () in
  if Bytes.length sc.buf < nx + ny then
    sc.buf <- Bytes.create (max (nx + ny) (2 * Bytes.length sc.buf));
  Bytes.unsafe_blit_string x 0 sc.buf 0 nx;
  Bytes.unsafe_blit_string y 0 sc.buf nx ny;
  run sc sc.buf (nx + ny) None

let decompress data =
  let r = Bitio.Reader.of_string data in
  try
    let total = Bitio.Reader.read_bits r 32 in
    let out = Buffer.create total in
    while Buffer.length out < total do
      if Bitio.Reader.read_bit r then begin
        let dist = Bitio.Reader.read_bits r 15 + 1 in
        let len = Bitio.Reader.read_bits r 8 + min_match in
        let start = Buffer.length out - dist in
        if start < 0 then invalid_arg "Lz77.decompress: distance before start";
        (* Byte-at-a-time copy: overlapping matches replicate correctly. *)
        for k = 0 to len - 1 do
          Buffer.add_char out (Buffer.nth out (start + k))
        done
      end
      else Buffer.add_char out (Char.chr (Bitio.Reader.read_bits r 8))
    done;
    Buffer.contents out
  with Bitio.Reader.End_of_input -> invalid_arg "Lz77.decompress: truncated stream"
