module Writer = struct
  type t = { buf : Buffer.t; mutable acc : int; mutable used : int; mutable bits : int }

  let create () = { buf = Buffer.create 64; acc = 0; used = 0; bits = 0 }

  let flush_byte t =
    Buffer.add_char t.buf (Char.chr (t.acc land 0xff));
    t.acc <- 0;
    t.used <- 0

  let add_bit t b =
    if b then t.acc <- t.acc lor (1 lsl t.used);
    t.used <- t.used + 1;
    t.bits <- t.bits + 1;
    if t.used = 8 then flush_byte t

  let add_bits t value width =
    if width < 0 || width > 62 then invalid_arg "Bitio.add_bits: bad width";
    for i = 0 to width - 1 do
      add_bit t ((value lsr i) land 1 = 1)
    done

  let bit_length t = t.bits

  let contents t =
    let body = Buffer.contents t.buf in
    if t.used = 0 then body else body ^ String.make 1 (Char.chr (t.acc land 0xff))
end

module Reader = struct
  type t = { data : string; mutable pos : int }

  exception End_of_input

  let of_string data = { data; pos = 0 }

  let read_bit t =
    let byte = t.pos lsr 3 in
    if byte >= String.length t.data then raise End_of_input;
    let bit = (Char.code t.data.[byte] lsr (t.pos land 7)) land 1 in
    t.pos <- t.pos + 1;
    bit = 1

  let read_bits t width =
    if width < 0 || width > 62 then invalid_arg "Bitio.read_bits: bad width";
    let v = ref 0 in
    for i = 0 to width - 1 do
      if read_bit t then v := !v lor (1 lsl i)
    done;
    !v
end
