module Prng = Leakdetect_util.Prng

type kind =
  | Corrupt
  | Truncate
  | Drop
  | Duplicate
  | Delay
  | Server_error
  | Crash
  | Torn_write
  | Reencode

let kind_name = function
  | Corrupt -> "corrupt"
  | Truncate -> "truncate"
  | Drop -> "drop"
  | Duplicate -> "duplicate"
  | Delay -> "delay"
  | Server_error -> "server-error"
  | Crash -> "crash"
  | Torn_write -> "torn-write"
  | Reencode -> "reencode"

let all_kinds =
  [
    Corrupt; Truncate; Drop; Duplicate; Delay; Server_error; Crash; Torn_write;
    Reencode;
  ]

type config = {
  corrupt_rate : float;
  corrupt_bytes : int;
  truncate_rate : float;
  drop_rate : float;
  duplicate_rate : float;
  delay_rate : float;
  max_delay : int;
  server_error_rate : float;
  crash_rate : float;
  torn_write_rate : float;
  reencode_rate : float;
}

let none =
  {
    corrupt_rate = 0.;
    corrupt_bytes = 1;
    truncate_rate = 0.;
    drop_rate = 0.;
    duplicate_rate = 0.;
    delay_rate = 0.;
    max_delay = 0;
    server_error_rate = 0.;
    crash_rate = 0.;
    torn_write_rate = 0.;
    reencode_rate = 0.;
  }

let default =
  {
    corrupt_rate = 0.1;
    corrupt_bytes = 3;
    truncate_rate = 0.03;
    drop_rate = 0.03;
    duplicate_rate = 0.03;
    delay_rate = 0.1;
    max_delay = 4;
    server_error_rate = 0.2;
    crash_rate = 0.1;
    torn_write_rate = 0.05;
    (* Off by default: transport re-encoding only matters to runs that
       exercise the normalize-aware detector, and a nonzero rate here would
       shift every seeded fault schedule. *)
    reencode_rate = 0.;
  }

type event = { seq : int; kind : kind; detail : string }

type plan = {
  config : config;
  rng : Prng.t;
  mutable events : event list;  (* newest first *)
  mutable next_seq : int;
}

let create ~seed config = { config; rng = Prng.create seed; events = []; next_seq = 0 }
let config t = t.config

let record t kind detail =
  t.events <- { seq = t.next_seq; kind; detail } :: t.events;
  t.next_seq <- t.next_seq + 1

let events t = List.rev t.events

let count t kind =
  List.fold_left (fun acc e -> if e.kind = kind then acc + 1 else acc) 0 t.events

let total t = List.length t.events
let summary t = List.map (fun k -> (k, count t k)) all_kinds

let corrupt_string t s =
  let c = t.config in
  let s =
    if s <> "" && Prng.chance t.rng c.corrupt_rate then begin
      let b = Bytes.of_string s in
      let n = max 1 c.corrupt_bytes in
      for _ = 1 to n do
        let i = Prng.int t.rng (Bytes.length b) in
        (* XOR with a non-zero mask so the byte always changes. *)
        let mask = 1 + Prng.int t.rng 255 in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask))
      done;
      record t Corrupt (Printf.sprintf "%d byte(s) of %d" n (Bytes.length b));
      Bytes.to_string b
    end
    else s
  in
  if s <> "" && Prng.chance t.rng c.truncate_rate then begin
    let keep = Prng.int t.rng (String.length s) in
    record t Truncate (Printf.sprintf "%d -> %d bytes" (String.length s) keep);
    String.sub s 0 keep
  end
  else s

let apply_stream t items =
  let c = t.config in
  List.concat_map
    (fun x ->
      if Prng.chance t.rng c.drop_rate then begin
        record t Drop "record";
        []
      end
      else if Prng.chance t.rng c.duplicate_rate then begin
        record t Duplicate "record";
        [ x; x ]
      end
      else [ x ])
    items

let crash_point t ~len =
  if len > 0 && Prng.chance t.rng t.config.crash_rate then begin
    let off = Prng.int t.rng len in
    record t Crash (Printf.sprintf "after %d of %d bytes" off len);
    Some off
  end
  else None

let torn_write t ~protect ~tail_start s =
  let len = String.length s in
  let protect = max 0 protect in
  let tail_start = min (max protect tail_start) len in
  if len <= protect || not (Prng.chance t.rng t.config.torn_write_rate) then s
  else if Prng.bool t.rng then begin
    (* Bit-flip one committed byte past the protected header. *)
    let i = protect + Prng.int t.rng (len - protect) in
    let bit = Prng.int t.rng 8 in
    record t Torn_write (Printf.sprintf "bit %d of byte %d flipped" bit i);
    let b = Bytes.of_string s in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
    Bytes.to_string b
  end
  else begin
    (* Replay the tail record, as a half-applied rewrite would. *)
    let dup = len - tail_start in
    if dup = 0 then s
    else begin
      record t Torn_write (Printf.sprintf "tail record duplicated (%d bytes)" dup);
      s ^ String.sub s tail_start dup
    end
  end

(* Transport-level re-encoding: an intermediary percent-escapes the whole
   payload.  Lossless (a single percent-decode restores it), so detection
   with normalization enabled must still fire. *)
let reencode_string t s =
  if s <> "" && Prng.chance t.rng t.config.reencode_rate then begin
    record t Reencode (Printf.sprintf "%d bytes percent-encoded" (String.length s));
    let buf = Buffer.create (String.length s * 3) in
    String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%%%02X" (Char.code c))) s;
    Buffer.contents buf
  end
  else s

type server_fate = Respond | Respond_delayed of int | Fail of int

let server_fate t =
  let c = t.config in
  if Prng.chance t.rng c.server_error_rate then begin
    record t Server_error "503";
    Fail 503
  end
  else if c.max_delay > 0 && Prng.chance t.rng c.delay_rate then begin
    let ticks = 1 + Prng.int t.rng c.max_delay in
    record t Delay (Printf.sprintf "%d tick(s)" ticks);
    Respond_delayed ticks
  end
  else Respond

(* One faulty hop: the payload can be dropped outright, duplicated (the
   spare is discarded — HTTP is request/response), corrupted, or pass. *)
let hop t payload =
  match apply_stream t [ payload ] with
  | [] -> Error "payload dropped in transit"
  | payload :: _ -> Ok (corrupt_string t payload)

let transport t server raw =
  match server_fate t with
  | Fail status -> Error (Printf.sprintf "transient server error %d" status)
  | Respond_delayed _ | Respond -> (
    match hop t raw with
    | Error _ as e -> e
    | Ok raw -> (
      match server raw with
      | Error _ as e -> e
      | Ok response -> hop t response))
