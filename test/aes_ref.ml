(* Reference AES (FIPS 197) for tests only: the straightforward
   byte-oriented cipher over int arrays, with Russian-peasant GF(2^8)
   multiplies, both directions, and a CTR mode that builds a fresh
   counter block per 16 bytes. [Crypto.Aes] must stay bit-equal to it;
   being slow and obvious is the point. *)

let xtime b =
  let b2 = b lsl 1 in
  if b land 0x80 <> 0 then (b2 lxor 0x1b) land 0xff else b2 land 0xff

(* GF(2^8) multiply, Russian-peasant style. *)
let gmul a b =
  let rec go a b acc =
    if b = 0 then acc
    else
      let acc = if b land 1 <> 0 then acc lxor a else acc in
      go (xtime a) (b lsr 1) acc
  in
  go a b 0

let sbox, inv_sbox =
  (* Multiplicative inverses via exponentiation tables on generator 3. *)
  let exp = Array.make 256 0 and log = Array.make 256 0 in
  let x = ref 1 in
  for i = 0 to 254 do
    exp.(i) <- !x;
    log.(!x) <- i;
    x := !x lxor xtime !x (* multiply by generator 3 = x*2 xor x *)
  done;
  let inverse b = if b = 0 then 0 else exp.((255 - log.(b)) mod 255) in
  let rotl8 v n = ((v lsl n) lor (v lsr (8 - n))) land 0xff in
  let s = Array.make 256 0 and si = Array.make 256 0 in
  for b = 0 to 255 do
    let iv = inverse b in
    let v = iv lxor rotl8 iv 1 lxor rotl8 iv 2 lxor rotl8 iv 3 lxor rotl8 iv 4 lxor 0x63 in
    s.(b) <- v;
    si.(v) <- b
  done;
  (s, si)

type key = {
  round_keys : int array;  (* 16 bytes per round key, flattened *)
  rounds : int;            (* 10 for AES-128, 14 for AES-256 *)
}

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

let expand raw =
  let nk =
    match String.length raw with
    | 16 -> 4
    | 32 -> 8
    | n -> invalid_arg (Printf.sprintf "Aes.expand: key must be 16 or 32 bytes, got %d" n)
  in
  let rounds = nk + 6 in
  let nwords = 4 * (rounds + 1) in
  (* Words as 4-byte arrays flattened into one byte array. *)
  let w = Array.make (4 * nwords) 0 in
  for i = 0 to (4 * nk) - 1 do
    w.(i) <- Char.code raw.[i]
  done;
  let tmp = Array.make 4 0 in
  for i = nk to nwords - 1 do
    for j = 0 to 3 do tmp.(j) <- w.((4 * (i - 1)) + j) done;
    if i mod nk = 0 then begin
      (* RotWord + SubWord + Rcon *)
      let t0 = tmp.(0) in
      tmp.(0) <- sbox.(tmp.(1)) lxor rcon.((i / nk) - 1);
      tmp.(1) <- sbox.(tmp.(2));
      tmp.(2) <- sbox.(tmp.(3));
      tmp.(3) <- sbox.(t0)
    end
    else if nk > 6 && i mod nk = 4 then
      for j = 0 to 3 do tmp.(j) <- sbox.(tmp.(j)) done;
    for j = 0 to 3 do w.((4 * i) + j) <- w.((4 * (i - nk)) + j) lxor tmp.(j) done
  done;
  { round_keys = w; rounds }

let add_round_key state key round =
  let base = 16 * round in
  for i = 0 to 15 do state.(i) <- state.(i) lxor key.round_keys.(base + i) done

(* State layout: column-major as in FIPS 197 — state.(4*c + r) is row r,
   column c, matching the flat byte order of the input block. *)

let sub_bytes state = for i = 0 to 15 do state.(i) <- sbox.(state.(i)) done
let inv_sub_bytes state = for i = 0 to 15 do state.(i) <- inv_sbox.(state.(i)) done

let shift_rows state =
  let at r c = state.((4 * c) + r) in
  let copy = Array.copy state in
  let set r c v = copy.((4 * c) + r) <- v in
  for r = 1 to 3 do
    for c = 0 to 3 do set r c (at r ((c + r) mod 4)) done
  done;
  Array.blit copy 0 state 0 16

let inv_shift_rows state =
  let at r c = state.((4 * c) + r) in
  let copy = Array.copy state in
  let set r c v = copy.((4 * c) + r) <- v in
  for r = 1 to 3 do
    for c = 0 to 3 do set r c (at r ((c + 4 - r) mod 4)) done
  done;
  Array.blit copy 0 state 0 16

let mix_columns state =
  for c = 0 to 3 do
    let b = 4 * c in
    let a0 = state.(b) and a1 = state.(b + 1) and a2 = state.(b + 2) and a3 = state.(b + 3) in
    state.(b) <- gmul a0 2 lxor gmul a1 3 lxor a2 lxor a3;
    state.(b + 1) <- a0 lxor gmul a1 2 lxor gmul a2 3 lxor a3;
    state.(b + 2) <- a0 lxor a1 lxor gmul a2 2 lxor gmul a3 3;
    state.(b + 3) <- gmul a0 3 lxor a1 lxor a2 lxor gmul a3 2
  done

let inv_mix_columns state =
  for c = 0 to 3 do
    let b = 4 * c in
    let a0 = state.(b) and a1 = state.(b + 1) and a2 = state.(b + 2) and a3 = state.(b + 3) in
    state.(b) <- gmul a0 14 lxor gmul a1 11 lxor gmul a2 13 lxor gmul a3 9;
    state.(b + 1) <- gmul a0 9 lxor gmul a1 14 lxor gmul a2 11 lxor gmul a3 13;
    state.(b + 2) <- gmul a0 13 lxor gmul a1 9 lxor gmul a2 14 lxor gmul a3 11;
    state.(b + 3) <- gmul a0 11 lxor gmul a1 13 lxor gmul a2 9 lxor gmul a3 14
  done

let load_block block =
  if String.length block <> 16 then invalid_arg "Aes: block must be 16 bytes";
  Array.init 16 (fun i -> Char.code block.[i])

let store_block state =
  String.init 16 (fun i -> Char.chr state.(i))

let encrypt_block key block =
  let state = load_block block in
  add_round_key state key 0;
  for round = 1 to key.rounds - 1 do
    sub_bytes state;
    shift_rows state;
    mix_columns state;
    add_round_key state key round
  done;
  sub_bytes state;
  shift_rows state;
  add_round_key state key key.rounds;
  store_block state

let decrypt_block key block =
  let state = load_block block in
  add_round_key state key key.rounds;
  inv_shift_rows state;
  inv_sub_bytes state;
  for round = key.rounds - 1 downto 1 do
    add_round_key state key round;
    inv_mix_columns state;
    inv_shift_rows state;
    inv_sub_bytes state
  done;
  add_round_key state key 0;
  store_block state

let counter_block nonce index =
  if String.length nonce <> 16 then invalid_arg "Aes.ctr: nonce must be 16 bytes";
  let b = Bytes.of_string nonce in
  (* Add [index] into the trailing 8 bytes, big-endian, with carry. *)
  let rec add_int i value =
    if i > 8 && value > 0 then begin
      let pos = i - 1 in
      let v = Char.code (Bytes.get b pos) + (value land 0xff) in
      Bytes.set b pos (Char.chr (v land 0xff));
      add_int pos ((value lsr 8) + (v lsr 8))
    end
  in
  add_int 16 index;
  Bytes.to_string b

let ctr_at ~key ~nonce ~offset data =
  if offset < 0 then invalid_arg "Aes.ctr_at: negative offset";
  let len = String.length data in
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let stream_pos = offset + !pos in
    let block_index = stream_pos / 16 in
    let in_block = stream_pos mod 16 in
    let keystream = encrypt_block key (counter_block nonce block_index) in
    let n = min (16 - in_block) (len - !pos) in
    for i = 0 to n - 1 do
      Bytes.set out (!pos + i)
        (Char.chr (Char.code data.[!pos + i] lxor Char.code keystream.[in_block + i]))
    done;
    pos := !pos + n
  done;
  Bytes.to_string out
