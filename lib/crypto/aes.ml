(* AES (FIPS 197), encryption direction only: CTR mode never runs the
   inverse cipher. The S-box is computed once from the GF(2^8) inverse,
   and each full round is 16 lookups into four 256-entry T-tables built
   from it, so no literal tables need to be transcribed. State and round
   keys are 32-bit big-endian column words held in native ints. *)

let xtime b =
  let b2 = b lsl 1 in
  if b land 0x80 <> 0 then (b2 lxor 0x1b) land 0xff else b2 land 0xff

let sbox =
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
  Array.init 256 (fun b ->
      let iv = inverse b in
      iv lxor rotl8 iv 1 lxor rotl8 iv 2 lxor rotl8 iv 3 lxor rotl8 iv 4 lxor 0x63)

(* [te0.(x)] is the MixColumns column (2s, s, s, 3s) for s = S(x), most
   significant byte first; [te1..te3] are its right rotations by one to
   three bytes, i.e. the same column entering from rows 1..3. *)
let te0, te1, te2, te3 =
  let ror w n = ((w lsr (8 * n)) lor (w lsl (32 - (8 * n)))) land 0xffffffff in
  let t0 =
    Array.map
      (fun s ->
        let s2 = xtime s in
        (s2 lsl 24) lor (s lsl 16) lor (s lsl 8) lor (s2 lxor s))
      sbox
  in
  (t0, Array.map (fun w -> ror w 1) t0, Array.map (fun w -> ror w 2) t0,
   Array.map (fun w -> ror w 3) t0)

type key = {
  round_keys : int array;  (* FIPS-197 schedule as 32-bit big-endian words *)
  rounds : int;            (* 10 for AES-128, 14 for AES-256 *)
}

let rcon = [| 0x01; 0x02; 0x04; 0x08; 0x10; 0x20; 0x40; 0x80; 0x1b; 0x36 |]

let sub_word w =
  (sbox.(w lsr 24) lsl 24)
  lor (sbox.((w lsr 16) land 0xff) lsl 16)
  lor (sbox.((w lsr 8) land 0xff) lsl 8)
  lor sbox.(w land 0xff)

let expand raw =
  let nk =
    match String.length raw with
    | 16 -> 4
    | 32 -> 8
    | n -> invalid_arg (Printf.sprintf "Aes.expand: key must be 16 or 32 bytes, got %d" n)
  in
  let rounds = nk + 6 in
  let w = Array.make (4 * (rounds + 1)) 0 in
  for i = 0 to nk - 1 do
    w.(i) <- Int32.to_int (String.get_int32_be raw (4 * i)) land 0xffffffff
  done;
  for i = nk to Array.length w - 1 do
    let t = w.(i - 1) in
    let t =
      if i mod nk = 0 then
        (* RotWord + SubWord + Rcon *)
        sub_word (((t lsl 8) lor (t lsr 24)) land 0xffffffff) lxor (rcon.((i / nk) - 1) lsl 24)
      else if nk > 6 && i mod nk = 4 then sub_word t
      else t
    in
    w.(i) <- w.(i - nk) lxor t
  done;
  { round_keys = w; rounds }

(* One output column of a full round, and of the last round (SubBytes +
   ShiftRows + AddRoundKey, no MixColumns). Every word stays below 2^32,
   so [lsr 24] and [land 0xff] are always valid table indices and the
   unchecked reads are safe. *)
let[@inline] column rk a b c d k =
  Array.unsafe_get te0 (a lsr 24)
  lxor Array.unsafe_get te1 ((b lsr 16) land 0xff)
  lxor Array.unsafe_get te2 ((c lsr 8) land 0xff)
  lxor Array.unsafe_get te3 (d land 0xff)
  lxor Array.unsafe_get rk k

let[@inline] last_column rk a b c d k =
  (Array.unsafe_get sbox (a lsr 24) lsl 24)
  lor (Array.unsafe_get sbox ((b lsr 16) land 0xff) lsl 16)
  lor (Array.unsafe_get sbox ((c lsr 8) land 0xff) lsl 8)
  lor Array.unsafe_get sbox (d land 0xff)
  lxor Array.unsafe_get rk k

let[@inline] get_word b i =
  (Char.code (Bytes.unsafe_get b i) lsl 24)
  lor (Char.code (Bytes.unsafe_get b (i + 1)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (i + 2)) lsl 8)
  lor Char.code (Bytes.unsafe_get b (i + 3))

let[@inline] set_word b i w =
  Bytes.unsafe_set b i (Char.unsafe_chr (w lsr 24));
  Bytes.unsafe_set b (i + 1) (Char.unsafe_chr ((w lsr 16) land 0xff));
  Bytes.unsafe_set b (i + 2) (Char.unsafe_chr ((w lsr 8) land 0xff));
  Bytes.unsafe_set b (i + 3) (Char.unsafe_chr (w land 0xff))

(* Encrypt the 16-byte [src] into the 16-byte [dst] without allocating. *)
let encrypt_into { round_keys = rk; rounds } src dst =
  let s0 = ref (get_word src 0 lxor rk.(0)) and s1 = ref (get_word src 4 lxor rk.(1))
  and s2 = ref (get_word src 8 lxor rk.(2)) and s3 = ref (get_word src 12 lxor rk.(3)) in
  for r = 1 to rounds - 1 do
    let a = !s0 and b = !s1 and c = !s2 and d = !s3 and k = 4 * r in
    s0 := column rk a b c d k;
    s1 := column rk b c d a (k + 1);
    s2 := column rk c d a b (k + 2);
    s3 := column rk d a b c (k + 3)
  done;
  let a = !s0 and b = !s1 and c = !s2 and d = !s3 and k = 4 * rounds in
  set_word dst 0 (last_column rk a b c d k);
  set_word dst 4 (last_column rk b c d a (k + 1));
  set_word dst 8 (last_column rk c d a b (k + 2));
  set_word dst 12 (last_column rk d a b c (k + 3))

let encrypt_block key block =
  if String.length block <> 16 then invalid_arg "Aes: block must be 16 bytes";
  let out = Bytes.create 16 in
  encrypt_into key (Bytes.of_string block) out;
  Bytes.unsafe_to_string out

(* Add one to the big-endian counter in bytes 8..15, carrying leftward
   and wrapping modulo 2^64. *)
let rec increment counter i =
  if i >= 8 then begin
    let v = (Char.code (Bytes.unsafe_get counter i) + 1) land 0xff in
    Bytes.unsafe_set counter i (Char.unsafe_chr v);
    if v = 0 then increment counter (i - 1)
  end

(* The counter is the nonce's trailing 8 bytes as a big-endian integer,
   incremented modulo 2^64; the leading 8 bytes never change. *)
let ctr_at ~key ~nonce ~offset data =
  if offset < 0 then invalid_arg "Aes.ctr_at: negative offset";
  if String.length nonce <> 16 then invalid_arg "Aes.ctr: nonce must be 16 bytes";
  let len = String.length data in
  let out = Bytes.create len in
  let counter = Bytes.of_string nonce and keystream = Bytes.create 16 in
  Bytes.set_int64_be counter 8
    (Int64.add (String.get_int64_be nonce 8) (Int64.of_int (offset / 16)));
  let pos = ref 0 and in_block = ref (offset mod 16) in
  while !pos < len do
    encrypt_into key counter keystream;
    let n = min (16 - !in_block) (len - !pos) in
    for i = 0 to n - 1 do
      Bytes.unsafe_set out (!pos + i)
        (Char.unsafe_chr
           (Char.code (String.unsafe_get data (!pos + i))
           lxor Char.code (Bytes.unsafe_get keystream (!in_block + i))))
    done;
    pos := !pos + n;
    in_block := 0;
    increment counter 15
  done;
  Bytes.unsafe_to_string out

let ctr ~key ~nonce data = ctr_at ~key ~nonce ~offset:0 data
