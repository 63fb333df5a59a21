(* Work with no external call boundary inside an op — AES, SHA-256, RSA
   keygen, HKDF, record sealing and opening, enclave build and
   measurement — is timed by replaying the public call on the op's own
   payload and sizes, after the op, under "replay:" spans that do not
   count toward the op. Payload replays use at most the first [cap]
   bytes: throughput does not depend on length, and a whole-payload
   replay of every primitive would outlast the op it describes. *)

let cap = 256 * 1024
let replayed_bytes = ref 0
let ops = ref 0

let crypto ~cfg payload =
  let data = if String.length payload > cap then String.sub payload 0 cap else payload in
  let n = String.length data in
  replayed_bytes := !replayed_bytes + n;
  incr ops;
  let key = Crypto.Aes.expand (String.make 32 '\x01') in
  let nonce = String.make 16 '\x00' in
  ignore (Span.replay "aes.ctr" (fun () -> Crypto.Aes.ctr ~key ~nonce data));
  ignore (Span.replay "sha256" (fun () -> Crypto.Sha256.digest data));
  ignore
    (Span.replay "rsa.keygen" (fun () ->
         Crypto.Rsa.generate
           (Crypto.Drbg.create (Printf.sprintf "perfbench-rsa-%d" !ops))
           ~bits:cfg.Engarde.Provision.rsa_bits));
  (* One derivation (of a session-key-sized secret) is microseconds;
     time a hundred and divide. *)
  let ikm = Crypto.Sha256.digest data in
  ignore
    (Span.replay "hkdf.derive_x100" (fun () ->
         for i = 1 to 100 do
           ignore (Crypto.Hkdf.derive ~salt:"perfbench" ~ikm ~info:(string_of_int i) 32)
         done));
  let secret = Channel.Record.traffic_secret ~key:(String.make 32 '\x02') in
  let records =
    Span.replay "record.seal" (fun () ->
        Channel.Record.payload_records (Channel.Record.writer ~secret) data)
  in
  let opened =
    Span.replay "record.open" (fun () ->
        let r = Channel.Record.reader ~secret in
        List.fold_left
          (fun ok w ->
            match w with
            | Channel.Wire.Record { epoch; rn; ciphertext; tag } -> (
                match Channel.Record.read r ~epoch ~rn ~ciphertext ~tag with
                | Channel.Record.Accept _ -> ok
                | _ -> false)
            | _ -> ok)
          true records)
  in
  if not opened then failwith "record replay: a sealed record failed to open"

(* The judging enclave's build at the template's sizes (bootstrap, heap
   and image pages), and the client's replay of its measurement. A
   fresh config seed defeats [Provision.expected_measurement]'s memo. *)
let enclave ~cfg =
  incr ops;
  let c = cfg.Engarde.Provision.bootstrap_pages + cfg.heap_pages + cfg.image_pages in
  ignore
    (Span.replay "enclave.build" (fun () ->
         let epc =
           Sgx.Epc.create ~pages:cfg.Engarde.Provision.epc_pages ~seed:"perfbench-epc" ()
         in
         let e =
           Sgx.Enclave.ecreate epc ~base:Engarde.Provision.enclave_base ~size:0x400_0000 ()
         in
         let zero = String.make Sgx.Epc.page_size '\x00' in
         for i = 0 to c - 1 do
           Sgx.Enclave.eadd e
             ~vaddr:(Engarde.Provision.enclave_base + (i * Sgx.Epc.page_size))
             ~perm:Sgx.Enclave.rw ~content:zero
         done;
         Sgx.Enclave.einit e));
  ignore
    (Span.replay "measurement" (fun () ->
         Engarde.Provision.expected_measurement
           { cfg with Engarde.Provision.seed = Printf.sprintf "perfbench-replay-%d" !ops }))

let layers tbl =
  let mb = float_of_int !replayed_bytes /. 1e6 in
  let rate name =
    let a = Span.find tbl ("replay:" ^ name) in
    if a.Span.total > 0. then mb /. a.Span.total else 0.
  in
  let note = "replay on the op's payload (first 256 KiB)" in
  [
    Common.layer ~note "aes.ctr_mb_per_s" "MB/s" (rate "aes.ctr");
    Common.layer ~note "sha256.mb_per_s" "MB/s" (rate "sha256");
    Common.layer ~note:"replay at the template's key size" "rsa.keygen_s" "s"
      (Span.mean_dur tbl "replay:rsa.keygen");
    Common.layer ~note:"replay, mean of 100 derivations" "hkdf.derive_s" "s"
      (Span.mean_dur tbl "replay:hkdf.derive_x100" /. 100.);
    Common.layer ~note "record.seal_s" "s" (Span.mean_dur tbl "replay:record.seal");
    Common.layer ~note "record.open_s" "s" (Span.mean_dur tbl "replay:record.open");
  ]
  @
  if (Span.find tbl "replay:enclave.build").Span.count = 0 then []
  else
    [
      Common.layer ~note:"replay at the template's page counts" "enclave.build_s" "s"
        (Span.mean_dur tbl "replay:enclave.build");
      Common.layer ~note:"replay of the client's measurement computation" "measurement.replay_s"
        "s" (Span.mean_dur tbl "replay:measurement");
    ]
