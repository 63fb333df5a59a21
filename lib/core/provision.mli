(** End-to-end enclave provisioning (paper, Figure 1 and Section 3).

    The provider creates a fresh enclave containing the EnGarde
    bootstrap (crypto library, loader, the agreed policy modules) plus a
    preallocated heap (OpenSGX commits all enclave memory at build time;
    the paper raises the initial heap to 5000 page frames). The client
    attests the enclave, wraps an AES-256 session key under the
    enclave's ephemeral RSA key, and streams its executable in encrypted
    blocks. EnGarde decrypts, validates the ELF header, rejects stripped
    binaries and mixed code/data pages, disassembles under the NaCl
    constraints, runs every policy module, and only then loads,
    relocates, applies W^X and seals the enclave. The provider learns
    the verdict and the executable page list — nothing else. *)

type config = {
  epc_pages : int;           (** 32000 in the paper's OpenSGX patch *)
  heap_pages : int;          (** 5000 initial heap frames, per the paper *)
  bootstrap_pages : int;     (** pages of EnGarde runtime measured in *)
  image_pages : int;         (** pages committed for the client image
                                 (SGX1: all memory committed at build) *)
  rsa_bits : int;            (** enclave ephemeral keypair; 2048 in the
                                 paper, smaller keeps tests fast *)
  stack_pages : int;
  seed : string;             (** all protocol randomness derives from it *)
  policy_names : string list;
      (** measured into the enclave: changing the agreed policy set
          changes the measurement the client expects *)
  policy_digest : string;
      (** {!Channel.Session.policy_set_digest} of the negotiated policy
          programs, measured into the enclave as an ["EGPOLICY"] record;
          [""] disables the negotiation step entirely *)
}

val default_config : config

val enclave_base : int
val image_region_base : int
(** Where the client image lands inside the enclave (= load bias). *)

type rejection =
  | Transfer_tampered of string   (** block authentication failed *)
  | Bad_elf of string             (** header validation failure *)
  | Stripped_binary               (** no symbol table: auto-rejected *)
  | Mixed_pages of string
  | Disassembly_failed of string  (** NaCl constraint violation *)
  | Policy_violations of (string * Policy.verdict) list
  | Load_failed of string

val rejection_to_string : rejection -> string

type channel = [ `Legacy | `Streaming ]
(** Which transfer flavor carries the payload: the paper-faithful
    [Code_block] channel, or the EGREC1 streaming record layer with
    pipelined inspection (and, with a ticket, 0-RTT resumption). Both
    produce bit-identical verdicts, findings, and modelled cycles. *)

type channel_stats = {
  records : int;          (** records the inspector ingested *)
  record_bytes : int;     (** ciphertext bytes across those records *)
  in_flight_peak : int;   (** peak queued wire bytes during the transfer *)
  epoch_updates : int;    (** key ratchets the reader followed *)
  resumed : bool;         (** this run rode a 0-RTT ticket *)
  fallback : bool;        (** a 0-RTT attempt fell back to a full handshake *)
  spec_hashes : int;      (** function digests computed while pages were in flight *)
  spec_adopted : int;     (** of those, adopted after byte-for-byte verification *)
}

(** Progress callbacks from the provisioning pipeline, for latency
    instrumentation (e.g. time-to-first-policy-relevant-event, measured
    from [Transfer_started]). The legacy channel emits only
    [Transfer_started] and [Policy_phase] — everything in between is
    its monolithic receive-then-inspect block. *)
type pipeline_event =
  | Transfer_started        (** the client is about to stream code bytes *)
  | Prefix_validated        (** the staged prefix parses as ELF64 *)
  | Speculative_hash of { addr : int }
      (** a batch of speculative function digests landed; [addr] is the
          first function's address *)
  | Policy_phase            (** authoritative inspection reached the policy run *)

type outcome = {
  result : (Loader.loaded, rejection) result;
  report : Report.t;
  policy_results : (string * Policy.verdict) list;
  measurement : string;
  enclave : Sgx.Enclave.t;
  host : Sgx.Host_os.t;
  client_verdict : (bool * string) option;
      (** what the client read back over the channel; [None] also when a
          negotiated run saw no (or a wrong) [Policy_accept] *)
  attestation_failure : Channel.Client.failure option;
  negotiated_digest : string option;
      (** the policy-set digest the enclave verified against its
          measurement; [None] when no negotiation happened or the offer
          was rejected *)
  channel_stats : channel_stats option;
      (** streaming-channel telemetry; [None] on the legacy channel *)
  ticket : (string * string) option;
      (** the client's stash after an accepted streaming run: the sealed
          ticket blob and the resumption secret to present it with
          (feed back as [?resume] to skip the next RSA handshake) *)
}

val findings : outcome -> Policy.finding list
(** Every structured violation across the outcome's policy results, in
    run order (and, within one policy, ascending address order). *)

val expected_measurement : config -> string
(** What both parties compute for a correctly built EnGarde enclave —
    pure replay of the build log, no EPC needed. *)

(** Resumption tickets: sealed under the inspector's SGX sealing key,
    binding the enclave measurement, the negotiated policy-set digest,
    and a provider-chosen key epoch. Deterministic SIV-style sealing —
    the plaintext MAC doubles as the CTR nonce. Exposed so tests and
    tooling can mint or examine tickets; {!run} seals and unseals its
    own. *)
module Ticket : sig
  val blob_len : int
  val secret_len : int

  val seal :
    Sgx.Quote.device ->
    measurement:string ->
    policy_digest:string ->
    epoch:int ->
    resumption:string ->
    string

  val unseal :
    Sgx.Quote.device ->
    measurement:string ->
    policy_digest:string ->
    epoch:int ->
    string ->
    (string, string) result
  (** The sealed resumption secret, or why the ticket was refused
      (unparseable, stale epoch, failed authentication, measurement or
      policy-digest mismatch). *)
end

(** The staged streaming ingest: records feed in as they arrive, stream
    bytes land in enclave staging immediately (the same charged writes
    the legacy drain performs), the ELF prefix is validated as soon as
    it lands, and — given a [Meta] hint — per-function digests are
    computed speculatively (optionally on a domain pool) while later
    pages are still in flight. Speculative work is uncharged and
    advisory; {!run}'s inspection adopts a digest only after verifying
    the hashed bytes against the authoritative parse. *)
module Pipeline : sig
  exception Corrupt of string
  (** Raised by {!feed} when the record stream fails authentication or
      framing — the provisioning attempt is rejected as tampered. *)

  type stats = {
    p_records : int;
    p_record_bytes : int;
    p_epoch_updates : int;
    p_spec_hashes : int;
  }

  type t

  val create :
    enclave:Sgx.Enclave.t ->
    staging:int ->
    secret:string ->
    ?hash_runner:Analysis.hash_runner ->
    ?on_event:(pipeline_event -> unit) ->
    unit ->
    t

  val feed : t -> Channel.Wire.t -> unit
  (** Ingest one wire message; non-[Record] traffic is ignored. *)

  val finished : t -> (int * string) option
  (** [(total_len, digest)] once the [Fin] record arrived. *)

  val speculative : t -> (int * int * int * string) list
  (** The speculative digests: [(lo, hi, src_off, sha256_hex)]. *)

  val stats : t -> stats
end

(** What {!judge} hands back for bytes it accepts. *)
type judged = {
  elf : Elf64.Reader.t;              (** the parsed header, for the loader *)
  ctx : Policy.context;              (** the shared analysis the policies ran on *)
  results : (string * Policy.verdict) list;  (** every policy compliant *)
  spec_adopted : int;                (** speculative digests that survived verification *)
}

val judge :
  ?spec:(int * int * int * string) list ->
  ?hash_runner:Analysis.hash_runner ->
  ?on_event:(pipeline_event -> unit) ->
  Report.t ->
  policies:Policy.t list ->
  string ->
  (judged, rejection) result
(** The enclave's bytes-to-verdict path, exactly as {!run} runs it on
    the staged file before loading, and the one every static caller
    ([engarde inspect], [lint], [cfg], the benchmarks, the tests) uses
    too. In order: parse the ELF header ([Bad_elf]); reject a binary
    without function symbols ([Stripped_binary]); check code and data
    never share a page ([Mixed_pages]); require exactly one executable
    section ([Bad_elf "no executable section"] /
    [Bad_elf "multiple text sections unsupported"]); disassemble it
    under the NaCl constraints from an off-heap copy
    ([Disassembly_failed]); build the policy context on the report's
    perf streams (disassembly, analysis, cfg, callgraph, summary,
    policy); adopt the [spec] digests ([(lo, hi, src_off, sha256_hex)],
    see {!Pipeline.speculative}) whose bytes match the text section;
    prehash function digests on [hash_runner]; emit [Policy_phase];
    run [policies]. Any non-compliant verdict is
    [Error (Policy_violations results)]. Malformed bytes come back as
    [Error]; they never raise. [report.instructions] is set once the
    disassembly succeeds. *)

val run :
  ?tamper:(Channel.Wire.t -> Channel.Wire.t) ->
  ?hash_runner:Analysis.hash_runner ->
  ?policies:(Policy.t list) ->
  ?programs:(string * string) list ->
  ?channel:channel ->
  ?resume:(string * string) ->
  ?ticket_epoch:int ->
  ?on_event:(pipeline_event -> unit) ->
  config ->
  payload:string ->
  outcome
(** Execute the whole protocol over a loopback transport. [tamper]
    models an adversary on the untrusted path. [policies] defaults to
    none (pure loading); pass the agreed modules for compliance runs.
    [programs] is what the client offers in the negotiation step; when
    [config.policy_digest] is non-empty the enclave requires an offer
    hashing to exactly that digest before accepting any code.
    [hash_runner] (e.g. a domain pool's [run_all]) lets the inspection
    prehash candidate function digests in parallel before the policies
    run; it never changes verdicts or modelled cycles, only wall-clock
    time.

    [channel] defaults to [`Legacy] (the paper-faithful block
    transfer). [`Streaming] carries the payload as EGREC1 records with
    pipelined inspection; an accepted streaming run also issues a
    resumption ticket (see [outcome.ticket]). Pass that pair back as
    [resume] to attempt 0-RTT: the client streams immediately under
    ticket-derived keys and the RSA handshake (and quote generation) is
    skipped entirely. A stale or mismatched ticket falls back to the
    full handshake transparently — the run still completes, with
    [channel_stats.fallback] set. [ticket_epoch] is the provider's
    ticket-key generation; bumping it invalidates all outstanding
    tickets. [on_event] observes pipeline progress.

    The run takes four steps, each written once for both channels:
    establish keys (cold handshake, 0-RTT, or fallback); receive the
    payload into enclave staging; {!judge} the staged bytes, then load
    them; send the verdict (and, for an accepted streaming run, a
    ticket) and read it back as the client.

    Returns the outcome whatever happened: [result] is the loaded image
    or the enclave's rejection (a client that refuses the quote leaves
    [Transfer_tampered] with [attestation_failure] set and nothing
    judged); [policy_results] are the verdicts the judge reached, also
    on [Policy_violations], empty when it never got that far;
    [client_verdict] is what the client honoured by
    {!Channel.Client.read_reply}; [report] carries every modelled cycle
    the run charged. *)
