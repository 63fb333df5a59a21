(** AES-128/AES-256 block cipher (FIPS 197) plus CTR-mode streaming.

    The SGX model uses AES to encrypt EPC pages at rest, and the
    provisioning channel uses AES-256-CTR for the client's code blocks
    (the paper's client wraps a 256-bit AES key under the enclave's RSA
    public key and then streams encrypted content). *)

type key
(** An expanded (encryption) key schedule. CTR mode only ever runs the
    forward cipher, so no decryption schedule is kept. *)

val expand : string -> key
(** [expand raw] builds the schedule from a 16-byte (AES-128) or 32-byte
    (AES-256) raw key.
    @raise Invalid_argument on any other key length. *)

val encrypt_block : key -> string -> string
(** Encrypt exactly one 16-byte block. *)

val ctr : key:key -> nonce:string -> string -> string
(** [ctr ~key ~nonce data] en/decrypts [data] (any length) in CTR mode.
    [nonce] is 16 bytes and forms the initial counter block; the counter
    occupies the last 8 bytes, big-endian. CTR is an involution: applying
    it twice with the same parameters returns the original data. *)

val ctr_at : key:key -> nonce:string -> offset:int -> string -> string
(** Like {!ctr} but starts the keystream at byte [offset] of the stream,
    allowing out-of-order block decryption ([offset] need not be a
    multiple of 16). *)
