(* The negotiated policy VM: canonical codec round-trips, decoder
   fuzzing (mutated blobs must error or terminate within fuel, never
   crash or over-charge), and the differential guarantee — the five
   builtin DSL programs, and every policy the service resolves by
   name, reproduce the native modules' verdicts, findings and modelled
   cycles bit for bit. *)

open Toolchain

let db = Libc.hash_db Libc.V1_0_5
let exempt = Libc.function_names

let native_policies () =
  [
    Engarde.Policy_libc.make ~db ();
    Engarde.Policy_stack.make ~exempt ();
    Engarde.Policy_ifcc.make ();
    Engarde.Policy_lint.make ();
    Engarde.Policy_sanitize.make ();
  ]

(* The natives behind the four EGNATIVE1 markers, in registry order. *)
let marker_policies () =
  [
    Engarde.Policy_stack.make ~exempt ~mode:`Pattern ();
    Engarde.Policy_ifcc.make ~mode:`Pattern ();
    Engarde.Policy_stack.make ~exempt ~depth:`Interproc ();
    Engarde.Policy_ifcc.make ~depth:`Interproc ();
  ]

let vm_policies vm_perf =
  List.map (fun (_, p) -> Policyvm.Vm.policy ~vm_perf p) (Policyvm.Builtin.all ~db ~exempt)

let show_verdict (name, v) = name ^ ": " ^ Engarde.Policy.verdict_to_string v

(* Run the same image through three sides on fresh contexts — the nine
   native constructors; the DSL programs followed by the marker
   natives; and what the service resolves for every known policy name —
   and require identical results and identical modelled cycles on every
   counter. *)
let check_differential what img =
  let run policies =
    let report = Engarde.Report.create () in
    let ctx = Judged.context_of_image ~report img in
    (Engarde.Policy.run_all ctx policies, report)
  in
  let native = run (native_policies () @ marker_policies ()) in
  let vm_perf = Sgx.Perf.create () in
  let vm = run (vm_policies vm_perf @ marker_policies ()) in
  let service =
    match Service.Scheduler.policies_of_names ~db Service.Scheduler.known_policies with
    | Ok ps -> run ps
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  let same side (res_n, rep_n) (res_s, rep_s) =
    if res_n <> res_s then begin
      let dump res = String.concat "\n  " (List.map show_verdict res) in
      Alcotest.failf "%s: verdicts differ\nnative:\n  %s\n%s:\n  %s" what (dump res_n) side
        (dump res_s)
    end;
    let pair p = (Sgx.Perf.native_cycles p, Sgx.Perf.sgx_instructions p) in
    let check counter a b =
      Alcotest.(check (pair int int)) (Printf.sprintf "%s: %s %s cycles" what side counter)
        (pair a) (pair b)
    in
    Engarde.Report.(
      check "policy" rep_n.policy rep_s.policy;
      check "cfg" rep_n.cfg rep_s.cfg;
      check "callgraph" rep_n.callgraph rep_s.callgraph;
      check "summary" rep_n.summary rep_s.summary;
      check "analysis" rep_n.analysis rep_s.analysis)
  in
  same "vm" native vm;
  same "service" native service;
  Alcotest.(check bool)
    (what ^ ": vm overhead metered") true
    (Sgx.Perf.native_cycles vm_perf > 0)

let differential_small () =
  check_differential "mcf/plain" (Linker.link (Workloads.build Codegen.plain Workloads.Mcf));
  check_differential "mcf/stack"
    (Linker.link (Workloads.build Codegen.with_stack_protector Workloads.Mcf));
  check_differential "mcf/ifcc"
    (Linker.link (Workloads.build Codegen.with_ifcc Workloads.Mcf));
  List.iter
    (fun adv ->
      check_differential
        ("adversarial/" ^ Workloads.adversarial_to_string adv)
        (Linker.link_adversarial adv))
    Workloads.adversarial_all

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let builtin_programs () = Policyvm.Builtin.all ~db ~exempt

let roundtrip () =
  List.iter
    (fun (short, p) ->
      let blob = Policyvm.Encode.to_bytes p in
      match Policyvm.Encode.decode blob with
      | Error e -> Alcotest.failf "%s: decode failed: %s" short e
      | Ok p' ->
          Alcotest.(check bool) (short ^ ": roundtrip") true (p = p');
          Alcotest.(check string)
            (short ^ ": canonical")
            (Policyvm.Encode.digest_hex p) (Policyvm.Encode.digest_hex p'))
    (builtin_programs ())

let digests_distinct () =
  let ds = List.map (fun (_, p) -> Policyvm.Encode.digest_hex p) (builtin_programs ()) in
  Alcotest.(check int) "distinct" (List.length ds) (List.length (List.sort_uniq compare ds))

let reject_oversized () =
  let p = List.assoc "libc" (builtin_programs ()) in
  let too_big =
    { p with tables = [| List.init (Policyvm.Prog.max_table_entries + 1) (fun i -> (string_of_int i, "")) |] }
  in
  (match Policyvm.Encode.decode (Policyvm.Encode.to_bytes too_big) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized table accepted");
  match Policyvm.Encode.decode (Policyvm.Encode.to_bytes p ^ "\x00") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes accepted"

(* ------------------------------------------------------------------ *)
(* Negotiation: the digest round-trip                                  *)
(* ------------------------------------------------------------------ *)

let fast_provision =
  {
    Engarde.Provision.default_config with
    Engarde.Provision.epc_pages = 4096;
    heap_pages = 512;
    bootstrap_pages = 8;
    image_pages = 1600;
    rsa_bits = 512;
  }

let service_config =
  {
    Service.Scheduler.default_config with
    Service.Scheduler.workers = 1;
    audit = true;
    provision = fast_provision;
  }

(* One job end to end: the program-set digest the scheduler computes is
   the one the enclave measures, the client offers, the verdict
   carries, the audit leaf records, and the cache key folds in. *)
let negotiation_e2e () =
  let img = Linker.link (Workloads.build Codegen.with_stack_protector Workloads.Mcf) in
  let names = [ "libc"; "stack" ] in
  let t = Service.Scheduler.create service_config in
  let expected = Service.Scheduler.programs_digest t names in
  Alcotest.(check int) "digest is a SHA-256" 32 (String.length expected);
  (match
     Service.Scheduler.submit t
       { Service.Scheduler.client = "e2e"; payload = img.Linker.elf; policy_names = names }
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "submit: %s" e);
  let v =
    match Service.Scheduler.run_until_idle t with
    | [ { Service.Scheduler.verdict = Ok v; _ } ] -> v
    | _ -> Alcotest.fail "expected one successful completion"
  in
  Alcotest.(check bool) "accepted" true v.Service.Cache.accepted;
  Alcotest.(check string)
    "verdict carries the negotiated digest" (Crypto.Sha256.hex expected)
    (Crypto.Sha256.hex v.Service.Cache.programs_digest);
  (* the digest is bound into the enclave measurement: replaying the
     build with it reproduces the judging measurement, without it the
     identity is a different enclave *)
  let pcfg digest =
    {
      fast_provision with
      Engarde.Provision.policy_names = names;
      policy_digest = digest;
    }
  in
  Alcotest.(check string)
    "measurement binds the digest"
    (Crypto.Sha256.hex (Engarde.Provision.expected_measurement (pcfg expected)))
    (Crypto.Sha256.hex v.Service.Cache.measurement);
  Alcotest.(check bool)
    "digest-free measurement differs" true
    (Engarde.Provision.expected_measurement (pcfg "") <> v.Service.Cache.measurement);
  (* the audit leaf records it *)
  (match Service.Scheduler.audit_log t with
  | None -> Alcotest.fail "audit log missing"
  | Some log -> (
      match Audit.Log.leaf log 0 with
      | Some leaf ->
          Alcotest.(check string)
            "audit leaf records the digest" (Crypto.Sha256.hex expected)
            (Crypto.Sha256.hex leaf.Audit.Log.programs_digest)
      | None -> Alcotest.fail "no audit leaf"));
  (* and the cache key separates program sets *)
  let key d =
    Service.Cache.key ~payload:img.Linker.elf ~policy_names:names
      ~libc_db_version:"1.0.5" ~programs_digest:d
  in
  Alcotest.(check bool) "cache key is digest-sensitive" true (key expected <> key "")

(* An authentic sealed blob from the previous state format must be
   refused as stale, not silently reused under the new cache keying. *)
let stale_sealed_state () =
  let t = Service.Scheduler.create service_config in
  let device = Sgx.Quote.device_create ~seed:"policyvm-stale-state" in
  let measurement = Service.Scheduler.measurement t in
  let counter =
    Sgx.Quote.counter_read device ~id:(Service.Scheduler.state_counter_id t)
  in
  let v1_blob =
    Audit.Seal.seal
      ~key:(Sgx.Quote.seal_key device ~measurement)
      ~measurement ~counter "EGSTATE1"
  in
  match Service.Scheduler.load_state t ~device v1_blob with
  | Error (Audit.Seal.Stale { sealed = 1; current = 2 }) -> ()
  | Error e -> Alcotest.failf "unexpected error: %s" (Audit.Seal.error_to_string e)
  | Ok _ -> Alcotest.fail "v1 sealed state accepted"

(* ------------------------------------------------------------------ *)
(* Fuzz                                                                *)
(* ------------------------------------------------------------------ *)

let flip_byte s pos delta =
  let b = Bytes.of_string s in
  let pos = pos mod Bytes.length b in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor (1 + (delta mod 255))));
  Bytes.to_string b

let builtin_blobs =
  lazy (List.map (fun (_, p) -> Policyvm.Encode.to_bytes p) (builtin_programs ()))

let tiny_ctx =
  lazy
    (Judged.context_of_image (Linker.link_adversarial Workloads.Jump_past_mask))

(* A mutated blob must either be rejected by the decoder or, if the
   mutation lands in a spot that keeps the program well-formed, run to
   a fuel-bounded completion without raising and without charging more
   than the per-node ceiling allows. *)
let fuzz_decoder =
  QCheck.Test.make ~name:"mutated blobs: reject, or bounded charged run" ~count:400
    QCheck.(triple (int_bound 3) small_nat small_nat)
    (fun (which, pos, delta) ->
      let blob = List.nth (Lazy.force builtin_blobs) which in
      match Policyvm.Encode.decode (flip_byte blob pos delta) with
      | Error _ -> true
      | Ok p ->
          let ctx = Lazy.force tiny_ctx in
          let fuel = 200_000 in
          let before = Sgx.Perf.native_cycles ctx.Engarde.Policy.perf in
          let o = Policyvm.Vm.run ~fuel p ctx in
          let charged = Sgx.Perf.native_cycles ctx.Engarde.Policy.perf - before in
          let max_charge_per_node =
            Engarde.Costmodel.vm_charge_cap * Engarde.Costmodel.range_probe
          in
          o.Policyvm.Vm.vm_nodes <= fuel
          && charged <= o.Policyvm.Vm.vm_nodes * max_charge_per_node)

(* Mutating the inspected binary itself must never split the engines:
   whatever a byte flip does to the ELF, native modules and DSL
   programs still agree bit for bit (or the judge rejects the image
   before any policy runs, identically for both: the same front door). *)
let fuzz_differential =
  QCheck.Test.make ~name:"mutated binaries: DSL still equals native" ~count:60
    QCheck.(triple (int_bound 1) small_nat small_nat)
    (fun (which, pos, delta) ->
      let adv = List.nth Workloads.adversarial_all which in
      let img = Linker.link_adversarial adv in
      let elf = flip_byte img.Linker.elf pos delta in
      let judge policies =
        let report = Engarde.Report.create () in
        match Engarde.Provision.judge report ~policies:[] elf with
        | Error r -> Error r
        | Ok j ->
            let res = Engarde.Policy.run_all j.Engarde.Provision.ctx policies in
            Ok
              ( res,
                List.map Sgx.Perf.native_cycles
                  Engarde.Report.[ report.policy; report.cfg; report.callgraph; report.summary ]
              )
      in
      match
        (judge (native_policies ()), judge (vm_policies (Sgx.Perf.create ())))
      with
      | Error r, Error r' -> r = r'
      | Ok n, Ok v -> n = v
      | _ -> false)

let tests =
  [
    ( "codec",
      [
        Alcotest.test_case "builtins round-trip canonically" `Quick roundtrip;
        Alcotest.test_case "program digests are distinct" `Quick digests_distinct;
        Alcotest.test_case "oversized and trailing input rejected" `Quick reject_oversized;
      ] );
    ( "differential",
      [
        Alcotest.test_case "DSL = native on mcf + adversarial" `Quick differential_small;
      ] );
    ( "negotiation",
      [
        Alcotest.test_case "digest round-trips measurement/leaf/key" `Quick
          negotiation_e2e;
        Alcotest.test_case "v1 sealed state is stale" `Quick stale_sealed_state;
      ] );
    ( "fuzz",
      List.map QCheck_alcotest.to_alcotest [ fuzz_decoder; fuzz_differential ] );
  ]

let () = Alcotest.run "policyvm" tests
