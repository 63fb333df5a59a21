(* The interprocedural analysis tier: call graph construction, function
   summaries, the intra/interproc gap pairs on the adversarial fixtures
   (each pinned to its exact vaddr), the sanitize entry-point policy,
   and qcheck totality of the new machinery on mutated buffers. *)

open Toolchain

let adversarial_ctx adv = Judged.context_of_image (Linker.link_adversarial adv)
let why = Engarde.Policy.verdict_to_string

let find_insns (ctx : Engarde.Policy.context) pred =
  Array.to_list ctx.Engarde.Policy.buffer.Engarde.Disasm.entries
  |> List.filter_map (fun (e : Engarde.Disasm.entry) ->
         if pred e.Engarde.Disasm.insn then Some e.Engarde.Disasm.addr else None)

let the_indirect_call ctx =
  match
    find_insns ctx (fun i ->
        match i.X86.Insn.mnem with X86.Insn.CALL_IND -> true | _ -> false)
  with
  | [ a ] -> a
  | l -> Alcotest.failf "expected one indirect call, found %d" (List.length l)

let stack_policy ?depth () =
  Engarde.Policy_stack.make ~exempt:Libc.function_names ?depth ()

(* ------------------------------------------------------------------ *)
(* Gap pairs: intra accepts, interproc rejects (and the converse)      *)
(* ------------------------------------------------------------------ *)

let jump_into_mask_gap () =
  let ctx = adversarial_ctx Workloads.Jump_into_mask in
  let call_addr = the_indirect_call ctx in
  (* Within its own CFG the mask dominates the call: intra accepts. *)
  (match (Engarde.Policy_ifcc.make ()).Engarde.Policy.check ctx with
  | Engarde.Policy.Compliant -> ()
  | v -> Alcotest.failf "intra flow unexpectedly rejected: %s" (why v));
  (* The jump-into edge from [evil] voids the single-entry assumption. *)
  match
    (Engarde.Policy_ifcc.make ~depth:`Interproc ()).Engarde.Policy.check ctx
  with
  | Engarde.Policy.Compliant -> Alcotest.fail "interproc accepted the jumped-into mask"
  | Engarde.Policy.Violations [ f ] ->
      Alcotest.(check string) "code" "ifcc-unmasked-interproc" f.Engarde.Policy.code;
      Alcotest.(check int) "finding at the call site" call_addr f.Engarde.Policy.addr
  | Engarde.Policy.Violations fs ->
      Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let tail_call_skip_gap () =
  let ctx = adversarial_ctx Workloads.Tail_call_skip in
  (* The tail jump to [tailee] is the first conditional branch of the
     buffer ([_start] emits none). *)
  let tail_jmp =
    match
      find_insns ctx (fun i ->
          match i.X86.Insn.mnem with X86.Insn.JCC _ -> true | _ -> false)
    with
    | first :: _ :: _ -> first
    | l -> Alcotest.failf "expected two conditional jumps, found %d" (List.length l)
  in
  (* Every [ret] is dominated by the compare: intra accepts. *)
  (match (stack_policy ()).Engarde.Policy.check ctx with
  | Engarde.Policy.Compliant -> ()
  | v -> Alcotest.failf "intra flow unexpectedly rejected: %s" (why v));
  match (stack_policy ~depth:`Interproc ()).Engarde.Policy.check ctx with
  | Engarde.Policy.Compliant -> Alcotest.fail "interproc accepted the canary-skipping tail call"
  | Engarde.Policy.Violations [ f ] ->
      Alcotest.(check string) "code" "stack-ret-unprotected-interproc"
        f.Engarde.Policy.code;
      Alcotest.(check int) "finding at the tail jump" tail_jmp f.Engarde.Policy.addr
  | Engarde.Policy.Violations fs ->
      Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

let mask_in_callee_precision () =
  let ctx = adversarial_ctx Workloads.Mask_in_callee in
  let call_addr = the_indirect_call ctx in
  (* Intra demotes every register at [callq mask_helper] and wrongly
     rejects the compliant caller. *)
  (match (Engarde.Policy_ifcc.make ()).Engarde.Policy.check ctx with
  | Engarde.Policy.Compliant -> Alcotest.fail "intra flow accepted (summary applied?)"
  | Engarde.Policy.Violations [ f ] ->
      Alcotest.(check string) "code" "ifcc-unmasked-on-path" f.Engarde.Policy.code;
      Alcotest.(check int) "finding at the call site" call_addr f.Engarde.Policy.addr
  | Engarde.Policy.Violations fs ->
      Alcotest.failf "expected exactly one finding, got %d" (List.length fs));
  (* The helper's summary carries the masked target across the call. *)
  match
    (Engarde.Policy_ifcc.make ~depth:`Interproc ()).Engarde.Policy.check ctx
  with
  | Engarde.Policy.Compliant -> ()
  | v -> Alcotest.failf "interproc rejected the compliant caller: %s" (why v)

let unsanitized_entry_findings () =
  let ctx = adversarial_ctx Workloads.Unsanitized_entry in
  let jcc_addr =
    match
      find_insns ctx (fun i ->
          match i.X86.Insn.mnem with X86.Insn.JCC _ -> true | _ -> false)
    with
    | [ a ] -> a
    | l -> Alcotest.failf "expected one conditional jump, found %d" (List.length l)
  in
  let mov_addr =
    match
      find_insns ctx (fun i -> X86.Insn.equal i (X86.Insn.mov_rr X86.Reg.RDI X86.Reg.RAX))
    with
    | [ a ] -> a
    | l -> Alcotest.failf "expected one rdi read, found %d" (List.length l)
  in
  match (Engarde.Policy_sanitize.make ()).Engarde.Policy.check ctx with
  | Engarde.Policy.Compliant -> Alcotest.fail "sanitize accepted the dirty entry"
  | Engarde.Policy.Violations [ f1; f2 ] ->
      (* [ecall_clean] scrubs first and contributes nothing. *)
      Alcotest.(check string) "flags code" "sanitize-unscrubbed-flags" f1.Engarde.Policy.code;
      Alcotest.(check int) "flags at the jcc" jcc_addr f1.Engarde.Policy.addr;
      Alcotest.(check string) "reg code" "sanitize-unscrubbed-reg" f2.Engarde.Policy.code;
      Alcotest.(check int) "reg at the mov" mov_addr f2.Engarde.Policy.addr
  | Engarde.Policy.Violations fs ->
      Alcotest.failf "expected exactly two findings, got %d" (List.length fs)

let sanitize_clean_workloads () =
  List.iter
    (fun bench ->
      let ctx =
        Judged.context_of_image (Linker.link (Workloads.build Codegen.plain bench))
      in
      match (Engarde.Policy_sanitize.make ()).Engarde.Policy.check ctx with
      | Engarde.Policy.Compliant -> ()
      | v ->
          Alcotest.failf "sanitize rejected clean %s: %s" (Workloads.to_string bench)
            (why v))
    Workloads.all

(* ------------------------------------------------------------------ *)
(* Call graph and summary structure                                    *)
(* ------------------------------------------------------------------ *)

let callgraph_structure () =
  let ctx = adversarial_ctx Workloads.Jump_into_mask in
  let idx = ctx.Engarde.Policy.index in
  let g = Engarde.Policy.callgraph_of ctx in
  let fns = idx.Engarde.Analysis.functions in
  let fi name =
    let rec go k =
      if k >= Array.length fns then Alcotest.failf "no function %s" name
      else if fns.(k).Engarde.Analysis.fn_name = name then k
      else go (k + 1)
    in
    go 0
  in
  let victim = fi "victim" and evil = fi "evil" in
  (* [evil] jumps mid-[victim]: exactly one jump-into edge, recorded on
     both endpoints. *)
  (match Engarde.Callgraph.jump_into g victim with
  | [ e ] ->
      Alcotest.(check int) "from evil" evil e.Engarde.Callgraph.e_from;
      Alcotest.(check int) "to victim" victim e.Engarde.Callgraph.e_to
  | l -> Alcotest.failf "expected one jump-into edge, found %d" (List.length l));
  (* The indirect call over-approximates to the table members — the
     jump-table entry stubs, each a function of its own; the stubs'
     [jmpq dest] bodies then add Tail edges to the real targets. *)
  let table = fi (Codegen.jump_table_entry_sym 0) and dest = fi "dest" in
  let has_indirect =
    List.exists
      (fun (e : Engarde.Callgraph.edge) ->
        e.Engarde.Callgraph.e_kind = Engarde.Callgraph.Indirect
        && e.Engarde.Callgraph.e_to = table)
      (Engarde.Callgraph.edges_from g victim)
  in
  Alcotest.(check bool) "indirect edge victim->table" true has_indirect;
  let has_tail =
    List.exists
      (fun (e : Engarde.Callgraph.edge) ->
        e.Engarde.Callgraph.e_kind = Engarde.Callgraph.Tail
        && e.Engarde.Callgraph.e_to = dest)
      (Engarde.Callgraph.edges_from g table)
  in
  Alcotest.(check bool) "tail edge table->dest" true has_tail;
  (* bottom_up is a permutation of the function indices. *)
  Alcotest.(check int) "bottom_up covers all functions" (Array.length fns)
    (Array.length g.Engarde.Callgraph.bottom_up);
  let seen = Array.make (Array.length fns) false in
  Array.iter (fun k -> seen.(k) <- true) g.Engarde.Callgraph.bottom_up;
  Alcotest.(check bool) "permutation" true (Array.for_all (fun b -> b) seen);
  Alcotest.(check bool) "charged" true (g.Engarde.Callgraph.build_cycles > 0)

let summaries_on_giant () =
  let ctx = adversarial_ctx (Workloads.Giant 8) in
  let g = Engarde.Policy.callgraph_of ctx in
  ignore g;
  let summary name =
    let fns = ctx.Engarde.Policy.index.Engarde.Analysis.functions in
    let f =
      match
        Array.to_list fns
        |> List.find_opt (fun (f : Engarde.Analysis.func) ->
               f.Engarde.Analysis.fn_name = name)
      with
      | Some f -> f
      | None -> Alcotest.failf "no function %s" name
    in
    match Engarde.Policy.summary_of ctx ~addr:f.Engarde.Analysis.fn_addr with
    | Some s -> s
    | None -> Alcotest.failf "no summary for %s" name
  in
  let s0 = summary "chain_0000" in
  Alcotest.(check bool) "chain returns" true s0.Engarde.Summary.s_returns;
  (* chain_0000 clobbers rax and rdx (and flags) but reads nothing the
     sanitize mask cares about. *)
  let rax = 1 lsl X86.Reg.number X86.Reg.RAX in
  let rdx = 1 lsl X86.Reg.number X86.Reg.RDX in
  Alcotest.(check bool) "clobbers rax" true (s0.Engarde.Summary.s_clobbers land rax <> 0);
  Alcotest.(check bool) "clobbers rdx" true (s0.Engarde.Summary.s_clobbers land rdx <> 0);
  Alcotest.(check int) "reads nothing host-controlled" 0
    (s0.Engarde.Summary.s_reads land Engarde.Summary.sanitize_mask);
  (* The memo: once every function's summary is computed, a second
     pass charges only the lookup constant. *)
  let fns = ctx.Engarde.Policy.index.Engarde.Analysis.functions in
  Engarde.Summary.compute_all ctx.Engarde.Policy.summaries (Sgx.Perf.create ())
    ctx.Engarde.Policy.index
    ~cfg:(fun fn -> Engarde.Policy.cfg_of ctx fn)
    ~callgraph:(Engarde.Policy.callgraph_of ctx);
  let perf2 = Sgx.Perf.create () in
  Array.iter
    (fun (f : Engarde.Analysis.func) ->
      ignore
        (Engarde.Summary.get ctx.Engarde.Policy.summaries perf2
           ctx.Engarde.Policy.index
           ~cfg:(fun fn -> Engarde.Policy.cfg_of ctx fn)
           ~callgraph:(Engarde.Policy.callgraph_of ctx)
           ~addr:f.Engarde.Analysis.fn_addr))
    fns;
  Alcotest.(check int) "second pass is pure lookup"
    (Array.length fns * Engarde.Costmodel.summary_memo_lookup)
    (Sgx.Perf.native_cycles perf2)

let mask_in_callee_summary () =
  let ctx = adversarial_ctx Workloads.Mask_in_callee in
  let fns = ctx.Engarde.Policy.index.Engarde.Analysis.functions in
  let helper =
    match
      Array.to_list fns
      |> List.find_opt (fun (f : Engarde.Analysis.func) ->
             f.Engarde.Analysis.fn_name = "mask_helper")
    with
    | Some f -> f
    | None -> Alcotest.fail "no mask_helper"
  in
  match Engarde.Policy.summary_of ctx ~addr:helper.Engarde.Analysis.fn_addr with
  | None -> Alcotest.fail "no summary for mask_helper"
  | Some s -> (
      let rcx = X86.Reg.number X86.Reg.RCX in
      match List.assoc_opt rcx s.Engarde.Summary.s_masks with
      | Some (Engarde.Dataflow.Regs.Target (base, tgt)) ->
          let idx = ctx.Engarde.Policy.index in
          Alcotest.(check bool) "base in table" true (Engarde.Analysis.in_table idx base);
          Alcotest.(check bool) "target in table" true (Engarde.Analysis.in_table idx tgt)
      | Some _ -> Alcotest.fail "rcx summary is not a masked target"
      | None -> Alcotest.fail "helper summary carries no rcx fact")

(* ------------------------------------------------------------------ *)
(* qcheck: totality and closure on mutated buffers                     *)
(* ------------------------------------------------------------------ *)

let base_ctx = lazy (adversarial_ctx Workloads.Tail_call_skip)

let mutate (buffer : Engarde.Disasm.buffer) muts =
  let entries = Array.copy buffer.Engarde.Disasm.entries in
  let n = Array.length entries in
  List.iter
    (fun (pos, kind) ->
      if n > 0 then begin
        let i = pos mod n in
        let e = entries.(i) in
        let rel = (kind * 7 mod 257) - 128 in
        let insn =
          match kind mod 8 with
          | 0 -> X86.Insn.jmp rel
          | 1 -> X86.Insn.jcc X86.Insn.NE rel
          | 2 -> X86.Insn.ret
          | 3 -> X86.Insn.call_ind X86.Reg.RCX
          | 4 -> X86.Insn.nop
          | 5 -> X86.Insn.ud2
          | 6 -> X86.Insn.jmp_ind X86.Reg.RAX
          | _ -> X86.Insn.call rel
        in
        entries.(i) <- { e with Engarde.Disasm.insn }
      end)
    muts;
  { buffer with Engarde.Disasm.entries }

let mutated_ctx muts =
  let ctx = Lazy.force base_ctx in
  let buffer = mutate ctx.Engarde.Policy.buffer muts in
  Engarde.Policy.context ~perf:(Sgx.Perf.create ()) buffer ctx.Engarde.Policy.symbols

(* Callgraph.build never raises, and every edge stays inside the
   function table with its site inside the source function. *)
let callgraph_total =
  let gen = QCheck.Gen.(list_size (int_range 0 48) (pair nat (int_bound 4096))) in
  QCheck.Test.make ~count:200 ~name:"callgraph closed on mutated buffers"
    (QCheck.make gen) (fun muts ->
      let ctx = mutated_ctx muts in
      let idx = ctx.Engarde.Policy.index in
      let g = Engarde.Policy.callgraph_of ctx in
      let fns = idx.Engarde.Analysis.functions in
      let n = Array.length fns in
      Array.for_all
        (fun (e : Engarde.Callgraph.edge) ->
          e.Engarde.Callgraph.e_from >= 0
          && e.Engarde.Callgraph.e_from < n
          && e.Engarde.Callgraph.e_to >= 0
          && e.Engarde.Callgraph.e_to < n
          &&
          let f = fns.(e.Engarde.Callgraph.e_from) in
          e.Engarde.Callgraph.e_addr >= f.Engarde.Analysis.fn_addr
          && e.Engarde.Callgraph.e_addr < f.Engarde.Analysis.fn_end)
        g.Engarde.Callgraph.edges
      && Array.length g.Engarde.Callgraph.bottom_up = n)

(* Summary.get is total and the interprocedural policies never raise. *)
let summaries_total =
  let gen = QCheck.Gen.(list_size (int_range 0 32) (pair nat (int_bound 4096))) in
  QCheck.Test.make ~count:100 ~name:"summaries and interproc policies total"
    (QCheck.make gen) (fun muts ->
      let ctx = mutated_ctx muts in
      let idx = ctx.Engarde.Policy.index in
      Array.iter
        (fun (f : Engarde.Analysis.func) ->
          ignore (Engarde.Policy.summary_of ctx ~addr:f.Engarde.Analysis.fn_addr))
        idx.Engarde.Analysis.functions;
      let _ = (stack_policy ~depth:`Interproc ()).Engarde.Policy.check ctx in
      let _ =
        (Engarde.Policy_ifcc.make ~depth:`Interproc ()).Engarde.Policy.check ctx
      in
      let _ = (Engarde.Policy_sanitize.make ()).Engarde.Policy.check ctx in
      true)

let () =
  Alcotest.run "interproc"
    [
      ( "gap-pairs",
        [
          Alcotest.test_case "jump into mask" `Quick jump_into_mask_gap;
          Alcotest.test_case "tail call skip" `Quick tail_call_skip_gap;
          Alcotest.test_case "mask in callee" `Quick mask_in_callee_precision;
          Alcotest.test_case "unsanitized entry" `Quick unsanitized_entry_findings;
        ] );
      ( "sanitize-clean",
        [ Alcotest.test_case "all seven workloads" `Slow sanitize_clean_workloads ] );
      ( "structure",
        [
          Alcotest.test_case "callgraph edges and order" `Quick callgraph_structure;
          Alcotest.test_case "summaries on the giant chain" `Quick summaries_on_giant;
          Alcotest.test_case "mask-in-callee summary" `Quick mask_in_callee_summary;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest callgraph_total;
          QCheck_alcotest.to_alcotest summaries_total;
        ] );
    ]
