(* One binary from bytes to a verdict, outside any enclave:
   [Elf64.Reader.parse] -> [Disasm.run] -> a fresh [Policy.context] ->
   [Policy.run_all]. The inspect workload's op, and the replay the other
   workloads use to time the inspection layers on their own payloads.

   Traced, each policy runs on its own, so a policy's span holds only
   its own work; when the set includes a policy that reads the call
   graph, the graph and every function summary are requested first
   ([Policy.callgraph_of], [Policy.summary_of]) under their own spans. *)

type policy = { label : string; policy : Engarde.Policy.t }

let uses_callgraph p = List.mem p.label [ "sanitize"; "stack-interproc"; "ifcc-interproc" ]

(* Policies by scheduler name, as the service runs them: the builtins
   as their VM programs (interpreter overhead charged to [vm_perf]),
   the interprocedural variants natively. *)
let policies_for ~db ~vm_perf names =
  let programs = Policyvm.Builtin.all ~db ~exempt:Toolchain.Libc.function_names in
  List.map
    (fun label ->
      match List.assoc_opt label programs with
      | Some prog -> { label; policy = Policyvm.Vm.policy ~vm_perf prog }
      | None -> (
          match Service.Scheduler.policies_of_names ~db [ label ] with
          | Ok [ policy ] -> { label; policy }
          | Ok _ | Error _ -> failwith ("unknown policy " ^ label)))
    names

type outcome = {
  codes : (string * string list) list;  (** per policy label: sorted distinct finding codes *)
  row : Engarde.Report.row;  (** modelled cycles per phase *)
  ttfpe : float;  (** bytes in hand -> policy phase ready *)
  callgraph : Engarde.Callgraph.t option;  (** built by traced runs *)
}

let codes_of verdict =
  match verdict with
  | Engarde.Policy.Compliant -> []
  | Engarde.Policy.Violations fs ->
      List.sort_uniq compare (List.map (fun (f : Engarde.Policy.finding) -> f.Engarde.Policy.code) fs)

let run ~traced ~policies payload =
  let t0 = Common.now () in
  let report = Engarde.Report.create () in
  let elf =
    match Span.with_ "elf.parse" (fun () -> Elf64.Reader.parse payload) with
    | Ok elf -> elf
    | Error e -> failwith ("ELF parse: " ^ Elf64.Reader.error_to_string e)
  in
  let text =
    match Elf64.Reader.text_sections elf with
    | [ t ] -> t
    | _ -> failwith "expected exactly one text section"
  in
  let buffer, symbols =
    match
      Span.with_ "disasm" (fun () ->
          Engarde.Disasm.run report.Engarde.Report.disassembly ~code:text.Elf64.Reader.data
            ~base:text.Elf64.Reader.addr ~symbols:elf.Elf64.Reader.symbols)
    with
    | Ok r -> r
    | Error v -> failwith ("disassembly: " ^ X86.Nacl.violation_to_string v)
  in
  report.Engarde.Report.instructions <- Array.length buffer.Engarde.Disasm.entries;
  let ctx =
    Span.with_ "analysis.index" (fun () ->
        Engarde.Policy.context ~analysis_perf:report.Engarde.Report.analysis
          ~cfg_perf:report.Engarde.Report.cfg ~callgraph_perf:report.Engarde.Report.callgraph
          ~summary_perf:report.Engarde.Report.summary ~perf:report.Engarde.Report.policy buffer
          symbols)
  in
  let ttfpe = Common.now () -. t0 in
  let callgraph, results =
    if traced then begin
      let cg =
        if not (List.exists uses_callgraph policies) then None
        else begin
          let cg = Span.with_ "callgraph.build" (fun () -> Engarde.Policy.callgraph_of ctx) in
          Span.with_ "summary.compute" (fun () ->
              Array.iter
                (fun i ->
                  let f = cg.Engarde.Callgraph.index.Engarde.Analysis.functions.(i) in
                  ignore (Engarde.Policy.summary_of ctx ~addr:f.Engarde.Analysis.fn_addr))
                cg.Engarde.Callgraph.bottom_up);
          Some cg
        end
      in
      ( cg,
        List.concat_map
          (fun p ->
            Span.with_ ("policy." ^ p.label) (fun () -> Engarde.Policy.run_all ctx [ p.policy ]))
          policies )
    end
    else (None, Engarde.Policy.run_all ctx (List.map (fun p -> p.policy) policies))
  in
  {
    codes = List.map2 (fun p (_, v) -> (p.label, codes_of v)) policies results;
    row = Engarde.Report.row ~benchmark:"" report;
    ttfpe;
    callgraph;
  }

let largest_scc (cg : Engarde.Callgraph.t) =
  let sizes = Array.make (max 1 cg.Engarde.Callgraph.n_sccs) 0 in
  Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) cg.Engarde.Callgraph.scc_id;
  Array.fold_left max 0 sizes

(* Inspection-layer counters across a run's ops. Modelled cycles come
   from untraced ops only (a traced op requests every summary up front,
   which charges summaries a policy set might never ask for). *)
type acc = {
  mutable untraced : int;
  mutable traced : int;
  mutable insns : int;  (** instructions decoded by traced ops *)
  mutable disasm_c : int;
  mutable analysis_c : int;
  mutable callgraph_c : int;
  mutable summary_c : int;
  mutable vm_c : int;
  mutable edges : int;
  mutable scc_max : int;
}

let acc () =
  {
    untraced = 0; traced = 0; insns = 0; disasm_c = 0; analysis_c = 0; callgraph_c = 0;
    summary_c = 0; vm_c = 0; edges = 0; scc_max = 0;
  }

(* A traced op's structural counts. *)
let note_traced acc o =
  acc.traced <- acc.traced + 1;
  acc.insns <- acc.insns + o.row.Engarde.Report.n_instructions;
  Option.iter
    (fun cg ->
      acc.edges <- acc.edges + Array.length cg.Engarde.Callgraph.edges;
      acc.scc_max <- max acc.scc_max (largest_scc cg))
    o.callgraph

(* An untraced op's modelled cycles, per phase. *)
let note_cycles acc ?(vm_cycles = 0) (r : Engarde.Report.row) =
  acc.untraced <- acc.untraced + 1;
  acc.disasm_c <- acc.disasm_c + r.Engarde.Report.disassembly_cycles;
  acc.analysis_c <- acc.analysis_c + r.Engarde.Report.analysis_cycles;
  acc.callgraph_c <- acc.callgraph_c + r.Engarde.Report.callgraph_cycles;
  acc.summary_c <- acc.summary_c + r.Engarde.Report.summary_cycles;
  acc.vm_c <- acc.vm_c + vm_cycles

let layers ?(note = "") tbl acc =
  let per n total = if n = 0 then 0. else float_of_int total /. float_of_int n /. 1e6 in
  let mc total = per acc.untraced total in
  let disasm_time = (Span.find tbl "disasm").Span.self in
  let l = Common.layer ~note in
  [
    l "elf.parse_s" "s" (Span.mean_self tbl "elf.parse");
    l "disasm.s" "s" (Span.mean_self tbl "disasm");
    l "disasm.minsn_per_s" "Minsn/s"
      (if disasm_time > 0. then float_of_int acc.insns /. disasm_time /. 1e6 else 0.);
    l "disasm.mcycles" "Mcycles" (mc acc.disasm_c);
    l "analysis.index_s" "s" (Span.mean_self tbl "analysis.index");
    l "analysis.mcycles" "Mcycles" (mc acc.analysis_c);
    l "callgraph.build_s" "s" (Span.mean_self tbl "callgraph.build");
    l "callgraph.edges" "count"
      (if acc.traced = 0 then 0. else float_of_int acc.edges /. float_of_int acc.traced);
    l "callgraph.scc_max" "count" (float_of_int acc.scc_max);
    l "callgraph.mcycles" "Mcycles" (mc acc.callgraph_c);
    l "summary.compute_s" "s" (Span.mean_self tbl "summary.compute");
    l "summary.mcycles" "Mcycles" (mc acc.summary_c);
  ]
  @ List.map
      (fun label -> l ("policy." ^ label ^ "_s") "s" (Span.mean_self tbl ("policy." ^ label)))
      Known.policy_labels
  @ [ l "vm.overhead_mcycles" "Mcycles" (mc acc.vm_c) ]
