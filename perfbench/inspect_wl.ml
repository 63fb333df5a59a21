(* inspect: a closed loop with no channel and no enclave. An op takes one
   binary from bytes to a verdict (Inspect_path) under the five builtin
   policies as VM programs plus the native stack-interproc and
   ifcc-interproc. Inputs: seeded stack+ifcc builds of the seven paper
   binaries, each twice per pass, and every adversarial fixture once, so
   the reject paths run too and the median falls among real binaries.

   A pass is a seeded order of those 21 inputs. Runs measure whole
   passes for about the time budget ([Common.run_passes]); a traced run
   alternates untraced and traced passes, which have the same mix. *)

let tail_p = 0.90

type env = {
  deck : (string * Known.input * string) list;  (** label, known answer, payload *)
  policies : Inspect_path.policy list;
  vm_perf : Sgx.Perf.t;  (** interpreter overhead of the VM policies *)
}

let setup ~seed =
  let db = Common.libc_db () in
  let variant = Printf.sprintf "perfbench-inspect-%d" seed in
  let binaries =
    List.map
      (fun b ->
        ( Toolchain.Workloads.to_string b,
          Known.Clean,
          Common.build_payload ~variant ~inst:Common.instrumented b ))
      Toolchain.Workloads.all
  in
  let fixtures =
    List.map
      (fun a ->
        ( Toolchain.Workloads.adversarial_to_string a,
          Known.Fixture a,
          (Toolchain.Linker.link_adversarial a).Toolchain.Linker.elf ))
      Toolchain.Workloads.adversarial_all
  in
  let vm_perf = Sgx.Perf.create () in
  let policies = Inspect_path.policies_for ~db ~vm_perf Known.policy_labels in
  let env =
    {
      deck = Common.shuffle (Common.rng ~seed "inspect-order") (binaries @ binaries @ fixtures);
      policies;
      vm_perf;
    }
  in
  (* Warm-up: the smallest real binary and every fixture once. *)
  let smallest =
    List.fold_left
      (fun ((_, _, a) as x) ((_, _, b) as y) -> if String.length b < String.length a then y else x)
      (List.hd binaries) binaries
  in
  List.iter
    (fun (_, _, payload) -> ignore (Inspect_path.run ~traced:false ~policies payload))
    (smallest :: fixtures);
  env

(* A traced run traces every other pass. *)
let traced_pass ~trace p = trace && p mod 2 = 1

let run env ~seconds ~trace =
  let acc = Inspect_path.acc () in
  let op_s = ref [] and traced_op_s = ref [] and ttfpe_s = ref [] in
  let mismatches = ref 0 and failed = ref 0 and attempted = ref 0 and reference_cycles = ref 0 in
  let wrong = ref [] in
  let judged ~traced ~pass label input o wall =
    if not (Known.matches input o.Inspect_path.codes) then begin
      incr mismatches;
      wrong := (label ^ ": verdict differs from the known answer") :: !wrong
    end;
    let r = o.Inspect_path.row in
    if pass = 0 then
      reference_cycles :=
        !reference_cycles + r.Engarde.Report.disassembly_cycles + r.Engarde.Report.policy_cycles;
    if traced then begin
      traced_op_s := wall :: !traced_op_s;
      Inspect_path.note_traced acc o
    end
    else begin
      op_s := wall :: !op_s;
      ttfpe_s := o.Inspect_path.ttfpe :: !ttfpe_s
    end
  in
  let pass p =
    let traced = traced_pass ~trace p in
    List.iter
      (fun (label, input, payload) ->
        Span.current_op := !attempted;
        incr attempted;
        let vm0 = Sgx.Perf.total_cycles env.vm_perf in
        Span.enabled := traced;
        let t0 = Common.now () in
        let o =
          try Ok (Span.with_ "op" (fun () -> Inspect_path.run ~traced ~policies:env.policies payload))
          with Failure why -> Error why
        in
        let wall = Common.now () -. t0 in
        Span.enabled := false;
        match o with
        | Ok o ->
            judged ~traced ~pass:p label input o wall;
            if not traced then
              Inspect_path.note_cycles acc
                ~vm_cycles:(Sgx.Perf.total_cycles env.vm_perf - vm0)
                o.Inspect_path.row
        | Error why ->
            incr failed;
            incr mismatches;
            wrong := (label ^ ": " ^ why) :: !wrong)
      env.deck
  in
  (* A traced run needs at least one pass of each kind. *)
  let pass_s = Common.run_passes ~min:(if trace then 2 else 1) ~seconds pass in
  let passes = List.length pass_s in
  let untraced_wall =
    Common.sum (List.filteri (fun p _ -> not (traced_pass ~trace p)) pass_s)
  in
  let layers =
    if not trace then []
    else Inspect_path.layers (Span.aggregate ()) acc
  in
  {
    Common.attempted = !attempted;
    failed = !failed;
    mismatches = !mismatches;
    problems = List.sort_uniq compare !wrong;
    op_s = !op_s;
    traced_op_s = !traced_op_s;
    ttfpe_s = !ttfpe_s;
    wall_s = untraced_wall;
    completed = List.length !op_s;
    mcycles = float_of_int !reference_cycles /. 1e6;
    tail_p;
    layers;
    notes =
      [
        Printf.sprintf "%d pass(es) of %d ops (7 binaries x2, %d fixtures)" passes
          (List.length env.deck) (List.length Toolchain.Workloads.adversarial_all);
        "pass wall times (s): "
        ^ String.concat " " (List.map (Printf.sprintf "%.3f") pass_s);
      ];
  }
