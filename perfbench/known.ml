(* Known answers, written down from the fixture definitions in
   lib/toolchain/workloads.mli — never obtained by running the
   inspector. An op's answer is the finding codes each policy reports;
   a policy not listed must accept. *)

(* The seven policies the inspect workload applies, by scheduler name. *)
let policy_labels =
  [ "libc"; "stack"; "ifcc"; "lint"; "sanitize"; "stack-interproc"; "ifcc-interproc" ]

type input = Clean | Fixture of Toolchain.Workloads.adversarial

let expected = function
  (* Clean instrumented builds pass all seven policies; so does the
     compliant giant-N call chain. *)
  | Clean | Fixture (Toolchain.Workloads.Giant _) -> []
  (* A branch lands on a masked indirect call past its mask: flow mode
     (and the interprocedural tier above it) sees the unmasked path. *)
  | Fixture Toolchain.Workloads.Jump_past_mask ->
      [ ("ifcc", [ "ifcc-unmasked-on-path" ]); ("ifcc-interproc", [ "ifcc-unmasked-on-path" ]) ]
  (* An early return escapes the canary compare. *)
  | Fixture Toolchain.Workloads.Early_ret ->
      [
        ("stack", [ "stack-ret-unprotected" ]); ("stack-interproc", [ "stack-ret-unprotected" ]);
      ]
  (* Caught only through the call graph. *)
  | Fixture Toolchain.Workloads.Jump_into_mask -> [ ("ifcc-interproc", [ "ifcc-unmasked-interproc" ]) ]
  | Fixture Toolchain.Workloads.Tail_call_skip ->
      [ ("stack-interproc", [ "stack-ret-unprotected-interproc" ]) ]
  (* The precision direction: rejected intra, vindicated interproc. *)
  | Fixture Toolchain.Workloads.Mask_in_callee -> [ ("ifcc", [ "ifcc-unmasked-on-path" ]) ]
  | Fixture Toolchain.Workloads.Unsanitized_entry ->
      [ ("sanitize", [ "sanitize-unscrubbed-flags"; "sanitize-unscrubbed-reg" ]) ]

(* Does [codes] (per policy label, sorted) match the known answer? *)
let matches input codes =
  let want = expected input in
  List.for_all
    (fun (label, got) ->
      got = List.sort_uniq compare (Option.value (List.assoc_opt label want) ~default:[]))
    codes
  && List.for_all (fun (label, _) -> List.mem_assoc label codes) want
