(* provision: a closed loop with one client that waits for each verdict
   (the paper's Figure 1). An op is one [Engarde.Provision.run] of a
   seeded plain build of one of the seven paper binaries under the libc
   policy (the Figure 3 configuration), over the streaming channel with
   the CLI's --fast template. Full handshakes alternate with 0-RTT
   resumes that present the previous op's ticket.

   A pass is a seeded order of the seven binaries. Handshakes alternate
   op by op, and since a pass has an odd length, the next pass starts
   with the other kind: every two passes provision each binary once
   with a full handshake and once resumed. Runs measure whole passes
   for about the time budget ([Common.run_passes]). A traced run makes
   four passes, the first two untraced and the last two traced, so
   every (binary, handshake) pair is timed both ways. *)

let tail_p = 0.75
let libc_only = [ "libc" ]

type input = { bench : string; payload : string }

type env = {
  seed : int;
  cfg : Engarde.Provision.config;
  db : (string * string) list;
  order : input list;
}

let policies env =
  match Service.Scheduler.policies_of_names ~db:env.db libc_only with
  | Ok ps -> ps
  | Error e -> failwith e

let setup ~seed =
  let db = Common.libc_db () in
  let cfg = { Common.fast_provision with Engarde.Provision.policy_names = libc_only } in
  let variant = Printf.sprintf "perfbench-provision-%d" seed in
  let inputs =
    List.map
      (fun b ->
        {
          bench = Toolchain.Workloads.to_string b;
          payload = Common.build_payload ~variant ~inst:Toolchain.Codegen.plain b;
        })
      Toolchain.Workloads.all
  in
  let env = { seed; cfg; db; order = Common.shuffle (Common.rng ~seed "provision-order") inputs } in
  (* Warm-up: the measurement memo, then one full provision of the
     smallest payload (first-touch allocation, libc policy set-up). *)
  ignore (Engarde.Provision.expected_measurement cfg);
  let smallest =
    List.fold_left
      (fun a b -> if String.length b.payload < String.length a.payload then b else a)
      (List.hd inputs) inputs
  in
  ignore
    (Engarde.Provision.run ~channel:`Streaming ~policies:(policies env) cfg
       ~payload:smallest.payload);
  env

type op = {
  o : Engarde.Provision.outcome;
  wall : float;
  ttfpe : float;
}

(* One provision, with the pipeline events turned into spans under the
   op: handshake (run start -> Transfer_started), transfer
   (Transfer_started -> Policy_phase) holding prefix (Transfer_started ->
   Prefix_validated), and judge (Policy_phase -> return). *)
let provision env ~resume input =
  let policies = policies env in
  let started = ref nan and first = ref nan and prefix = ref nan and judging = ref nan in
  let on_event ev =
    let t = Common.now () in
    match ev with
    | Engarde.Provision.Transfer_started -> started := t
    | _ -> (
        if Float.is_nan !first then first := t;
        match ev with
        | Engarde.Provision.Prefix_validated -> if Float.is_nan !prefix then prefix := t
        | Engarde.Provision.Policy_phase -> judging := t
        | _ -> ())
  in
  let t0 = Common.now () in
  let o =
    Engarde.Provision.run ~channel:`Streaming ?resume ~policies ~on_event env.cfg
      ~payload:input.payload
  in
  let t1 = Common.now () in
  let op = Span.record "op" ~start:t0 ~stop:t1 in
  let span name a b =
    if not (Float.is_nan a || Float.is_nan b) then ignore (Span.record ~parent:op name ~start:a ~stop:b)
  in
  span
    (if resume = None then "provision.handshake_cold" else "provision.handshake_resumed")
    t0 !started;
  if not (Float.is_nan !started || Float.is_nan !judging) then begin
    let transfer = Span.record ~parent:op "provision.transfer" ~start:!started ~stop:!judging in
    if not (Float.is_nan !prefix) then
      ignore (Span.record ~parent:transfer "provision.prefix" ~start:!started ~stop:!prefix)
  end;
  span "provision.judge" !judging t1;
  { o; wall = t1 -. t0; ttfpe = !first -. !started }

(* The known answer: every seeded plain build is libc-compliant, so the
   enclave loads it and the client reads back an acceptance. *)
let accepted (o : Engarde.Provision.outcome) =
  (match o.Engarde.Provision.result with Ok _ -> true | Error _ -> false)
  && Engarde.Provision.findings o = []
  && match o.Engarde.Provision.client_verdict with Some (true, _) -> true | _ -> false

let modelled_cycles (o : Engarde.Provision.outcome) =
  let r = Engarde.Report.row ~benchmark:"" o.Engarde.Provision.report in
  r.Engarde.Report.disassembly_cycles + r.Engarde.Report.policy_cycles
  + r.Engarde.Report.loading_cycles

(* A traced run makes four passes and traces the last two. *)
let traced_pass ~trace p = trace && p / 2 mod 2 = 1

let run env ~seconds ~trace =
  let acc = Inspect_path.acc () in
  let op_s = ref [] and traced_op_s = ref [] and ttfpe_s = ref [] in
  let failed = ref 0 and mismatches = ref 0 and problems = ref [] in
  let attempted = ref 0 and reference_cycles = ref 0 in
  let records = ref 0 and record_bytes = ref 0 and spec_hashes = ref 0 and spec_adopted = ref 0 in
  let ticket = ref None in
  let per_binary = ref [] and replayed = ref [] in
  let pass p =
    let traced = traced_pass ~trace p in
    List.iteri
      (fun i input ->
        Span.enabled := traced;
        Span.current_op := !attempted;
        incr attempted;
        let resumed = (i + p) mod 2 = 1 in
        let resume = if resumed then !ticket else None in
        if resumed && resume = None then problems := "a resume op found no ticket" :: !problems;
        let r = provision env ~resume input in
        Span.enabled := false;
        let o = r.o in
        ticket := o.Engarde.Provision.ticket;
        (match o.Engarde.Provision.result with Error _ -> incr failed | Ok _ -> ());
        if not (accepted o) then incr mismatches;
        (match o.Engarde.Provision.channel_stats with
        | Some st ->
            if resumed && not st.Engarde.Provision.resumed then
              problems := (input.bench ^ ": 0-RTT resume did not resume") :: !problems;
            if traced then begin
              records := !records + st.Engarde.Provision.records;
              record_bytes := !record_bytes + st.Engarde.Provision.record_bytes;
              spec_hashes := !spec_hashes + st.Engarde.Provision.spec_hashes;
              spec_adopted := !spec_adopted + st.Engarde.Provision.spec_adopted
            end
        | None -> problems := "streaming run reported no channel stats" :: !problems);
        if p = 0 then reference_cycles := !reference_cycles + modelled_cycles o;
        if traced then begin
          traced_op_s := r.wall :: !traced_op_s;
          (* The replays depend on the payload only: once per binary. *)
          if not (List.mem input.bench !replayed) then begin
            replayed := input.bench :: !replayed;
            Span.enabled := true;
            Replays.crypto ~cfg:env.cfg input.payload;
            Replays.enclave ~cfg:env.cfg;
            let policies =
              List.map (fun policy -> { Inspect_path.label = "libc"; policy }) (policies env)
            in
            Inspect_path.note_traced acc
              (Span.replay "inspect" (fun () ->
                   Inspect_path.run ~traced:true ~policies input.payload));
            Span.enabled := false
          end
        end
        else begin
          op_s := r.wall :: !op_s;
          per_binary := (input.bench, resumed, r.wall) :: !per_binary;
          ttfpe_s := r.ttfpe :: !ttfpe_s;
          Inspect_path.note_cycles acc (Engarde.Report.row ~benchmark:"" o.Engarde.Provision.report)
        end)
      env.order
  in
  let pass_s =
    if trace then Common.run_passes ~min:4 ~max:4 ~seconds pass
    else Common.run_passes ~seconds pass
  in
  let passes = List.length pass_s in
  let untraced_wall =
    Common.sum (List.filteri (fun p _ -> not (traced_pass ~trace p)) pass_s)
  in
  let service, service_problems =
    if trace then Service_replay.run ~seed:env.seed (List.map (fun i -> i.payload) env.order)
    else ([], [])
  in
  let layers =
    if not trace then []
    else
      let tbl = Span.aggregate () in
      let per n = float_of_int n /. float_of_int (max 1 (List.length !traced_op_s)) in
      [
        Common.layer "provision.transfer_s" "s" (Span.mean_dur tbl "provision.transfer");
        Common.layer "provision.prefix_s" "s" (Span.mean_dur tbl "provision.prefix");
        Common.layer "channel.records" "count" (per !records) ~note:"mean per op";
        Common.layer "channel.record_bytes" "bytes" (per !record_bytes) ~note:"mean per op";
        Common.layer "channel.spec_adopted_ratio" "ratio"
          (if !spec_hashes = 0 then 0. else float_of_int !spec_adopted /. float_of_int !spec_hashes)
          ~note:"speculative digests adopted / computed";
        Common.layer "provision.handshake_cold_s" "s" (Span.mean_dur tbl "provision.handshake_cold");
        Common.layer "provision.handshake_resumed_s" "s"
          (Span.mean_dur tbl "provision.handshake_resumed");
        Common.layer "provision.judge_s" "s" (Span.mean_dur tbl "provision.judge")
          ~note:"Policy_phase -> return";
        Common.layer "trace.residue_s" "s" 0.
          ~note:
            "not measurable here: the layer spans come from pipeline event timestamps, which \
             tile the op";
      ]
      @ Replays.layers tbl
      @ Inspect_path.layers ~note:"replay of the op's inspection (libc policy)" tbl acc
      @ service
  in
  let untraced_ops = List.length !op_s in
  {
    Common.attempted = !attempted;
    failed = !failed;
    mismatches = !mismatches;
    problems = List.rev !problems @ service_problems;
    op_s = !op_s;
    traced_op_s = !traced_op_s;
    ttfpe_s = !ttfpe_s;
    wall_s = untraced_wall;
    completed = untraced_ops;
    mcycles = float_of_int !reference_cycles /. 1e6;
    tail_p;
    layers;
    notes =
      [
        Printf.sprintf
          "%d pass(es) of %d ops (the 7 binaries, full handshakes and 0-RTT resumes alternating)"
          passes (List.length env.order);
        "pass wall times (s): " ^ String.concat " " (List.map (Printf.sprintf "%.3f") pass_s);
        "untraced op wall time by binary (full / resumed): "
        ^ String.concat ", "
            (List.map
               (fun i ->
                 let times resumed =
                   List.filter_map
                     (fun (b, r, t) -> if b = i.bench && r = resumed then Some t else None)
                     !per_binary
                 in
                 let med resumed =
                   match times resumed with
                   | [] -> "-"
                   | ts -> Printf.sprintf "%.3f" (Common.median ts)
                 in
                 Printf.sprintf "%s %s/%s" i.bench (med false) (med true))
               env.order);
      ];
  }
