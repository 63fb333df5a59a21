(* The repository benchmark. Usage (normally through perfbench/run.py,
   which builds this program and merges the set-up probes):

     main.exe --workload provision|inspect --seed N
              --seconds S --trace 0|1 [--setup-only] [--nproc N]
              [--spans-out FILE]

   Prints a header, every metric by name with unit and sample count, and
   as its last line one JSON object: {"correct", "attempted", "failed",
   "metrics"}. The metrics are the end-to-end set with --trace 0 and the
   per-layer set with --trace 1. Exits non-zero when a verdict differs
   from its known answer or another correctness check fails. *)

let end_to_end =
  [
    ("op_p50_s", "s"); ("op_tail_s", "s"); ("ops_per_s", "1/s"); ("ttfpe_p50_s", "s");
    ("modelled_mcycles", "Mcycles"); ("setup_s", "s"); ("peak_rss_mb", "MB");
  ]

(* Every per-layer metric, in BENCHMARK.json order. A workload that does
   not exercise a layer reports 0 for it, marked as such. *)
let per_layer =
  [
    ("aes.ctr_mb_per_s", "MB/s"); ("sha256.mb_per_s", "MB/s"); ("rsa.keygen_s", "s");
    ("hkdf.derive_s", "s"); ("provision.transfer_s", "s"); ("provision.prefix_s", "s");
    ("channel.records", "count"); ("channel.record_bytes", "bytes");
    ("channel.spec_adopted_ratio", "ratio"); ("record.seal_s", "s"); ("record.open_s", "s");
    ("provision.handshake_cold_s", "s"); ("provision.handshake_resumed_s", "s");
    ("enclave.build_s", "s"); ("measurement.replay_s", "s"); ("provision.judge_s", "s");
    ("elf.parse_s", "s"); ("disasm.s", "s"); ("disasm.minsn_per_s", "Minsn/s");
    ("disasm.mcycles", "Mcycles"); ("analysis.index_s", "s"); ("analysis.mcycles", "Mcycles");
    ("callgraph.build_s", "s"); ("callgraph.edges", "count"); ("callgraph.scc_max", "count");
    ("callgraph.mcycles", "Mcycles"); ("summary.compute_s", "s"); ("summary.mcycles", "Mcycles");
  ]
  @ List.map (fun l -> ("policy." ^ l ^ "_s", "s")) Known.policy_labels
  @ [
      ("vm.overhead_mcycles", "Mcycles"); ("scheduler.tick_busy_s", "s");
      ("scheduler.ticks", "count"); ("queue.depth_peak", "count");
      ("cache.hits", "count"); ("cache.misses", "count"); ("cache.hit_ratio", "ratio");
      ("cache.redundant_runs", "count"); ("pool.steals", "count"); ("pool.parks", "count");
      ("tickets.resumed", "count"); ("jobs.retried", "count");
      ("audit.leaves", "count"); ("audit.tree_hashes", "count"); ("audit.checkpoint_s", "s");
      ("audit.prove_verify_s", "s"); ("seal.save_s", "s");
    ]
  @ List.map
      (fun b -> ("toolchain.build_s." ^ Toolchain.Workloads.to_string b, "s"))
      Toolchain.Workloads.all
  @ [ ("trace.overhead_s", "s"); ("trace.residue_s", "s") ]

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  setup_only : bool;
  nproc : string;
  spans_out : string option;
}

let usage () =
  prerr_endline
    "usage: main.exe --workload provision|inspect --seed N --seconds S --trace 0|1 \
     [--setup-only] [--nproc N] [--spans-out FILE]";
  exit 2

let parse_args () =
  let rec go a = function
    | [] -> a
    | "--workload" :: v :: rest -> go { a with workload = v } rest
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest -> go { a with seconds = float_of_string v } rest
    | "--trace" :: v :: rest -> go { a with trace = v = "1" } rest
    | "--setup-only" :: rest -> go { a with setup_only = true } rest
    | "--nproc" :: v :: rest -> go { a with nproc = v } rest
    | "--spans-out" :: v :: rest -> go { a with spans_out = Some v } rest
    | _ -> usage ()
  in
  try
    go
      {
        workload = ""; seed = 1; seconds = 10.; trace = false; setup_only = false;
        nproc = "unknown"; spans_out = None;
      }
      (List.tl (Array.to_list Sys.argv))
  with Failure _ -> usage ()

(* Set-up is everything before the first measured op: toolchain builds
   of the payloads, policy creation, and warm-up. *)
type workload = W : { setup : unit -> 'env; run : 'env -> Common.result } -> workload

let workload a =
  let seconds = a.seconds and trace = a.trace and seed = a.seed in
  match a.workload with
  | "provision" ->
      W
        {
          setup = (fun () -> Provision_wl.setup ~seed);
          run = (fun env -> Provision_wl.run env ~seconds ~trace);
        }
  | "inspect" ->
      W
        {
          setup = (fun () -> Inspect_wl.setup ~seed);
          run = (fun env -> Inspect_wl.run env ~seconds ~trace);
        }
  | _ -> usage ()

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_metrics ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (name, unit_, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_float v) unit_)
         ms)
  ^ "}"

let () =
  let a = parse_args () in
  let (W w) = workload a in
  let env, setup_s = Common.time w.setup in
  if a.setup_only then begin
    Printf.printf "setup_s %.17g\n" setup_s;
    exit 0
  end;
  Printf.printf "# perfbench workload=%s seed=%d seconds=%g trace=%s\n" a.workload a.seed
    a.seconds (if a.trace then "on" else "off");
  Printf.printf "# nproc=%s recommended_domain_count=%d ocaml=%s git_rev=%s\n%!" a.nproc
    (Domain.recommended_domain_count ()) Sys.ocaml_version (Common.git_rev ());
  let r = w.run env in
  let n = List.length r.Common.op_s in
  let tail_n_beyond = float_of_int n *. (1. -. r.Common.tail_p) in
  let tail_note =
    Printf.sprintf "p%g of n=%d%s" (100. *. r.Common.tail_p) n
      (if tail_n_beyond < 10. then
         Printf.sprintf "; only %.1f samples beyond it (fewer than 10)" tail_n_beyond
       else "")
  in
  let e2e =
    [
      ("op_p50_s", Common.median r.Common.op_s, Printf.sprintf "median of n=%d" n);
      ("op_tail_s", Common.quantile r.Common.tail_p r.Common.op_s, tail_note);
      ( "ops_per_s",
        float_of_int r.Common.completed /. r.Common.wall_s,
        Printf.sprintf "%d ops in %.2f s" r.Common.completed r.Common.wall_s );
      ( "ttfpe_p50_s",
        Common.median r.Common.ttfpe_s,
        Printf.sprintf "median of n=%d" (List.length r.Common.ttfpe_s) );
      ("modelled_mcycles", r.Common.mcycles, "over the seed's reference op sequence");
      ("setup_s", setup_s, "this process");
      ("peak_rss_mb", Common.peak_rss_mb (), "VmHWM");
    ]
  in
  let failed_frac = float_of_int r.Common.failed /. float_of_int (max 1 r.Common.attempted) in
  Printf.printf "%-34s %16s %-8s %s\n" "metric" "value" "unit" "samples";
  let unit_of name table = Option.value (List.assoc_opt name table) ~default:"" in
  List.iter
    (fun (name, v, note) ->
      Printf.printf "%-34s %16.6g %-8s %s\n" name v (unit_of name end_to_end) note)
    e2e;
  Printf.printf "%-34s %16.6g %-8s %d of %d ops\n" "failed_frac" failed_frac "ratio"
    r.Common.failed r.Common.attempted;
  Printf.printf "%-34s %16d %-8s of %d ops\n" "verdict_mismatches" r.Common.mismatches "count"
    r.Common.attempted;
  List.iter (fun s -> Printf.printf "# %s\n" s) r.Common.notes;
  List.iter (fun s -> Printf.printf "# CHECK FAILED: %s\n" s) r.Common.problems;
  let metrics =
    if not a.trace then List.map (fun (name, v, _) -> (name, unit_of name end_to_end, v)) e2e
    else begin
      let traced_p50 = Common.median r.Common.traced_op_s in
      let residues = Span.op_residues () in
      let attribution =
        Common.layer "trace.overhead_s" "s"
          (traced_p50 -. Common.median r.Common.op_s)
          ~note:
            (Printf.sprintf "traced op_p50 %.6g (n=%d) minus untraced %.6g (n=%d)" traced_p50
               (List.length r.Common.traced_op_s) (Common.median r.Common.op_s) n)
        ::
        (if residues = [] || List.exists (fun l -> l.Common.name = "trace.residue_s") r.Common.layers
         then []
         else
           [
             Common.layer "trace.residue_s" "s" (Common.mean residues)
               ~note:"mean per op: wall time minus its top-level layer spans";
           ])
      in
      let builds =
        List.map
          (fun b ->
            let b = Toolchain.Workloads.to_string b in
            let ts = List.filter_map (fun (n, dt) -> if n = b then Some dt else None) !Common.builds in
            Common.layer ("toolchain.build_s." ^ b) "s" (Common.mean ts)
              ~note:(Printf.sprintf "set-up, mean of %d build(s)" (List.length ts)))
          (List.filter
             (fun b -> List.mem_assoc (Toolchain.Workloads.to_string b) !Common.builds)
             Toolchain.Workloads.all)
      in
      let have = r.Common.layers @ attribution @ builds in
      Printf.printf "\n%-34s %16s %-8s %s\n" "per-layer metric (traced run)" "value" "unit" "note";
      List.map
        (fun (name, unit_) ->
          let v, note =
            match List.find_opt (fun l -> l.Common.name = name) have with
            | Some l -> (l.Common.value, l.Common.note)
            | None -> (0., "not exercised by this workload")
          in
          Printf.printf "%-34s %16.6g %-8s %s\n" name v unit_ note;
          (name, unit_, v))
        per_layer
    end
  in
  Option.iter Span.write a.spans_out;
  let correct = r.Common.mismatches = 0 && r.Common.problems = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!" correct
    r.Common.attempted r.Common.failed (json_metrics metrics);
  if not correct then exit 1
