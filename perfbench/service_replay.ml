(* The service and audit layers, measured as a closed batch for
   workloads that do not go through the scheduler: a pass's payloads go
   twice each (a miss, then a hit) from one client under the libc policy
   into [Service.Scheduler.parallel_config ~domains:2] with the verdict
   cache, the audit log and the streaming channel on. *)

let domains = 2
let plain_libc = [ "libc" ]

(* A counter from the scheduler's metrics report. *)
let counter report name =
  List.fold_left
    (fun acc line ->
      match String.split_on_char ' ' line with
      | [ n; v ] when n = name -> ( try float_of_string v with Failure _ -> acc)
      | _ -> acc)
    0. (String.split_on_char '\n' report)

(* Quote-sign the audit log's head, check the quote, and prove sampled
   leaves against it: each must be an acceptance of a key the batch
   submitted. *)
let audit_problems t ~device ~known =
  let log = Option.get (Service.Scheduler.audit_log t) in
  let ckpt =
    Span.with_ "audit.checkpoint" (fun () -> Option.get (Service.Scheduler.checkpoint t ~device))
  in
  let pub = Sgx.Quote.device_public device in
  let size = ckpt.Audit.Log.ckpt_size in
  let st = Common.rng ~seed:size "audit-sample" in
  let prove index =
    Span.with_ "audit.prove_verify" (fun () ->
        match Audit.Log.leaf log index with
        | None -> false
        | Some leaf ->
            let proof = Audit.Log.prove_inclusion log ~index ~size in
            leaf.Audit.Log.accepted && known leaf.Audit.Log.key
            && Audit.Log.verify_inclusion pub ckpt ~index ~leaf ~proof = Ok ())
  in
  (match Audit.Log.verify_checkpoint pub ckpt with
  | Ok () -> []
  | Error e -> [ "checkpoint: " ^ Audit.Log.error_to_string e ])
  @ List.filter_map
      (fun index ->
        if prove index then None else Some (Printf.sprintf "audit leaf %d does not prove" index))
      (List.init (min 8 size) (fun _ -> Random.State.int st size))

(* The service and audit layers of a scheduler after the batch. *)
let service_layers t ~pool ~device ~keys tbl =
  let c = counter (Service.Scheduler.report t) in
  let cache = Option.get (Service.Scheduler.cache_stats t) in
  let pool = Service.Pool.stats pool in
  let log = Option.get (Service.Scheduler.audit_log t) in
  let _, seal_s = Common.time (fun () -> Service.Scheduler.save_state t ~device) in
  let tick = Span.find tbl "scheduler.tick" in
  [
    Common.layer "scheduler.tick_busy_s" "s" tick.Span.total;
    Common.layer "scheduler.ticks" "count" (float_of_int tick.Span.count);
    Common.layer "queue.depth_peak" "count"
      (float_of_int (Service.Scheduler.queue_stats t).Service.Queue.peak_depth);
    Common.layer "cache.hits" "count" (float_of_int cache.Service.Cache.hits);
    Common.layer "cache.misses" "count" (float_of_int cache.Service.Cache.misses);
    Common.layer "cache.hit_ratio" "ratio"
      (float_of_int cache.Service.Cache.hits
      /. float_of_int (max 1 (cache.Service.Cache.hits + cache.Service.Cache.misses)));
    Common.layer "cache.redundant_runs" "count"
      (c "pipeline_runs_total" -. float_of_int keys)
      ~note:"pipeline runs minus distinct keys";
    Common.layer "pool.steals" "count" (float_of_int pool.Service.Pool.steals);
    Common.layer "pool.parks" "count" (float_of_int pool.Service.Pool.parks);
    Common.layer "tickets.resumed" "count" (c "channel_resumptions_total");
    Common.layer "jobs.retried" "count" (c "jobs_retried_total");
    Common.layer "audit.leaves" "count" (float_of_int (Audit.Log.size log));
    Common.layer "audit.tree_hashes" "count" (float_of_int (Audit.Log.hash_count log));
    Common.layer "audit.checkpoint_s" "s" (Span.mean_dur tbl "audit.checkpoint");
    Common.layer "audit.prove_verify_s" "s" (Span.mean_dur tbl "audit.prove_verify");
    Common.layer "seal.save_s" "s" seal_s;
  ]

(* Runs the batch on [payloads]; returns the layers and any failed
   check (a job not accepted, an audit leaf that does not prove). *)
let run ~seed payloads =
  let config =
    {
      Service.Scheduler.default_config with
      Service.Scheduler.audit = true;
      channel = `Streaming;
      provision = Common.fast_provision;
    }
  in
  let config, pool = Service.Scheduler.parallel_config ~config ~domains () in
  Fun.protect ~finally:(fun () -> Service.Pool.shutdown pool) (fun () ->
      let t = Service.Scheduler.create config in
      let device = Sgx.Quote.device_create ~seed:(Printf.sprintf "perfbench-device-%d" seed) in
      let jobs =
        List.map
          (fun payload -> { Service.Scheduler.client = "replay"; payload; policy_names = plain_libc })
          payloads
      in
      Span.enabled := true;
      List.iter
        (fun job ->
          ignore (Span.with_ "scheduler.submit" (fun () -> Service.Scheduler.submit t job)))
        (jobs @ jobs);
      while Service.Scheduler.busy t do
        Span.with_ "scheduler.tick" (fun () -> Service.Scheduler.tick t)
      done;
      let completions = Service.Scheduler.drain_completions t in
      let keys = List.map (Service.Scheduler.job_key t) jobs in
      (* Every cache hit must return the verdict its key's miss computed. *)
      let verdicts = Hashtbl.create 16 in
      let consistent (c : Service.Scheduler.completion) =
        let key = Service.Scheduler.job_key t c.Service.Scheduler.job in
        match Hashtbl.find_opt verdicts key with
        | None ->
            Hashtbl.replace verdicts key c.Service.Scheduler.verdict;
            true
        | Some v -> v = c.Service.Scheduler.verdict
      in
      let problems =
        (if
           List.length completions = 2 * List.length jobs
           && List.for_all
                (fun (c : Service.Scheduler.completion) ->
                  match c.Service.Scheduler.verdict with
                  | Ok v -> v.Service.Cache.accepted
                  | Error _ -> false)
                completions
         then []
         else [ "service replay: a job was not accepted" ])
        @ (if List.for_all consistent completions then []
           else [ "service replay: a cached verdict differs from the computed one" ])
        @ audit_problems t ~device ~known:(fun k -> List.mem k keys)
      in
      let layers =
        service_layers t ~pool ~device ~keys:(List.length keys) (Span.aggregate ())
      in
      Span.enabled := false;
      ( List.map
          (fun l ->
            let note = if l.Common.note = "" then "" else "; " ^ l.Common.note in
            { l with Common.note = "service replay" ^ note })
          layers,
        problems ))
