(* Shared plumbing: clock, seeded inputs, order statistics, host facts,
   and the per-run result every workload returns. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- seeded inputs ---------------------------------------------------- *)

(* Every input a workload generates derives from the benchmark seed and a
   per-purpose tag, so the same seed gives the same payloads, orders and
   arrival times. *)
let rng ~seed tag = Random.State.make [| seed; Hashtbl.hash tag |]

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The CLI's [--fast] provisioning template: 512 heap pages, RSA-512,
   and the default platform seed for every benchmark seed. The platform
   keys derive from that seed, and the RSA-1024 device key that every
   [Provision.run] generates takes 0.16 to 2.5 s on a 2-core KVM guest
   depending on it (a prime search), which would make every op's cost
   follow the benchmark seed. *)
let fast_provision =
  {
    Engarde.Provision.default_config with
    Engarde.Provision.epc_pages = 4096;
    heap_pages = 512;
    bootstrap_pages = 8;
    image_pages = 1600;
    rsa_bits = 512;
  }

let libc_db () = Toolchain.Libc.hash_db Toolchain.Libc.V1_0_5
let instrumented = { Toolchain.Codegen.stack_protector = true; ifcc = true }

(* One toolchain build of a seeded workload variant, timed; the time
   feeds the per-binary [toolchain.build_s.*] layer metrics. *)
let builds : (string * float) list ref = ref []

let build_payload ~variant ~inst bench =
  let img, dt =
    time (fun () -> Toolchain.Linker.link (Toolchain.Workloads.build ~seed:variant inst bench))
  in
  builds := (Toolchain.Workloads.to_string bench, dt) :: !builds;
  img.Toolchain.Linker.elf

(* --- pass loop ------------------------------------------------------- *)

(* Runs [pass 0], [pass 1], ... back to back and returns their wall
   times in order: at least [min] passes and at most [max], and between
   them another pass only while half a pass (at the mean so far) still
   fits in the [seconds] budget, so a run measures whole passes for
   about [seconds] whatever the host's speed. *)
let run_passes ?(min = 1) ?(max = max_int) ~seconds pass =
  let start = now () in
  let rec go p acc =
    let elapsed = now () -. start in
    let half_pass = if p = 0 then 0. else elapsed /. float_of_int p /. 2. in
    if p >= max || (p >= min && elapsed +. half_pass >= seconds) then List.rev acc
    else
      let (), dt = time (fun () -> pass p) in
      go (p + 1) (dt :: acc)
  in
  go 0 []

(* --- order statistics ------------------------------------------------- *)

(* Linear interpolation between closest ranks. *)
let quantile p xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = p *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0. xs
let mean xs = match xs with [] -> 0. | _ -> sum xs /. float_of_int (List.length xs)

(* --- host facts ------------------------------------------------------- *)

let status_kb field =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let prefix = field ^ ":" in
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line when String.starts_with ~prefix line ->
            Scanf.sscanf_opt (String.sub line (String.length prefix)
                                (String.length line - String.length prefix))
              " %d" Fun.id
        | _ -> scan ()
      in
      let r = scan () in
      close_in ic;
      r

(* High-water resident set size of this process. *)
let peak_rss_mb () =
  match status_kb "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. (1024. *. 1024.)

(* The checkout's revision when it is a git work tree; the benchmark
   also runs from plain source trees, where there is none. *)
let git_rev () =
  let first_line path =
    match open_in path with
    | exception Sys_error _ -> None
    | ic ->
        let l = try Some (String.trim (input_line ic)) with End_of_file -> None in
        close_in ic;
        l
  in
  match first_line ".git/HEAD" with
  | None -> "unavailable (not a git checkout)"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let r = String.sub head 5 (String.length head - 5) in
      match first_line (Filename.concat ".git" r) with Some rev -> rev | None -> head)
  | Some rev -> rev

(* --- per-run result ---------------------------------------------------- *)

type layer = { name : string; value : float; unit_ : string; note : string }

let layer ?(note = "") name unit_ value = { name; value; unit_; note }

type result = {
  attempted : int;
  failed : int;  (** ops that failed or were refused *)
  mismatches : int;  (** ops whose verdict or finding codes differ from the known answer *)
  problems : string list;  (** other correctness checks that did not hold *)
  op_s : float list;  (** wall time of every untraced op *)
  traced_op_s : float list;  (** wall time of every traced op (trace runs) *)
  ttfpe_s : float list;
  wall_s : float;  (** measured wall time of the untraced ops *)
  completed : int;  (** untraced ops completed inside [wall_s] *)
  mcycles : float;  (** modelled Mcycles over the seed's reference op sequence *)
  tail_p : float;  (** the percentile [op_tail_s] reports *)
  layers : layer list;  (** per-layer metrics (trace runs) *)
  notes : string list;  (** printed under the metrics table *)
}
