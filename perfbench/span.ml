(* Spans recorded in the benchmark's own code around calls into the
   program's public functions: name, start, end, parent and op id, kept
   in memory and written out when the run ends. With tracing off,
   [with_] is a direct call and [record] does nothing. *)

type t = { id : int; name : string; start : float; stop : float; parent : int; op : int }

let enabled = ref false
let current_op = ref (-1)
let spans : t list ref = ref [] (* newest first *)
let next_id = ref 0
let stack : int list ref = ref []

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let top () = match !stack with p :: _ -> p | [] -> -1

(* A span whose bounds were observed elsewhere (e.g. pipeline event
   callbacks). [parent] defaults to the innermost open span. *)
let record ?parent name ~start ~stop =
  if not !enabled then -1
  else begin
    let id = fresh_id () in
    let parent = Option.value parent ~default:(top ()) in
    spans := { id; name; start; stop; parent; op = !current_op } :: !spans;
    id
  end

let with_ name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () and parent = top () in
    stack := id :: !stack;
    let start = Common.now () in
    let close () =
      stack := List.tl !stack;
      spans := { id; name; start; stop = Common.now (); parent; op = !current_op } :: !spans
    in
    match f () with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

(* A span detached from the current op (parent -1): the benchmark's own
   replays of public calls run after an op and must not count as part
   of it. *)
let replay name f =
  let saved = !stack in
  stack := [];
  Fun.protect ~finally:(fun () -> stack := saved) (fun () -> with_ ("replay:" ^ name) f)

let dur s = s.stop -. s.start

(* Self time: duration minus the time its direct children cover. *)
let self_times () =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (dur s +. Option.value (Hashtbl.find_opt children s.parent) ~default:0.))
    !spans;
  List.map
    (fun s -> (s, dur s -. Option.value (Hashtbl.find_opt children s.id) ~default:0.))
    !spans

type agg = { count : int; total : float; self : float }

let aggregate () =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let a =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:{ count = 0; total = 0.; self = 0. }
      in
      Hashtbl.replace tbl s.name
        { count = a.count + 1; total = a.total +. dur s; self = a.self +. self })
    (self_times ());
  tbl

let find tbl name =
  Option.value (Hashtbl.find_opt tbl name) ~default:{ count = 0; total = 0.; self = 0. }

(* Mean self time and mean duration per occurrence. *)
let mean_self tbl name =
  let a = find tbl name in
  if a.count = 0 then 0. else a.self /. float_of_int a.count

let mean_dur tbl name =
  let a = find tbl name in
  if a.count = 0 then 0. else a.total /. float_of_int a.count

(* The unattributed residue of each op: an op span's self time is its
   wall time minus the sum of its top-level layer spans. *)
let op_residues () =
  List.filter_map (fun (s, self) -> if s.name = "op" then Some self else None) (self_times ())

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\"op\":%d}\n" s.id
        s.name s.start s.stop s.parent s.op)
    (List.rev !spans);
  close_out oc
