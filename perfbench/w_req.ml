(* Shared plumbing for the request-serving workloads: arrival processes,
   per-replicate results and the pooled sim_* metrics. *)

module Engine = Resoc_des.Engine
module Stats = Resoc_repl.Stats

(* Open loop: each client submits on its own pre-generated Poisson
   schedule. One self-rescheduling event per client walks the schedule,
   so the event queue holds one pending arrival per client. *)
let poisson_schedule gen ~mean ~until =
  let acc = ref [] and t = ref (Gen.exponential gen ~mean) in
  while !t < float_of_int until do
    acc := int_of_float !t :: !acc;
    t := !t +. Gen.exponential gen ~mean
  done;
  Array.of_list (List.rev !acc)

let feed engine (g : Kit.group) schedules =
  Array.iteri
    (fun client times ->
      let rec arm i =
        if i < Array.length times then
          ignore
            (Engine.at engine ~time:times.(i) (fun () ->
                 g.Kit.submit ~client ~payload:(Int64.of_int (i + 1));
                 arm (i + 1)))
      in
      arm 0)
    schedules

(* One simulated group run, reduced to what the metrics need. *)
type result = {
  label : string;
  submitted : int;
  completed : int;
  latencies : float array;  (* cycles *)
  messages : int;
  bytes : int;
  events : int;
  cycles : int;  (* simulated time the run covered *)
  stats : Stats.t;
  agree : bool;
}

let result label engine (g : Kit.group) ~cycles =
  let s = g.Kit.stats in
  {
    label;
    submitted = s.Stats.submitted;
    completed = s.Stats.completed;
    latencies = Kit.Ints.to_floats g.Kit.tracker.Kit.latencies;
    messages = g.Kit.messages ();
    bytes = g.Kit.bytes ();
    events = Engine.events_processed engine;
    cycles;
    stats = s;
    agree = Kit.states_agree g;
  }

let latency_digest a =
  Digest.to_hex (Digest.string (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.0f") a))))

let line r =
  let s = r.stats in
  Printf.sprintf "%s sub=%d done=%d msgs=%d bytes=%d ev=%d cyc=%d wrong=%d rtx=%d vc=%d ck=%d st=%d tb=%d lat=%s"
    r.label r.submitted r.completed r.messages r.bytes r.events r.cycles s.Stats.wrong_replies
    s.Stats.retransmissions s.Stats.view_changes s.Stats.checkpoints s.Stats.state_transfers
    s.Stats.transfer_bytes
    (latency_digest r.latencies)

(* Correctness of a fault-free run. *)
let fault_free_failures r =
  List.filter_map Fun.id
    [
      (if r.stats.Stats.wrong_replies > 0 then
         Some (Printf.sprintf "%s: %d wrong replies" r.label r.stats.Stats.wrong_replies)
       else None);
      (if r.completed < r.submitted then
         Some (Printf.sprintf "%s: %d of %d requests completed" r.label r.completed r.submitted)
       else None);
      (if not r.agree then Some (r.label ^ ": replica states diverge") else None);
    ]

let sum f rs = List.fold_left (fun acc r -> acc + f r) 0 rs

let pooled rs = Array.concat (List.map (fun r -> r.latencies) rs)

let msgs_per_req rs =
  float_of_int (sum (fun r -> r.messages) rs) /. float_of_int (max 1 (sum (fun r -> r.completed) rs))

let completed_ratio rs =
  float_of_int (sum (fun r -> r.completed) rs) /. float_of_int (max 1 (sum (fun r -> r.submitted) rs))

let throughput rs =
  1000.0 *. float_of_int (sum (fun r -> r.completed) rs) /. float_of_int (max 1 (sum (fun r -> r.cycles) rs))

(* Per-layer counts common to the group workloads. *)
let counts rs =
  let st f = float_of_int (sum (fun r -> f r.stats) rs) in
  let completed = float_of_int (sum (fun r -> r.completed) rs) in
  let submitted = float_of_int (sum (fun r -> r.submitted) rs) in
  let rtx = st (fun s -> s.Stats.retransmissions) in
  [
    ("des.events", float_of_int (sum (fun r -> r.events) rs));
    ("noc.messages", float_of_int (sum (fun r -> r.messages) rs));
    ("noc.bytes", float_of_int (sum (fun r -> r.bytes) rs));
    ("noc.bytes_per_req", float_of_int (sum (fun r -> r.bytes) rs) /. Float.max 1.0 completed);
    ("repl.completed", completed);
    ("repl.retransmissions", rtx);
    ("repl.view_changes", st (fun s -> s.Stats.view_changes));
    ("repl.wrong_replies", st (fun s -> s.Stats.wrong_replies));
    ("repl.useful_ratio", completed /. Float.max 1.0 (submitted +. rtx));
    ("repl.checkpoints", st (fun s -> s.Stats.checkpoints));
    ("repl.state_transfers", st (fun s -> s.Stats.state_transfers));
    ("repl.transfer_bytes", st (fun s -> s.Stats.transfer_bytes));
  ]
