(* Every metric the benchmark reports, with its unit. BENCHMARK.json lists
   the same names (the tests check that the two agree). *)

(* End-to-end metrics, reported by the untraced run. Host times are in
   calibrated units (see Calib). *)
let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("units_per_s", "1/s");
    ("replicate_p50_ms", "ms");
    ("replicate_tail_ms", "ms");
    ("alloc_mb", "MB");
    ("peak_heap_mb", "MB");
    ("sim_p50_cycles", "cycles");
    ("sim_p99_cycles", "cycles");
    ("sim_max_rate", "req/kcycle");
    ("sim_throughput", "req/kcycle");
    ("sim_completed_ratio", "ratio");
    ("msgs_per_req", "msgs");
  ]

(* Where a simulated metric has no meaning it reports 1.0, marked n/a. *)
let sim_applies ~workload name =
  match (workload, name) with
  | "gate-mc", ("sim_p50_cycles" | "sim_p99_cycles" | "sim_max_rate" | "sim_throughput"
               | "sim_completed_ratio" | "msgs_per_req") -> false
  | "mesh-bft", "sim_throughput" -> false
  | ("hub-batch" | "checked-faults"), "sim_max_rate" -> false
  | _ -> true

(* Per-layer metrics, reported by the traced run (0 where the layer does
   no work on the workload). *)
let per_layer =
  [
    ("hw.mc_s", "s");
    ("hw.gate_evals", "count");
    ("hw.ns_per_gate_eval", "ns");
    ("hw.alloc_bytes_per_trial", "B");
    ("hw.build_s", "s");
    ("des.events", "count");
    ("des.run_s", "s");
    ("des.self_s", "s");
    ("des.ns_per_event", "ns");
    ("noc.send_s", "s");
    ("noc.send_calls", "count");
    ("noc.messages", "count");
    ("noc.bytes", "B");
    ("noc.dropped", "count");
    ("noc.bytes_per_req", "B");
    ("repl.handler_calls", "count");
    ("repl.handler_s", "s");
    ("repl.self_s", "s");
    ("repl.submit_s", "s");
    ("repl.start_s", "s");
    ("repl.alloc_bytes_per_req", "B");
    ("repl.retransmissions", "count");
    ("repl.view_changes", "count");
    ("repl.wrong_replies", "count");
    ("repl.useful_ratio", "ratio");
    ("repl.checkpoints", "count");
    ("repl.state_transfers", "count");
    ("repl.transfer_bytes", "B");
    ("fault.seu_injected", "count");
    ("fault.link_upsets", "count");
    ("fault.link_wearouts", "count");
    ("fault.start_s", "s");
    ("check.overhead_ratio", "ratio");
    ("check.hooks_fired", "count");
    ("check.violations", "count");
    ("obs.overhead_ratio", "ratio");
    ("campaign.trial_s", "s");
    ("campaign.pool_s", "s");
    ("campaign.parallel_efficiency", "ratio");
    ("campaign.trials", "count");
    ("campaign.failed_trials", "count");
    ("core.soc_create_s", "s");
    ("resilience.rejuvenations", "count");
    ("trace.wall_s", "s");
    ("trace.overhead_ratio", "ratio");
    ("trace.unattributed_ratio", "ratio");
  ]

let workloads = [ "gate-mc"; "mesh-bft"; "hub-batch"; "checked-faults" ]
