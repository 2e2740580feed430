(* Benchmark runner. Runs one workload for a fixed number of passes, each
   pass = set-up (timed) + timed phase over the same seeded inputs, with
   the host calibrator interleaved, and prints every metric by name. The
   last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics"}.

   --trace 0: end-to-end metrics. --trace 1: untraced and traced passes
   alternate; per-layer metrics come from the traced passes' spans, and the
   difference between the two is the tracing overhead. *)

open Perfbench

type args = {
  workload : string;
  seed : int64;
  seconds : float;
  trace : bool;
  c_ref : float;
  c_ref_parallel : float;
  limit_cycles : int;
  ref_interarrival : int;
  jobs : int;
  heap_probe : int option;
}

let usage =
  "main.exe --workload W --seed N --seconds S --trace 0|1 --c-ref SECONDS \
   --c-ref-parallel SECONDS --limit-cycles N --ref-interarrival N"

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt

let parse () =
  let tbl = Hashtbl.create 16 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | x :: _ -> die "unexpected argument %S\nusage: %s" x usage
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> die "missing --%s\nusage: %s" k usage in
  let num k f = match f (get k) with Some v -> v | None -> die "bad --%s" k in
  let workload = get "workload" in
  if not (List.mem workload Metrics_def.workloads) then
    die "unknown workload %S (one of %s)" workload (String.concat ", " Metrics_def.workloads);
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> die "--trace takes 0 or 1" in
  {
    workload;
    seed = num "seed" Int64.of_string_opt;
    seconds = num "seconds" float_of_string_opt;
    trace;
    c_ref = num "c-ref" float_of_string_opt;
    c_ref_parallel = num "c-ref-parallel" float_of_string_opt;
    limit_cycles = num "limit-cycles" int_of_string_opt;
    ref_interarrival = num "ref-interarrival" int_of_string_opt;
    (* Campaign worker domains on checked-faults. End-to-end timing runs
       the campaign on one domain: on a shared two-core host, two-domain
       wall time spread 10% over seeds and no single-core calibration
       corrected it. The traced run uses two, for the campaign's pool
       metrics, and checks that one domain gives the same digest. *)
    jobs = (if trace then 2 else 1);
    heap_probe = (if Hashtbl.mem tbl "heap-probe" then Some (num "heap-probe" int_of_string_opt) else None);
  }

(* Nominal calibrated length of one pass; the pass count is fixed from
   --seconds so that every run pools the same number of samples. *)
let nominal_pass_s = 1.5

(* [prepare a seed] sets up one pass and returns its plan: the timed
   blocks and the untimed reduction and checks. *)
let prepare a : int64 -> Outcome.plan =
  match a.workload with
  | "gate-mc" -> W_gate.prepare
  | "mesh-bft" ->
    W_mesh.prepare { W_mesh.ref_interarrival = a.ref_interarrival; limit_cycles = a.limit_cycles }
  | "hub-batch" -> W_hub.prepare
  | _ -> W_faults.run ~jobs:a.jobs

let median_of f l = Pstats.median (Array.of_list (List.map f l))

let allocated_bytes () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words) *. float_of_int (Sys.word_size / 8)

(* A timed block, its raw seconds and the calibration factor from the
   calibrator samples taken just before and just after it. *)
type block = { dt : float; factor : float; replicates : int }

type pass = {
  setup_s : float list;  (* raw, one per set-up done for the pass *)
  setup_factor : float;  (* from the sample taken right after set-up *)
  blocks : block list;
  alloc_b : float;
  outcome : Outcome.t;
}

let raw_wall p = List.fold_left (fun acc b -> acc +. b.dt) 0.0 p.blocks
let cal_wall p = List.fold_left (fun acc b -> acc +. (b.dt *. b.factor)) 0.0 p.blocks

(* The pass's overall factor: calibrated over raw wall time. *)
let pass_factor p = cal_wall p /. raw_wall p

(* Calibrated seconds of every replicate, in block order. *)
let replicate_cal p =
  let factors = Array.concat (List.map (fun b -> Array.make b.replicates b.factor) p.blocks) in
  Array.mapi (fun i t -> t *. factors.(i)) p.outcome.Outcome.replicate_s

(* Set-up is cheap next to the timed phase, so each pass sets up
   [setup_reps] times (keeping the last) and set-up time is the median of
   many samples. *)
let setup_reps = 5

(* One pass. [calibrate] times the reference loop (raw seconds); it runs
   after set-up and after every block, and each block is calibrated by the
   mean of the samples on either side of it, so a slow stretch of the host
   is corrected where it happens. *)
let one_pass a ~calibrate ~c_ref =
  (* Only the set-up whose systems are run is traced. *)
  let traced = !Spans.on in
  Spans.on := false;
  let spare = List.init (setup_reps - 1) (fun _ -> snd (Outcome.timed (fun () -> prepare a a.seed))) in
  Spans.on := traced;
  let plan, last = Outcome.timed (fun () -> prepare a a.seed) in
  (* Start every timed phase from a collected heap, so one pass's garbage
     is not charged to the next. *)
  Gc.full_major ();
  let c0 = calibrate () in
  let prev = ref c0 and alloc_b = ref 0.0 in
  let blocks =
    List.map
      (fun run ->
        let a0 = allocated_bytes () in
        let replicates, dt = Outcome.timed (fun () -> Spans.span Spans.pass 0 run) in
        alloc_b := !alloc_b +. (allocated_bytes () -. a0);
        let c = calibrate () in
        let factor = Calib.factor ~c_ref ~c_run:((!prev +. c) /. 2.0) in
        prev := c;
        { dt; factor; replicates })
      plan.Outcome.blocks
  in
  let outcome = plan.Outcome.finish () in
  if Array.length outcome.Outcome.replicate_s <> List.fold_left (fun n b -> n + b.replicates) 0 blocks
  then failwith "internal: blocks and replicate times disagree";
  let inner = outcome.Outcome.inner_setup_s in
  {
    setup_s = List.map (fun dt -> dt +. inner) (last :: spare);
    setup_factor = Calib.factor ~c_ref ~c_run:c0;
    blocks;
    alloc_b = !alloc_b;
    outcome;
  }

(* Peak major heap, measured in a fresh child process (this program with
   --heap-probe K) so that neither the warm-up nor earlier passes count.
   The child does one set-up and timed pass. On checked-faults the figure
   is per trial instead: child K runs the first replicate of shape K, and
   the result is the median over shapes. Over a whole campaign OCaml 5's
   heap keeps growing by about 1 MB per trial although little stays live,
   with two domains its growth depends on how their collections
   interleave (13.6 to 38 MB for the same inputs), and a seed holding a
   view-change storm sets the figure (10 to 87 MB across seeds). *)
let heap_probe a =
  let probe k =
    let args =
      [|
        Sys.executable_name; "--workload"; a.workload; "--seed"; Int64.to_string a.seed;
        "--seconds"; "1"; "--trace"; "0"; "--c-ref"; string_of_float a.c_ref;
        "--c-ref-parallel"; string_of_float a.c_ref_parallel;
        "--limit-cycles"; string_of_int a.limit_cycles;
        "--ref-interarrival"; string_of_int a.ref_interarrival; "--heap-probe"; string_of_int k;
      |]
    in
    let rd, wr = Unix.pipe ~cloexec:true () in
    let pid = Unix.create_process Sys.executable_name args Unix.stdin wr Unix.stderr in
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    match (snd (Unix.waitpid [] pid), float_of_string_opt line) with
    | Unix.WEXITED 0, Some bytes -> Some bytes
    | _ -> None
  in
  let shapes = if a.workload = "checked-faults" then List.length W_faults.firsts else 1 in
  let peaks = List.filter_map probe (List.init shapes Fun.id) in
  if List.length peaks < shapes then None else Some (median_of Fun.id peaks)

let run_heap_probe a k =
  (if a.workload = "checked-faults" then
     W_faults.run_firsts ~seed:a.seed ~check:true ~metrics:true [ List.nth W_faults.firsts k ]
   else
     let plan = prepare a a.seed in
     List.iter (fun b -> ignore (b ())) plan.Outcome.blocks;
     ignore (plan.Outcome.finish ()));
  Printf.printf "%d\n" ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8));
  exit 0

(* Where the traced run writes its spans, relative to the checkout. *)
let spans_dir = ".perfbench_out"

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

let () =
  let a = parse () in
  Option.iter (run_heap_probe a) a.heap_probe;
  if a.seconds <= 0.0 || a.c_ref <= 0.0 || a.c_ref_parallel <= 0.0 then
    die "--seconds, --c-ref and --c-ref-parallel must be positive";
  let passes = max 4 (int_of_float (Float.round (a.seconds /. nominal_pass_s))) in
  Printf.printf "workload %s seed %Ld passes %d trace %b\n%!" a.workload a.seed passes a.trace;
  let domains = if a.workload = "checked-faults" then a.jobs else 1 in
  let c_ref = if domains > 1 then a.c_ref_parallel else a.c_ref in
  let samples = ref [] in
  let calibrate () =
    let c = Calib.measure ~domains () in
    samples := c :: !samples;
    c
  in
  let run_pass ~traced =
    if not traced then (one_pass a ~calibrate ~c_ref, None)
    else begin
      Spans.reset ();
      Spans.on := true;
      let p = Fun.protect ~finally:(fun () -> Spans.on := false) (fun () -> one_pass a ~calibrate ~c_ref) in
      (p, Some (Spans.summarise ()))
    end
  in
  (* Warm-up pass: fills caches, finishes lazy set-up, fixes the reference
     digest every later pass must reproduce. *)
  let warm, _ = run_pass ~traced:false in
  let reference = (warm.outcome.Outcome.digest, warm.outcome.Outcome.sim) in
  Printf.printf "digest %s\n%!" (fst reference);
  let attempted = ref 0 and failed = ref 0 in
  let account label p =
    let o = p.outcome in
    attempted := !attempted + o.Outcome.attempted + 1;
    failed := !failed + List.length o.Outcome.failures;
    List.iter (fun f -> Printf.printf "FAILED (%s): %s\n" label f) o.Outcome.failures;
    if (o.Outcome.digest, o.Outcome.sim) <> reference then begin
      incr failed;
      Printf.printf "FAILED (%s): determinism digest %s differs from %s\n" label o.Outcome.digest
        (fst reference)
    end;
    Printf.printf "%s: raw wall %.6f s, calibrated %.6f s, block factors %s\n" label (raw_wall p) (cal_wall p)
      (String.concat " " (List.map (fun b -> Printf.sprintf "%.4f" b.factor) p.blocks))
  in
  account "warm-up" warm;
  let plain = ref [] and traced = ref [] in
  let rounds = if a.trace then max 2 (passes / 2) else passes in
  for _ = 1 to rounds do
    let p, _ = run_pass ~traced:false in
    account "pass" p;
    plain := p :: !plain;
    if a.trace then begin
      let p, summary = run_pass ~traced:true in
      account "traced pass" p;
      traced := (p, Option.get summary) :: !traced
    end
  done;
  let plain = List.rev !plain in
  let factor = median_of pass_factor plain in
  Printf.printf
    "calibration: c_ref %.6f s; c_run median %.6f s over %d samples on %d domain(s); median pass factor %.4f\n"
    c_ref (Pstats.median (Array.of_list !samples)) (List.length !samples) domains factor;
  let o = warm.outcome in
  let wall = median_of cal_wall plain in
  Printf.printf "wall_s: %.6g s (raw median %.6g)\n" wall (median_of raw_wall plain);
  let metrics =
    if not a.trace then begin
      let setup =
        let all = List.concat_map (fun p -> List.map (fun s -> s *. p.setup_factor) p.setup_s) plain in
        let raw = List.concat_map (fun p -> p.setup_s) plain in
        let v = Pstats.median (Array.of_list all) in
        Printf.printf "setup_s: %.6g s (raw median %.6g over %d set-ups)\n" v
          (Pstats.median (Array.of_list raw)) (List.length all);
        v
      in
      (* Each pass repeats the same replicates in the same order: a
         replicate's time is its median over passes, and the median and
         tail are taken over replicates, the tail at the highest level
         with at least 10 replicates beyond it. *)
      let distinct = Array.length o.Outcome.replicate_s in
      let cal = List.map replicate_cal plain in
      let reps = Array.init distinct (fun i -> median_of (fun r -> r.(i)) cal) in
      let raw = Array.init distinct (fun i -> median_of (fun p -> p.outcome.Outcome.replicate_s.(i)) plain) in
      let level, tail = Pstats.tail reps in
      Printf.printf "replicate_p50_ms: %.6g ms (raw %.6g)\n" (Pstats.median reps *. 1000.0)
        (Pstats.median raw *. 1000.0);
      Printf.printf
        "replicate_tail_ms: %.6g ms (raw %.6g) at p%g of %d replicates (%d beyond), each the median of %d passes\n"
        (tail *. 1000.0) (Pstats.percentile raw level *. 1000.0) level distinct
        (Pstats.beyond ~n:distinct level) (List.length plain);
      let sim name =
        if Metrics_def.sim_applies ~workload:a.workload name then
          (name, List.assoc name o.Outcome.sim)
        else begin
          Printf.printf "%s: n/a on %s, reported as 1\n" name a.workload;
          (name, 1.0)
        end
      in
      [
        ("setup_s", setup);
        ("wall_s", wall);
        ("units_per_s", float_of_int o.Outcome.units /. wall);
        ("replicate_p50_ms", Pstats.median reps *. 1000.0);
        ("replicate_tail_ms", tail *. 1000.0);
        ("alloc_mb", median_of (fun p -> p.alloc_b) plain /. 1e6);
        ( "peak_heap_mb",
          match heap_probe a with
          | Some bytes -> bytes /. 1e6
          | None ->
            Printf.printf "the heap probe did not report\n";
            nan );
      ]
      @ List.filter_map
          (fun (name, _) ->
            if (String.length name > 4 && String.sub name 0 4 = "sim_") || name = "msgs_per_req" then
              Some (sim name)
            else None)
          Metrics_def.end_to_end
    end
    else begin
      let traced = List.rev !traced in
      let s_med f = median_of (fun ((p : pass), (s : Spans.summary)) -> f s *. pass_factor p) traced in
      let self k = s_med (fun s -> s.Spans.self.(k)) in
      let total k = s_med (fun s -> s.Spans.total.(k)) in
      let first = snd (List.hd traced) in
      let calls k = float_of_int first.Spans.calls.(k) in
      let words k = first.Spans.words.(k) *. float_of_int (Sys.word_size / 8) in
      let count k = Option.value (List.assoc_opt k o.Outcome.counts) ~default:0.0 in
      let host k =
        median_of
          (fun p -> Option.value (List.assoc_opt k p.outcome.Outcome.counts) ~default:0.0 *. pass_factor p)
          plain
      in
      let per n d = if d > 0.0 then n /. d else 0.0 in
      let twall = median_of (fun ((p : pass), _) -> cal_wall p) traced in
      let gate_evals = count "hw.gate_evals" and events = count "des.events" in
      let check_ratio, obs_ratio =
        if a.workload = "checked-faults" then begin
          let seq =
            let plan = W_faults.run ~jobs:1 a.seed in
            List.iter (fun b -> ignore (b ())) plan.Outcome.blocks;
            plan.Outcome.finish ()
          in
          attempted := !attempted + 1;
          if seq.Outcome.digest <> fst reference then begin
            incr failed;
            Printf.printf "FAILED: digest on one domain (%s) differs from %d domains\n" seq.Outcome.digest a.jobs
          end
          else Printf.printf "digest on one domain matches\n";
          ( W_faults.twin ~seed:a.seed ~rounds:3 ~check:true ~metrics:false,
            W_faults.twin ~seed:a.seed ~rounds:3 ~check:false ~metrics:true )
        end
        else (0.0, 0.0)
      in
      (try
         if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
         let path = Filename.concat spans_dir (Printf.sprintf "spans-%s-%Ld.tsv" a.workload a.seed) in
         Spans.write path;
         Printf.printf "spans of the last traced pass: %s\n" path
       with Sys_error e -> Printf.printf "spans not written: %s\n" e);
      [
        ("hw.mc_s", self Spans.hw_mc);
        ("hw.gate_evals", gate_evals);
        ("hw.ns_per_gate_eval", per (total Spans.hw_mc *. 1e9) gate_evals);
        ("hw.alloc_bytes_per_trial", per (words Spans.hw_mc) (count "hw.trials"));
        ("hw.build_s", total Spans.hw_build);
        ("des.events", events);
        ("des.run_s", total Spans.des_run);
        ("des.self_s", self Spans.des_run);
        ("des.ns_per_event", per (self Spans.des_run *. 1e9) events);
        ("noc.send_s", self Spans.noc_send);
        ("noc.send_calls", calls Spans.noc_send);
        ("noc.messages", count "noc.messages");
        ("noc.bytes", count "noc.bytes");
        ("noc.dropped", count "noc.dropped");
        ("noc.bytes_per_req", count "noc.bytes_per_req");
        ("repl.handler_calls", calls Spans.repl_handler);
        ("repl.handler_s", total Spans.repl_handler);
        ("repl.self_s", self Spans.repl_handler);
        ("repl.submit_s", self Spans.repl_submit);
        ("repl.start_s", total Spans.repl_start);
        ("repl.alloc_bytes_per_req", per (words Spans.repl_handler) (count "repl.completed"));
        ("repl.retransmissions", count "repl.retransmissions");
        ("repl.view_changes", count "repl.view_changes");
        ("repl.wrong_replies", count "repl.wrong_replies");
        ("repl.useful_ratio", count "repl.useful_ratio");
        ("repl.checkpoints", count "repl.checkpoints");
        ("repl.state_transfers", count "repl.state_transfers");
        ("repl.transfer_bytes", count "repl.transfer_bytes");
        ("fault.seu_injected", count "fault.seu_injected");
        ("fault.link_upsets", count "fault.link_upsets");
        ("fault.link_wearouts", count "fault.link_wearouts");
        ("fault.start_s", total Spans.fault_start);
        ("check.overhead_ratio", check_ratio);
        ("check.hooks_fired", count "check.hooks_fired");
        ("check.violations", count "check.violations");
        ("obs.overhead_ratio", obs_ratio);
        ("campaign.trial_s", host "campaign.trial_s");
        ("campaign.pool_s", host "campaign.pool_s");
        ( "campaign.parallel_efficiency",
          median_of
            (fun p -> Option.value (List.assoc_opt "campaign.parallel_efficiency" p.outcome.Outcome.counts) ~default:0.0)
            plain );
        ("campaign.trials", count "campaign.trials");
        ("campaign.failed_trials", count "campaign.failed_trials");
        ("core.soc_create_s", total Spans.core_soc_create);
        ("resilience.rejuvenations", count "resilience.rejuvenations");
        ("trace.wall_s", twall);
        ("trace.overhead_ratio", (twall /. wall) -. 1.0);
        ("trace.unattributed_ratio", per (self Spans.pass) (total Spans.pass));
      ]
    end
  in
  let units =
    if a.trace then Metrics_def.per_layer
    else Metrics_def.end_to_end
  in
  List.iter
    (fun (n, _) ->
      match List.assoc_opt n metrics with
      | None -> die "internal: metric %s not computed" n
      | Some v when not (Float.is_finite v) ->
        incr failed;
        Printf.printf "FAILED: metric %s is not a finite number\n" n
      | Some _ -> ())
    units;
  List.iter (fun (k, v) -> Printf.printf "%s = %s\n" k (json_num v)) o.Outcome.sim;
  let value n = let v = List.assoc n metrics in if Float.is_finite v then v else 0.0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) !attempted !failed
    (String.concat ", "
       (List.map
          (fun (n, u) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (json_num (value n)) u)
          units))
