(* Host calibrator. A fixed, stdlib-only reference loop is timed between
   workload blocks; its median time C_run says how fast this host is
   running right now. Host-time metrics are reported in calibrated
   seconds, raw × C_ref / C_run, where C_ref is the reference loop's time
   on the machine the benchmark was defined on (passed on the command line
   from BENCHMARK.json). A host that is uniformly 20% slower then reports
   the same calibrated figures.

   The loop mixes what the simulator does: a binary heap of timestamped
   events, hashing into a table, a sort, and short-lived small records
   that keep the minor collector busy. Workloads that run on several
   domains are calibrated with the loop running on as many domains at
   once, so the time also reflects how much of the host's other cores
   the benchmark is getting. *)

type event = { time : int; tag : int }

let reference_work () =
  let heap = Array.make 4096 { time = 0; tag = 0 } in
  let size = ref 0 in
  let push e =
    let i = ref !size in
    incr size;
    heap.(!i) <- e;
    while !i > 0 && heap.((!i - 1) / 2).time > heap.(!i).time do
      let p = (!i - 1) / 2 in
      let x = heap.(p) in
      heap.(p) <- heap.(!i);
      heap.(!i) <- x;
      i := p
    done
  in
  let pop () =
    let top = heap.(0) in
    decr size;
    heap.(0) <- heap.(!size);
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < !size && heap.(l).time < heap.(!m).time then m := l;
      if r < !size && heap.(r).time < heap.(!m).time then m := r;
      if !m = !i then continue := false
      else begin
        let x = heap.(!m) in
        heap.(!m) <- heap.(!i);
        heap.(!i) <- x;
        i := !m
      end
    done;
    top
  in
  let table = Hashtbl.create 1024 in
  let acc = ref 0 in
  let x = ref 12345 in
  for round = 1 to 24 do
    for i = 0 to 2047 do
      x := (!x * 1103515245) + 12345;
      push { time = (!x lsr 8) land 0xFFFF; tag = i }
    done;
    for _ = 0 to 2047 do
      let e = pop () in
      Hashtbl.replace table (e.tag land 1023) e.time;
      acc := !acc + e.time
    done;
    let keys = Array.init 2048 (fun i -> (i * round * 7919) land 0xFFFF) in
    Array.sort compare keys;
    acc := !acc + keys.(1024) + Hashtbl.length table;
    let cells = ref [] in
    for i = 0 to 4095 do
      cells := (i, float_of_int (i * round)) :: !cells
    done;
    acc := List.fold_left (fun a (i, f) -> a + i + int_of_float f) !acc !cells land 0xFFFFFF
  done;
  !acc

(* One timing of the reference loop on [domains] domains at once, in raw
   seconds. *)
let measure ?(domains = 1) () =
  let t0 = Unix.gettimeofday () in
  let helpers = List.init (domains - 1) (fun _ -> Domain.spawn reference_work) in
  ignore (Sys.opaque_identity (reference_work ()));
  List.iter (fun d -> ignore (Sys.opaque_identity (Domain.join d))) helpers;
  Unix.gettimeofday () -. t0

(* Calibrated seconds are raw seconds times this factor. *)
let factor ~c_ref ~c_run =
  if c_run <= 0.0 then invalid_arg "Calib.factor: c_run must be positive";
  c_ref /. c_run
