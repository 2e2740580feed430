(* Span recorder for the traced run. A span has a name, a start and an end
   (host seconds), the span that was open when it began (its parent) and
   an id: the endpoint, client or replicate index. Each domain records
   into its own recorder — a campaign's worker domains included — so
   recording needs no locks.

   Self time (duration minus what direct children cover) and allocation
   are folded into per-name totals when a span closes, so the summary
   costs no memory per span. The spans themselves are kept in memory up
   to [log_capacity] per domain and written out at the end; a traced pass
   of the larger workloads records millions of spans, and the first ones
   are enough to read a timeline. With [on] false every entry point is
   one branch. *)

let on = ref false

(* Span names. *)
let pass = 0
let des_run = 1
let repl_handler = 2
let noc_send = 3
let repl_submit = 4
let hw_mc = 5
let hw_build = 6
let core_soc_create = 7
let repl_start = 8
let fault_start = 9
let campaign_trial = 10
let campaign_run = 11
let resilience_start = 12
let n_names = 13

let names =
  [|
    "pass"; "des.run"; "repl.handler"; "noc.send"; "repl.submit"; "hw.mc"; "hw.build";
    "core.soc_create"; "repl.start"; "fault.start"; "campaign.trial"; "campaign.run";
    "resilience.start";
  |]

type summary = {
  calls : int array;
  total : float array;  (** inclusive seconds *)
  self : float array;  (** seconds not covered by child spans *)
  words : float array;  (** minor-heap words allocated, inclusive *)
}

let empty_summary () =
  {
    calls = Array.make n_names 0;
    total = Array.make n_names 0.0;
    self = Array.make n_names 0.0;
    words = Array.make n_names 0.0;
  }

let log_capacity = 200_000

type recorder = {
  (* open spans, innermost last *)
  mutable depth : int;
  mutable s_name : int array;
  mutable s_t0 : float array;
  mutable s_w0 : float array;
  mutable s_covered : float array;
  mutable s_log : int array;  (* index in the log, or -1 *)
  summary : summary;
  (* the first [log_capacity] spans *)
  mutable logged : int;
  l_name : int array;
  l_id : int array;
  l_parent : int array;
  l_t0 : float array;
  l_t1 : float array;
}

let create () =
  {
    depth = 0;
    s_name = Array.make 16 0;
    s_t0 = Array.make 16 0.0;
    s_w0 = Array.make 16 0.0;
    s_covered = Array.make 16 0.0;
    s_log = Array.make 16 0;
    summary = empty_summary ();
    logged = 0;
    l_name = Array.make log_capacity 0;
    l_id = Array.make log_capacity 0;
    l_parent = Array.make log_capacity 0;
    l_t0 = Array.make log_capacity 0.0;
    l_t1 = Array.make log_capacity 0.0;
  }

let grow_stack r =
  let cap = 2 * Array.length r.s_name in
  let gi a = Array.append a (Array.make (cap - Array.length a) 0) in
  let gf a = Array.append a (Array.make (cap - Array.length a) 0.0) in
  r.s_name <- gi r.s_name;
  r.s_t0 <- gf r.s_t0;
  r.s_w0 <- gf r.s_w0;
  r.s_covered <- gf r.s_covered;
  r.s_log <- gi r.s_log

let enter_at r name id t0 w0 =
  if r.depth = Array.length r.s_name then grow_stack r;
  let d = r.depth in
  r.depth <- d + 1;
  r.s_name.(d) <- name;
  r.s_t0.(d) <- t0;
  r.s_w0.(d) <- w0;
  r.s_covered.(d) <- 0.0;
  if r.logged < log_capacity then begin
    let i = r.logged in
    r.logged <- i + 1;
    r.l_name.(i) <- name;
    r.l_id.(i) <- id;
    r.l_parent.(i) <- (if d > 0 then r.s_log.(d - 1) else -1);
    r.l_t0.(i) <- t0;
    r.l_t1.(i) <- t0;
    r.s_log.(d) <- i
  end
  else r.s_log.(d) <- -1

let leave_at r t1 w1 =
  let d = r.depth - 1 in
  r.depth <- d;
  let k = r.s_name.(d) in
  let dur = t1 -. r.s_t0.(d) in
  let s = r.summary in
  s.calls.(k) <- s.calls.(k) + 1;
  s.total.(k) <- s.total.(k) +. dur;
  s.self.(k) <- s.self.(k) +. (dur -. r.s_covered.(d));
  s.words.(k) <- s.words.(k) +. (w1 -. r.s_w0.(d));
  if d > 0 then r.s_covered.(d - 1) <- r.s_covered.(d - 1) +. dur;
  let i = r.s_log.(d) in
  if i >= 0 then r.l_t1.(i) <- t1

let all : recorder list ref = ref []
let all_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let r = create () in
      Mutex.protect all_lock (fun () -> all := r :: !all);
      r)

(* [enter]/[leave] for hot wrappers: no closure. [leave] must follow its
   [enter] on the same domain, exceptions included. *)
let enter name id =
  if !on then enter_at (Domain.DLS.get key) name id (Unix.gettimeofday ()) (Gc.minor_words ())

let leave () = if !on then leave_at (Domain.DLS.get key) (Unix.gettimeofday ()) (Gc.minor_words ())

let span name id f =
  if not !on then f ()
  else begin
    enter name id;
    match f () with
    | v ->
      leave ();
      v
    | exception e ->
      leave ();
      raise e
  end

(* Start a traced pass afresh. Call from the main domain while no other
   domain is recording; recorders of finished worker domains are dropped. *)
let reset () =
  let r = Domain.DLS.get key in
  r.depth <- 0;
  r.logged <- 0;
  Array.fill r.summary.calls 0 n_names 0;
  List.iter (fun a -> Array.fill a 0 n_names 0.0) [ r.summary.total; r.summary.self; r.summary.words ];
  Mutex.protect all_lock (fun () -> all := [ r ])

let summarise () =
  let s = empty_summary () in
  Mutex.protect all_lock (fun () ->
      List.iter
        (fun r ->
          for k = 0 to n_names - 1 do
            s.calls.(k) <- s.calls.(k) + r.summary.calls.(k);
            s.total.(k) <- s.total.(k) +. r.summary.total.(k);
            s.self.(k) <- s.self.(k) +. r.summary.self.(k);
            s.words.(k) <- s.words.(k) +. r.summary.words.(k)
          done)
        !all);
  s

(* Tab-separated dump of the logged spans: domain, span index, name, id,
   parent index, start and end in microseconds from the earliest span. *)
let write path =
  let recs = Mutex.protect all_lock (fun () -> List.rev !all) in
  let origin =
    List.fold_left (fun acc r -> if r.logged > 0 then Float.min acc r.l_t0.(0) else acc) infinity recs
  in
  let oc = open_out path in
  output_string oc "domain\tspan\tname\tid\tparent\tstart_us\tend_us\n";
  List.iteri
    (fun d r ->
      for i = 0 to r.logged - 1 do
        Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%.3f\t%.3f\n" d i names.(r.l_name.(i)) r.l_id.(i)
          r.l_parent.(i)
          ((r.l_t0.(i) -. origin) *. 1e6)
          ((r.l_t1.(i) -. origin) *. 1e6)
      done)
    recs;
  close_out oc
