(* Tests for the resoc_check layer: ddmin minimization, injection-log mask
   semantics, FAIL_*.json round-trips, the invariant checkers themselves,
   mutation self-tests proving the checkers catch deliberately broken
   protocols (and pass the unbroken ones), checker transparency (enabling it
   never changes a run), and the end-to-end campaign auto-shrink path. *)

module Check = Resoc_check.Check
module Inject = Resoc_check.Inject
module Shrink = Resoc_check.Shrink
module Replay = Resoc_check.Replay
module Engine = Resoc_des.Engine
module Rng = Resoc_des.Rng
module Register = Resoc_hw.Register
module Seu = Resoc_fault.Seu
module Transport = Resoc_repl.Transport
module Quorum = Resoc_repl.Quorum
module Pbft = Resoc_repl.Pbft
module Minbft = Resoc_repl.Minbft
module Stats = Resoc_repl.Stats
module Usig = Resoc_hybrid.Usig
module Batcher = Resoc_repl.Batcher
module Campaign = Resoc_campaign.Campaign
module Emit = Resoc_campaign.Emit

(* Gates are global; every test that touches them restores the disabled
   state so suites cannot contaminate one another. *)
let with_check f =
  Fun.protect
    ~finally:(fun () ->
      Check.disable ();
      Inject.stop ();
      Check.begin_replicate ();
      Inject.begin_replicate ())
    (fun () ->
      Check.enable ();
      Inject.record ();
      Check.begin_replicate ();
      Inject.begin_replicate ();
      f ())

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* --- ddmin -------------------------------------------------------------- *)

let test_ddmin_pair () =
  let tests = ref 0 in
  let test keep =
    incr tests;
    List.mem 3 keep && List.mem 7 keep
  in
  let keep = List.sort compare (Shrink.ddmin ~test 12) in
  Alcotest.(check (list int)) "exact minimal pair" [ 3; 7 ] keep;
  Alcotest.(check bool) "bounded work" true (!tests <= 512)

let test_ddmin_empty_failing () =
  Alcotest.(check (list int)) "vacuous failure needs no events" []
    (Shrink.ddmin ~test:(fun _ -> true) 10)

let test_ddmin_single () =
  Alcotest.(check (list int)) "single culprit" [ 5 ]
    (List.sort compare (Shrink.ddmin ~test:(fun keep -> List.mem 5 keep) 9))

let test_ddmin_result_fails () =
  (* Whatever ddmin returns must itself be a failing schedule, even for
     awkward predicates and tiny budgets. *)
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:50 ~name:"ddmin result still fails"
       QCheck.(pair (int_range 1 20) (list_of_size Gen.(1 -- 4) (int_bound 19)))
       (fun (n, culprits) ->
         let culprits = List.filter (fun c -> c < n) culprits in
         QCheck.assume (culprits <> []);
         let test keep = List.for_all (fun c -> List.mem c keep) culprits in
         let keep = Shrink.ddmin ~max_tests:64 ~test n in
         test keep))

(* --- injection log ------------------------------------------------------ *)

let test_inject_mask () =
  with_check (fun () ->
      let permit i = Inject.permit ~kind:Inject.Seu ~time:(10 * i) ~a:i ~b:0 in
      let granted = List.init 5 permit in
      Alcotest.(check (list bool)) "no mask grants all" [ true; true; true; true; true ] granted;
      Alcotest.(check int) "five occurrences logged" 5 (Inject.count ());
      Inject.begin_replicate ();
      Inject.set_mask ~total:5 [ 1; 3 ];
      let granted = List.init 7 permit in
      Alcotest.(check (list bool))
        "mask keeps listed indices, suppresses the rest and any overflow"
        [ false; true; false; true; false; false; false ]
        granted;
      Alcotest.(check int) "suppressed occurrences still logged" 7 (Inject.count ());
      Inject.begin_replicate ();
      Alcotest.(check int) "begin_replicate drops the log" 0 (Inject.count ());
      Alcotest.(check bool) "and the mask" true (permit 0))

let test_inject_inactive () =
  Alcotest.(check bool) "inactive permit grants" true
    (Inject.permit ~kind:Inject.Trojan ~time:0 ~a:0 ~b:0);
  Alcotest.(check int) "and logs nothing" 0 (Inject.count ())

(* --- FAIL json round-trip ----------------------------------------------- *)

let sample_record =
  {
    Replay.experiment = "e6";
    cell = "reactive/\"max\"";
    seed = -3L;
    error = "invariant violation: agreement at (0,3)\nbacktrace";
    total_events = 41;
    keep = [ 2; 17 ];
    events =
      [
        { Replay.kind = Inject.Seu; time = 120; a = 3; b = 17; kept = true };
        { Replay.kind = Inject.Apt; time = 999; a = 1; b = 0; kept = false };
        { Replay.kind = Inject.Trojan; time = 1000; a = 2; b = 0; kept = true };
      ];
  }

let test_replay_roundtrip () =
  let rt = Replay.of_json (Replay.to_json sample_record) in
  Alcotest.(check bool) "round-trips" true (rt = sample_record);
  Alcotest.(check string) "filename" "FAIL_e6_-3.json" (Replay.filename sample_record)

let test_replay_write_read () =
  let dir = Filename.temp_file "resoc_check" "" in
  Sys.remove dir;
  let path = Replay.write ~dir sample_record in
  Alcotest.(check bool) "file lands under dir" true (Filename.dirname path = dir);
  Alcotest.(check bool) "read back equal" true (Replay.read path = sample_record)

(* --- invariant units ---------------------------------------------------- *)

let violates f =
  match f () with () -> false | exception Check.Violation _ -> true

let test_agreement () =
  with_check (fun () ->
      let s = Check.new_session ~protocol:"unit" in
      let commit ~replica ~view ~seq ~digest =
        Check.commit ~session:s ~replica ~view ~seq ~digest ~signers:3 ~quorum:3 ~faulty:false
      in
      commit ~replica:0 ~view:0 ~seq:1 ~digest:11L;
      commit ~replica:1 ~view:0 ~seq:1 ~digest:11L;
      commit ~replica:0 ~view:1 ~seq:1 ~digest:22L;
      Alcotest.(check bool) "same slot, different digest" true
        (violates (fun () -> commit ~replica:2 ~view:0 ~seq:1 ~digest:22L));
      Alcotest.(check bool) "faulty replicas may lie" false
        (violates (fun () ->
             Check.commit ~session:s ~replica:3 ~view:0 ~seq:1 ~digest:33L ~signers:3 ~quorum:3
               ~faulty:true)))

let test_quorum_certificate () =
  with_check (fun () ->
      let s = Check.new_session ~protocol:"unit" in
      Alcotest.(check bool) "thin certificate" true
        (violates (fun () ->
             Check.commit ~session:s ~replica:0 ~view:0 ~seq:1 ~digest:1L ~signers:2 ~quorum:3
               ~faulty:false));
      Alcotest.(check bool) "certificate-free protocols skip the check" false
        (violates (fun () ->
             Check.commit ~session:s ~replica:0 ~view:0 ~seq:2 ~digest:1L ~signers:(-1) ~quorum:3
               ~faulty:false)))

let test_counter_issuance () =
  with_check (fun () ->
      let h = Check.new_hybrid ~name:"usig" in
      Check.counter_issued ~hybrid:h ~read:0L ~issued:1L ~digest:10L;
      Check.counter_issued ~hybrid:h ~read:1L ~issued:2L ~digest:20L;
      Alcotest.(check bool) "re-issue to a different digest is equivocation" true
        (violates (fun () -> Check.counter_issued ~hybrid:h ~read:2L ~issued:2L ~digest:30L));
      let h = Check.new_hybrid ~name:"usig" in
      Check.counter_issued ~hybrid:h ~read:0L ~issued:1L ~digest:10L;
      Alcotest.(check bool) "regression" true
        (violates (fun () -> Check.counter_issued ~hybrid:h ~read:1L ~issued:0L ~digest:40L));
      (* An SEU that corrupts the register shows up as a readback that differs
         from the last issued value; the tracker resyncs instead of firing. *)
      let h = Check.new_hybrid ~name:"usig" in
      Check.counter_issued ~hybrid:h ~read:0L ~issued:1L ~digest:10L;
      Alcotest.(check bool) "perturbed readback forgiven" false
        (violates (fun () -> Check.counter_issued ~hybrid:h ~read:9L ~issued:10L ~digest:50L)))

let test_a2m_and_noc () =
  with_check (fun () ->
      let h = Check.new_hybrid ~name:"a2m" in
      Check.a2m_append ~hybrid:h ~seq:1L ~digest:1L;
      Check.a2m_append ~hybrid:h ~seq:2L ~digest:2L;
      Alcotest.(check bool) "a2m gap" true
        (violates (fun () -> Check.a2m_append ~hybrid:h ~seq:4L ~digest:4L));
      let n = Check.new_network () in
      Check.flit_injected ~net:n;
      Check.flit_delivered ~net:n;
      Alcotest.(check bool) "phantom delivery" true
        (violates (fun () -> Check.flit_dropped ~net:n)))

let test_stale_ids_ignored () =
  with_check (fun () ->
      let stale_session = Check.new_session ~protocol:"old" in
      let stale_net = Check.new_network () in
      Check.begin_replicate ();
      (* The fresh objects take the same slots as the stale ones. *)
      let fresh_session = Check.new_session ~protocol:"new" in
      let fresh_net = Check.new_network () in
      Check.commit ~session:stale_session ~replica:0 ~view:0 ~seq:1 ~digest:1L ~signers:3
        ~quorum:3 ~faulty:false;
      Alcotest.(check bool) "stale session does not pollute the fresh one" false
        (violates (fun () ->
             Check.commit ~session:fresh_session ~replica:1 ~view:0 ~seq:1 ~digest:2L ~signers:3
               ~quorum:3 ~faulty:false));
      Check.flit_injected ~net:fresh_net;
      Check.flit_delivered ~net:stale_net;
      Alcotest.(check bool) "stale net does not pollute the fresh one" false
        (violates (fun () -> Check.flit_delivered ~net:fresh_net)))

(* --- equivalence with the reference model ------------------------------- *)

(* Random hook traces run against the checker and against [Check_ref], a
   copy of the Hashtbl checker it replaced: at every step both must raise
   the same violation message or neither. Objects are named by creation
   index, since the two number their ids differently. Most steps are
   well-formed — a slot's canonical digest, a batch's next position, a
   counter one past the last issued — so traces run long, and the rare
   malformed step is the violation under test: disagreeing commits,
   quorum shortfalls, batch positions out of range or order, requests in
   two batches, counter regressions, resyncs and equivocations, A2M gaps,
   hop revisits across epoch flips, conservation breaks, multicast
   duplicates and misses. Small value ranges make collisions likely. *)

type op =
  | New_session
  | New_hybrid of string
  | New_net
  (* obj replica view seq digest signers faulty; [None] is the slot's
     canonical digest *)
  | Commit of int * int * int * int * int option * int * bool
  (* obj replica view seq pos len client rid faulty; [None] is the
     batch's next position *)
  | Batch of int * int * int * int * int option * int * int * int * bool
  | Batch_again  (* the trace's last batch report, exactly *)
  | Window of int * int * int * int * int * bool  (* obj replica seq low high faulty *)
  | Transfer of int * int * int * int * int * bool  (* obj replica seq claimed actual faulty *)
  | Issue of int * int * int * int  (* obj read-skew delta digest *)
  | Append of int * int * int  (* obj delta digest *)
  (* obj, 0 inject / 1 deliver / 2 drop; a deliver or drop with nothing
     in flight injects instead, unless [forced] *)
  | Flit of int * int * bool
  | Hop of int * int * int * int * int * bool * bool  (* obj flight epoch cur next cur_up link_up *)
  | Done of int * int  (* obj flight *)
  | Reach of int * int * int * bool  (* obj node dst reachable *)
  | Mbegin of int * int  (* obj mcast *)
  | Mexpect of int * int * int  (* obj mcast node *)
  | Mdeliver of int * int * int
  | Mdone of int * int * bool
  (* obj mcast expected delivered strict: a whole multicast as one step *)
  | Mround of int * int * int list * int list * bool
  (* obj, flights with their routes: the flights hop in turn, one router
     a step, and each is done after its last hop *)
  | Fround of int * (int * int list) list

let show_opt = function None -> "_" | Some n -> string_of_int n

let show_op = function
  | New_session -> "new_session"
  | New_hybrid name -> "new_hybrid " ^ name
  | New_net -> "new_net"
  | Commit (o, r, v, q, d, g, f) ->
    Printf.sprintf "commit o%d r%d v%d s%d d%s sig%d %b" o r v q (show_opt d) g f
  | Batch (o, r, v, q, p, l, c, i, f) ->
    Printf.sprintf "batch o%d r%d v%d s%d p%s/%d c%d#%d %b" o r v q (show_opt p) l c i f
  | Batch_again -> "batch_again"
  | Window (o, r, q, lo, hi, f) -> Printf.sprintf "window o%d r%d s%d (%d,%d] %b" o r q lo hi f
  | Transfer (o, r, q, c, a, f) -> Printf.sprintf "transfer o%d r%d s%d %d/%d %b" o r q c a f
  | Issue (o, k, d, g) -> Printf.sprintf "issue o%d skew%d delta%d d%d" o k d g
  | Append (o, d, g) -> Printf.sprintf "append o%d delta%d d%d" o d g
  | Flit (o, k, forced) -> Printf.sprintf "flit o%d %d %b" o k forced
  | Hop (o, f, e, c, n, u, l) -> Printf.sprintf "hop o%d f%d e%d %d->%d %b %b" o f e c n u l
  | Done (o, f) -> Printf.sprintf "done o%d f%d" o f
  | Reach (o, n, d, r) -> Printf.sprintf "reach o%d %d->%d %b" o n d r
  | Mbegin (o, m) -> Printf.sprintf "mbegin o%d m%d" o m
  | Mexpect (o, m, n) -> Printf.sprintf "mexpect o%d m%d n%d" o m n
  | Mdeliver (o, m, n) -> Printf.sprintf "mdeliver o%d m%d n%d" o m n
  | Mdone (o, m, st) -> Printf.sprintf "mdone o%d m%d %b" o m st
  | Mround (o, m, e, d, st) ->
    let nodes l = String.concat "," (List.map string_of_int l) in
    Printf.sprintf "mround o%d m%d {%s} {%s} %b" o m (nodes e) (nodes d) st
  | Fround (o, flights) ->
    let route (f, path) =
      Printf.sprintf "f%d:%s" f (String.concat "-" (List.map string_of_int path))
    in
    Printf.sprintf "fround o%d %s" o (String.concat " " (List.map route flights))

let gen_op =
  let open QCheck.Gen in
  let o = int_bound 4 and small = int_bound 3 in
  let rare = map (fun n -> n = 0) (int_bound 24) in
  let usually = map not rare in
  let sometimes g = fun st -> if rare st then Some (g st) else None in
  let node = oneofl [ 0; 1; 2; 31; 32; 63; 64; 100 ] in
  (* Flight and multicast ids 16 apart share a home entry in the
     checker's tables, so removals must shift colliding entries back. *)
  let flight = oneofl [ 0; 16; 32; 1 ] and mcast = oneofl [ 0; 16; 32 ] in
  frequency
    [
      (2, return New_session);
      (2, map (fun a2m -> New_hybrid (if a2m then "a2m" else "usig")) bool);
      (2, return New_net);
      ( 8,
        fun st ->
          let signers = if rare st then 2 else if rare st then -1 else 3 in
          Commit
            ( o st, small st, int_bound 1 st, int_bound 5 st, sometimes (int_bound 2) st, signers,
              rare st ) );
      ( 8,
        fun st ->
          let len = 1 + int_bound 3 st in
          Batch
            ( o st, int_bound 2 st, int_bound 1 st, int_bound 3 st,
              sometimes (int_range (-1) len) st, len, int_bound 1 st, int_bound 7 st, rare st ) );
      (2, return Batch_again);
      ( 3,
        fun st ->
          let low = int_bound 4 st in
          let seq = if rare st then int_bound 9 st else low + 1 + int_bound 3 st in
          Window (o st, small st, seq, low, low + 4, rare st) );
      ( 1,
        fun st ->
          let claimed = int_bound 2 st in
          let actual = if rare st then int_bound 2 st else claimed in
          Transfer (o st, small st, int_bound 9 st, claimed, actual, rare st) );
      ( 8,
        fun st ->
          let delta = if rare st then int_range (-3) 0 st else 1 + int_bound 1 st in
          Issue (o st, (if rare st then 5 else 0), delta, int_bound 2 st) );
      (5, fun st -> Append (o st, (if rare st then int_range (-1) 2 st else 1), int_bound 2 st));
      (6, fun st -> Flit (o st, frequencyl [ (3, 0); (2, 1); (1, 2) ] st, rare st));
      ( 10,
        fun st ->
          let cur = int_bound 4 st and next = int_bound 4 st in
          Hop (o st, flight st, int_bound 2 st, cur, next, usually st, usually st) );
      (6, map2 (fun o f -> Done (o, f)) o flight);
      (1, fun st -> Reach (o st, small st, small st, rare st));
      (2, map2 (fun o m -> Mbegin (o, m)) o mcast);
      (6, fun st -> Mexpect (o st, mcast st, node st));
      (6, fun st -> Mdeliver (o st, mcast st, node st));
      (3, fun st -> Mdone (o st, mcast st, not (rare st)));
      ( 4,
        fun st ->
          let expected = List.sort_uniq compare (list_size (int_bound 4) node st) in
          let delivered =
            match (int_bound 9 st, expected) with
            | 0, _ -> List.filter (fun _ -> bool st) expected  (* reachable nodes missed *)
            | 1, n :: _ -> n :: expected  (* a duplicate *)
            | 2, _ -> node st :: expected  (* an extra, or a duplicate *)
            | _ -> expected
          in
          Mround (o st, mcast st, expected, shuffle_l delivered st, usually st) );
      ( 4,
        fun st ->
          (* Loop-free routes but for the rare revisit. *)
          let route _ =
            let path = List.init (1 + int_bound 4 st) (fun k -> (k * 3) + int_bound 2 st) in
            if rare st then path @ [ List.hd path ] else path
          in
          let ids = List.sort_uniq compare (list_size (1 -- 4) flight st) in
          Fround (o st, List.map (fun f -> (f, route f)) ids) );
    ]

module type CHECKER = module type of Check

(* Run one checker over a trace; the outcome of each step is [None] or
   the violation message, and the run stops at the first violation. *)
let run_trace (module C : CHECKER) ops =
  C.begin_replicate ();
  let ids = ref [||] and last = Hashtbl.create 8 and next_pos = Hashtbl.create 8 in
  let in_flight = Hashtbl.create 8 and last_batch = ref None in
  let id k = if !ids = [||] then -1 else !ids.(k mod Array.length !ids) in
  let counter k = Option.value ~default:0 (Hashtbl.find_opt last (id k)) in
  let i64 = Int64.of_int in
  let step = function
    | New_session -> ids := Array.append !ids [| C.new_session ~protocol:"p" |]
    | New_hybrid name -> ids := Array.append !ids [| C.new_hybrid ~name |]
    | New_net -> ids := Array.append !ids [| C.new_network () |]
    | Commit (k, replica, view, seq, digest, signers, faulty) ->
      let digest = Option.value digest ~default:((view * 10) + seq) in
      C.commit ~session:(id k) ~replica ~view ~seq ~digest:(i64 digest) ~signers ~quorum:3 ~faulty
    | Batch (k, replica, view, seq, pos, len, client, rid, faulty) ->
      let key = (id k, replica, view, seq) in
      let next = Option.value ~default:0 (Hashtbl.find_opt next_pos key) in
      let pos = Option.value pos ~default:(min next (len - 1)) in
      Hashtbl.replace next_pos key (pos + 1);
      let report () =
        C.batch_commit ~session:(id k) ~replica ~view ~seq ~pos ~len ~client ~rid ~faulty
      in
      last_batch := Some report;
      report ()
    | Batch_again -> Option.iter (fun report -> report ()) !last_batch
    | Window (k, replica, seq, low, high, faulty) ->
      C.exec_window ~session:(id k) ~replica ~seq ~low ~high ~faulty
    | Transfer (k, replica, seq, claimed, actual, faulty) ->
      C.transfer_applied ~session:(id k) ~replica ~seq ~claimed:(i64 claimed)
        ~actual:(i64 actual) ~faulty
    | Issue (k, skew, delta, digest) ->
      let read = counter k + skew and issued = counter k + delta in
      Hashtbl.replace last (id k) issued;
      C.counter_issued ~hybrid:(id k) ~read:(i64 read) ~issued:(i64 issued) ~digest:(i64 digest)
    | Append (k, delta, digest) ->
      let seq = counter k + delta in
      Hashtbl.replace last (id k) seq;
      C.a2m_append ~hybrid:(id k) ~seq:(i64 seq) ~digest:(i64 digest)
    | Flit (k, kind, forced) ->
      let net = id k in
      let n = Option.value ~default:0 (Hashtbl.find_opt in_flight net) in
      let kind = if kind > 0 && n = 0 && not forced then 0 else kind in
      Hashtbl.replace in_flight net (if kind = 0 then n + 1 else n - 1);
      if kind = 0 then C.flit_injected ~net
      else if kind = 1 then C.flit_delivered ~net
      else C.flit_dropped ~net
    | Hop (k, flight, epoch, cur, next, cur_up, link_up) ->
      C.noc_hop ~net:(id k) ~flight ~epoch ~cur ~next ~cur_up ~link_up
    | Done (k, flight) -> C.noc_flight_done ~net:(id k) ~flight
    | Reach (k, node, dst, reachable) -> C.noc_reachable_drop ~net:(id k) ~node ~dst ~reachable
    | Mbegin (k, mcast) -> C.mcast_begin ~net:(id k) ~mcast
    | Mexpect (k, mcast, node) -> C.mcast_expect ~net:(id k) ~mcast ~node
    | Mdeliver (k, mcast, node) -> C.mcast_deliver ~net:(id k) ~mcast ~node
    | Mdone (k, mcast, strict) -> C.mcast_done ~net:(id k) ~mcast ~strict
    | Fround (k, flights) ->
      let net = id k in
      let longest = List.fold_left (fun m (_, path) -> max m (List.length path)) 0 flights in
      for step = 0 to longest - 1 do
        List.iter
          (fun (flight, path) ->
            match List.nth_opt path step with
            | Some cur ->
              C.noc_hop ~net ~flight ~epoch:0 ~cur ~next:(cur + 1) ~cur_up:true ~link_up:true;
              if step = List.length path - 1 then C.noc_flight_done ~net ~flight
            | None -> ())
          flights
      done
    | Mround (k, mcast, expected, delivered, strict) ->
      let net = id k in
      C.mcast_begin ~net ~mcast;
      List.iter (fun node -> C.mcast_expect ~net ~mcast ~node) expected;
      List.iter (fun node -> C.mcast_deliver ~net ~mcast ~node) delivered;
      C.mcast_done ~net ~mcast ~strict
  in
  let rec go acc = function
    | [] -> (List.rev acc, C.hooks_fired ())
    | op :: rest -> (
      match step op with
      | () -> go (None :: acc) rest
      | exception C.Violation msg -> (List.rev (Some msg :: acc), C.hooks_fired ()))
  in
  go [] ops

let prop_matches_reference =
  QCheck.Test.make ~name:"checker raises exactly what the Hashtbl reference raises" ~count:4000
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (1 -- 120) gen_op))
    (fun ops -> run_trace (module Check) ops = run_trace (module Check_ref) ops)

(* --- zero allocation ---------------------------------------------------- *)

(* Minor words [f] allocates; every argument it passes is built
   beforehand, so only the hooks themselves are measured. *)
let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let zero name f =
  f ();
  Alcotest.(check (float 0.0)) (name ^ ": minor words in steady state") 0.0 (minor_words f)

let test_noc_hooks_allocate_nothing () =
  with_check (fun () ->
      let net = Check.new_network () in
      let next = ref 0 in
      (* Eight flights in the air at once, six hops each, one dropped. *)
      let wave () =
        let first = !next in
        next := first + 8;
        for _ = first to first + 7 do
          Check.flit_injected ~net
        done;
        for hop = 0 to 5 do
          for f = first to first + 7 do
            Check.noc_hop ~net ~flight:f ~epoch:0 ~cur:hop ~next:(hop + 1) ~cur_up:true
              ~link_up:true
          done
        done;
        for f = first to first + 7 do
          Check.noc_flight_done ~net ~flight:f;
          if f = first then Check.flit_dropped ~net else Check.flit_delivered ~net
        done
      in
      zero "noc hop, flight done, flits" (fun () ->
          for _ = 1 to 50 do
            wave ()
          done))

let test_session_hooks_allocate_nothing () =
  with_check (fun () ->
      let session = Check.new_session ~protocol:"p" in
      let digests = Array.init 2000 Int64.of_int in
      let commits ~replica ~from ~upto () =
        for seq = from to upto do
          Check.commit ~session ~replica ~view:0 ~seq ~digest:digests.(seq) ~signers:3 ~quorum:3
            ~faulty:false
        done
      in
      let batches ~replica ~from ~upto () =
        for seq = from to upto do
          Check.batch_commit ~session ~replica ~view:0 ~seq ~pos:0 ~len:1 ~client:0 ~rid:seq
            ~faulty:false
        done
      in
      (* Grow the tables, then: agreeing commits from other replicas,
         exact batch re-reports, and fresh keys that fit the grown
         tables. *)
      commits ~replica:0 ~from:0 ~upto:999 ();
      batches ~replica:0 ~from:0 ~upto:999 ();
      Alcotest.(check (float 0.0)) "commit: minor words on a grown table" 0.0
        (minor_words (fun () ->
             commits ~replica:1 ~from:0 ~upto:999 ();
             commits ~replica:0 ~from:1000 ~upto:1399 ()));
      Alcotest.(check (float 0.0)) "batch_commit: minor words on a grown table" 0.0
        (minor_words (fun () ->
             batches ~replica:0 ~from:0 ~upto:999 ();
             batches ~replica:0 ~from:1000 ~upto:1099 ()));
      zero "exec_window" (fun () ->
          for seq = 1 to 1000 do
            Check.exec_window ~session ~replica:0 ~seq ~low:0 ~high:1000 ~faulty:false
          done))

let test_counter_issued_allocates_nothing () =
  with_check (fun () ->
      let hybrid = Check.new_hybrid ~name:"usig" in
      let counters = Array.init 3001 Int64.of_int in
      let issue ~from ~upto () =
        for c = from to upto do
          Check.counter_issued ~hybrid ~read:counters.(c - 1) ~issued:counters.(c)
            ~digest:counters.(c land 7)
        done
      in
      issue ~from:1 ~upto:2000 ();
      (* A perturbed readback resyncs the tracker; the issuances after it
         refill the bindings the first run grew. *)
      Check.counter_issued ~hybrid ~read:counters.(7) ~issued:counters.(1000) ~digest:counters.(0);
      Alcotest.(check (float 0.0)) "counter_issued: minor words after warm-up" 0.0
        (minor_words (issue ~from:1001 ~upto:3000)))

(* --- mutation self-tests ------------------------------------------------ *)

let run_pbft () =
  let engine = Engine.create () in
  let config = { Pbft.default_config with f = 1; n_clients = 1 } in
  let fabric = Transport.hub engine ~n:(Pbft.n_replicas config + 1) () in
  let sys = Pbft.start engine fabric config () in
  for i = 1 to 4 do
    Pbft.submit sys ~client:0 ~payload:(Int64.of_int i)
  done;
  Engine.run ~until:200_000 engine;
  (Pbft.stats sys).Stats.completed

let run_minbft ~seed ~count =
  let engine = Engine.create ~seed () in
  let config = { Minbft.default_config with n_clients = 1 } in
  let n = Minbft.n_replicas config in
  let fabric = Transport.hub engine ~n:(n + 1) () in
  let sys = Minbft.start engine fabric config () in
  for i = 1 to count do
    Minbft.submit sys ~client:0 ~payload:(Int64.of_int i)
  done;
  Engine.run ~until:200_000 engine;
  (engine, sys, n)

let test_mutant_broken_quorum () =
  with_check (fun () ->
      Alcotest.(check bool) "unmutated pbft passes" true (run_pbft () = 4);
      Alcotest.(check bool) "checker observed traffic" true (Check.hooks_fired () > 0);
      Check.begin_replicate ();
      Fun.protect
        ~finally:(fun () -> Quorum.test_quorum_slack := 0)
        (fun () ->
          (* Accept f+1 commit votes where 2f+1 are required. *)
          Quorum.test_quorum_slack := 1;
          match run_pbft () with
          | _ -> Alcotest.fail "broken quorum not flagged"
          | exception Check.Violation msg ->
            Alcotest.(check bool) "names the quorum invariant" true (contains ~sub:"quorum" msg)))

let test_mutant_usig_reissue () =
  with_check (fun () ->
      let _, sys, _ = run_minbft ~seed:7L ~count:4 in
      Alcotest.(check int) "unmutated minbft passes" 4 (Minbft.stats sys).Stats.completed;
      Alcotest.(check bool) "checker observed traffic" true (Check.hooks_fired () > 0);
      Check.begin_replicate ();
      Fun.protect
        ~finally:(fun () -> Usig.test_reissue := false)
        (fun () ->
          Usig.test_reissue := true;
          match run_minbft ~seed:7L ~count:4 with
          | _ -> Alcotest.fail "usig counter re-issue not flagged"
          | exception Check.Violation msg ->
            Alcotest.(check bool) "names the counter invariant" true
              (contains ~sub:"counter" msg)))

let run_pbft_batched () =
  let engine = Engine.create () in
  let batching =
    Some { Resoc_repl.Types.window_cycles = 50; max_batch = 4; pipeline_depth = 2 }
  in
  let config = { Pbft.default_config with f = 1; n_clients = 4; batching } in
  let fabric = Transport.hub engine ~n:(Pbft.n_replicas config + 4) () in
  let sys = Pbft.start engine fabric config () in
  for c = 0 to 3 do
    for i = 1 to 3 do
      Pbft.submit sys ~client:c ~payload:(Int64.of_int ((c * 10) + i))
    done
  done;
  Engine.run ~until:200_000 engine;
  (Pbft.stats sys).Stats.completed

let test_mutant_batch_duplicate () =
  with_check (fun () ->
      Alcotest.(check int) "unmutated batched pbft passes" 12 (run_pbft_batched ());
      Alcotest.(check bool) "checker observed traffic" true (Check.hooks_fired () > 0);
      Check.begin_replicate ();
      Fun.protect
        ~finally:(fun () -> Batcher.test_duplicate_first := false)
        (fun () ->
          (* Re-inject the first request of every sealed batch into the
             next one: the same request is agreed in two instances. *)
          Batcher.test_duplicate_first := true;
          match run_pbft_batched () with
          | _ -> Alcotest.fail "duplicated batch entry not flagged"
          | exception Check.Violation msg ->
            Alcotest.(check bool) "names batch atomicity" true
              (contains ~sub:"batch atomicity" msg)))

let test_minbft_legacy_batch_window_clean () =
  (* The legacy MinBFT batch window (A8's setting) buffers both the
     client's copy of a request and a backup's forwarded copy; each
     request must still be committed in exactly one batch. *)
  with_check (fun () ->
      let engine = Engine.create ~seed:13L () in
      let config =
        { Minbft.default_config with f = 1; n_clients = 8; batch_window = 50; max_batch = 16 }
      in
      let fabric = Transport.hub engine ~n:(Minbft.n_replicas config + 8) () in
      let sys = Minbft.start engine fabric config () in
      Resoc_workload.Generator.burst ~n_per_client:50 ~n_clients:8
        ~submit:(fun ~client ~payload -> Minbft.submit sys ~client ~payload);
      Engine.run ~until:600_000 engine;
      Alcotest.(check int) "all requests completed" 400 (Minbft.stats sys).Stats.completed;
      Alcotest.(check bool) "checker observed traffic" true (Check.hooks_fired () > 0))

(* --- transparency ------------------------------------------------------- *)

let minbft_fingerprint ~seed ~count =
  let engine, sys, n = run_minbft ~seed ~count in
  ( (Minbft.stats sys).Stats.completed,
    Engine.events_processed engine,
    List.init n (fun r -> Minbft.replica_state sys ~replica:r) )

let prop_checking_is_transparent =
  QCheck.Test.make ~name:"enabling the checker never changes a MinBFT run" ~count:20
    QCheck.(pair (int_bound 1000) (int_range 1 6))
    (fun (seed, count) ->
      let seed = Int64.of_int (seed + 1) in
      let base = minbft_fingerprint ~seed ~count in
      let checked = with_check (fun () -> minbft_fingerprint ~seed ~count) in
      base = checked)

let minbft_cell =
  Campaign.cell "minbft" (fun ~seed ->
      let _, sys, _ = run_minbft ~seed ~count:3 in
      [ ("completed", float_of_int (Minbft.stats sys).Stats.completed) ])

let campaign_json ~check =
  let dir = Filename.temp_file "resoc_check" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let config = { Campaign.default_config with replicates = 6; jobs = 2; check } in
  let result = Campaign.run ~config ~id:"chk" ~title:"transparency" [ minbft_cell ] in
  let path = Emit.json_file ~dir result in
  In_channel.with_open_bin path In_channel.input_all

let test_bench_json_transparent () =
  let base = campaign_json ~check:false in
  let checked = with_check (fun () -> campaign_json ~check:true) in
  Alcotest.(check string) "BENCH json byte-identical, checker on vs off" base checked

(* --- end-to-end campaign shrink ----------------------------------------- *)

(* A replicate whose only failure mode is SEU corruption of register 0: any
   single surviving upset on it reproduces, so ddmin must land on one event. *)
let seu_cell =
  Campaign.cell "seu" (fun ~seed ->
      let engine = Engine.create () in
      let rng = Rng.create seed in
      let regs = Array.init 8 (fun _ -> Register.create Register.Plain 0L) in
      let seu = Seu.start engine rng ~rate_per_bit_cycle:1e-5 regs in
      Engine.run ~until:20_000 engine;
      Seu.halt seu;
      (match Register.read regs.(0) with
      | 0L, _ -> ()
      | _ -> failwith "register 0 corrupted");
      [ ("injected", float_of_int (Seu.injected seu)) ])

let test_campaign_shrink () =
  with_check (fun () ->
      let dir = Filename.temp_file "resoc_check" "" in
      Sys.remove dir;
      let config =
        {
          Campaign.default_config with
          replicates = 4;
          jobs = 2;
          check = true;
          shrink = true;
          fail_dir = Some dir;
        }
      in
      let result = Campaign.run ~config ~id:"shrinke2e" ~title:"shrink e2e" [ seu_cell ] in
      let failures =
        List.fold_left (fun acc agg -> acc + Campaign.failures agg) 0 result.Campaign.cells
      in
      Alcotest.(check bool) "some replicate hit register 0" true (failures > 0);
      let fails =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> String.length f > 5 && String.sub f 0 5 = "FAIL_")
      in
      Alcotest.(check int) "one FAIL file per failed replicate" failures (List.length fails);
      let rt = Replay.read (Filename.concat dir (List.hd fails)) in
      Alcotest.(check string) "experiment recorded" "shrinke2e" rt.Replay.experiment;
      Alcotest.(check bool) "shrunk to <= 3 events" true (List.length rt.Replay.keep <= 3);
      Alcotest.(check bool) "schedule shrank" true
        (List.length rt.Replay.keep < rt.Replay.total_events);
      (* The minimal schedule reproduces under its mask. *)
      Check.begin_replicate ();
      Inject.begin_replicate ();
      Inject.set_mask ~total:rt.Replay.total_events rt.Replay.keep;
      let reproduced =
        match seu_cell.Campaign.run ~seed:rt.Replay.seed with
        | _ -> false
        | exception _ -> true
      in
      Alcotest.(check bool) "masked replay reproduces" true reproduced)

(* The broken-quorum mutant through the full campaign path: every replicate
   is flagged, and since no injection events are involved the schedule
   shrinks to the empty repro log. *)
let test_campaign_shrink_quorum_mutant () =
  with_check (fun () ->
      let cell =
        Campaign.cell "broken-quorum" (fun ~seed ->
            ignore seed;
            Quorum.test_quorum_slack := 1;
            Fun.protect
              ~finally:(fun () -> Quorum.test_quorum_slack := 0)
              (fun () ->
                ignore (run_pbft ());
                [ ("ok", 1.0) ]))
      in
      let dir = Filename.temp_file "resoc_check" "" in
      Sys.remove dir;
      let config =
        {
          Campaign.default_config with
          replicates = 2;
          check = true;
          shrink = true;
          fail_dir = Some dir;
        }
      in
      let result = Campaign.run ~config ~id:"quorumx" ~title:"quorum mutant" [ cell ] in
      let failures =
        List.fold_left (fun acc agg -> acc + Campaign.failures agg) 0 result.Campaign.cells
      in
      Alcotest.(check int) "every replicate flagged" 2 failures;
      let fails = Sys.readdir dir |> Array.to_list in
      Alcotest.(check int) "FAIL file per replicate" 2 (List.length fails);
      let rt = Replay.read (Filename.concat dir (List.hd fails)) in
      Alcotest.(check bool) "error names quorum" true (contains ~sub:"quorum" rt.Replay.error);
      Alcotest.(check bool) "<= 3-event repro" true (List.length rt.Replay.keep <= 3))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "resoc_check"
    [
      ( "ddmin",
        [
          Alcotest.test_case "minimal pair" `Quick test_ddmin_pair;
          Alcotest.test_case "empty failing" `Quick test_ddmin_empty_failing;
          Alcotest.test_case "single culprit" `Quick test_ddmin_single;
          Alcotest.test_case "result always fails" `Quick test_ddmin_result_fails;
        ] );
      ( "inject",
        [
          Alcotest.test_case "mask semantics" `Quick test_inject_mask;
          Alcotest.test_case "inactive is free" `Quick test_inject_inactive;
        ] );
      ( "replay",
        [
          Alcotest.test_case "json round-trip" `Quick test_replay_roundtrip;
          Alcotest.test_case "write/read" `Quick test_replay_write_read;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "agreement" `Quick test_agreement;
          Alcotest.test_case "quorum certificates" `Quick test_quorum_certificate;
          Alcotest.test_case "counter issuance" `Quick test_counter_issuance;
          Alcotest.test_case "a2m and noc" `Quick test_a2m_and_noc;
          Alcotest.test_case "stale ids ignored" `Quick test_stale_ids_ignored;
          Alcotest.test_case "minbft legacy batch window clean" `Quick
            test_minbft_legacy_batch_window_clean;
        ] );
      qsuite "reference" [ prop_matches_reference ];
      ( "zero-alloc",
        [
          Alcotest.test_case "noc hooks" `Quick test_noc_hooks_allocate_nothing;
          Alcotest.test_case "session hooks" `Quick test_session_hooks_allocate_nothing;
          Alcotest.test_case "counter issuance" `Quick test_counter_issued_allocates_nothing;
        ] );
      ( "mutants",
        [
          Alcotest.test_case "broken quorum flagged" `Quick test_mutant_broken_quorum;
          Alcotest.test_case "usig re-issue flagged" `Quick test_mutant_usig_reissue;
          Alcotest.test_case "batch duplicate flagged" `Quick test_mutant_batch_duplicate;
        ] );
      ( "transparency",
        [ Alcotest.test_case "BENCH json identical" `Quick test_bench_json_transparent ] );
      qsuite "transparency-prop" [ prop_checking_is_transparent ];
      ( "shrink-e2e",
        [
          Alcotest.test_case "campaign auto-shrink" `Quick test_campaign_shrink;
          Alcotest.test_case "quorum mutant shrunk" `Quick test_campaign_shrink_quorum_mutant;
        ] );
    ]
