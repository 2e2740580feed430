(* Reference model for the equivalence property in test_check.ml: the
   invariant checker as it was before its state became flat tables —
   Hashtbl-keyed sessions, hybrids and nets, tuple keys, list trails.
   Kept as it was but for one point: [mcast_done] scans the expected set
   in ascending node order (a Hashtbl's iteration order is an artefact),
   so that, like the production checker, it names the lowest missed
   node. *)

exception Violation of string

let () =
  Printexc.register_printer (function
    | Violation msg -> Some ("invariant violation: " ^ msg)
    | _ -> None)

let enabled = ref false
let enable () = enabled := true
let disable () = enabled := false
let violation fmt = Printf.ksprintf (fun msg -> raise (Violation msg)) fmt

type session = {
  protocol : string;
  (* (view, seq) -> digest committed there first, plus the committing replica
     (for the error message when a second replica disagrees). *)
  agreed : (int * int, int64 * int) Hashtbl.t;
  (* Batch atomicity: (replica, view, client, rid) -> (seq, pos) of the
     one committed batch the request belongs to. Keyed per replica and
     view because re-proposal after a view change legitimately re-commits
     an uncommitted-in-the-old-view request in a fresh batch. *)
  batched : (int * int * int * int, int * int) Hashtbl.t;
  (* Batch order: (replica, view, seq) -> next expected position. *)
  batch_next : (int * int * int, int) Hashtbl.t;
}

type hybrid = {
  h_name : string;
  h_id : int;
  mutable h_last : int64;  (* last issued counter / A2M position *)
  mutable h_primed : bool;  (* [h_last] is meaningful *)
  bound : (int64, int64) Hashtbl.t;  (* counter -> digest it was bound to *)
}

type net = {
  mutable injected : int;
  mutable delivered : int;
  mutable dropped : int;
  (* flight id -> (route-table epoch, routers visited under it, newest
     first). Loop freedom is an intra-epoch property — a recompute may
     legitimately route a flight back through earlier ground — so the
     trail resets when the epoch advances. Trails are short (bounded by
     the mesh diameter), so a revisit scan is O(path). *)
  visited : (int, int * int list) Hashtbl.t;
  (* multicast id -> its expected and observed delivery sets. *)
  mcasts : (int, mcast) Hashtbl.t;
}

and mcast = {
  mc_expected : (int, unit) Hashtbl.t;  (* tree-reachable destinations at send *)
  mc_got : (int, unit) Hashtbl.t;
}

type state = {
  sessions : (int, session) Hashtbl.t;
  hybrids : (int, hybrid) Hashtbl.t;
  nets : (int, net) Hashtbl.t;
  mutable next_id : int;
  mutable fired : int;
}

(* Per-domain state: campaign workers check their replicates independently, so
   [--check] composes with [--jobs n] exactly like the obs metric registry. *)
let state : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        sessions = Hashtbl.create 8;
        hybrids = Hashtbl.create 32;
        nets = Hashtbl.create 8;
        next_id = 0;
        fired = 0;
      })

let begin_replicate () =
  let s = Domain.DLS.get state in
  Hashtbl.reset s.sessions;
  Hashtbl.reset s.hybrids;
  Hashtbl.reset s.nets;
  s.next_id <- 0;
  s.fired <- 0

let hooks_fired () = (Domain.DLS.get state).fired

let fresh_id s =
  let id = s.next_id in
  s.next_id <- id + 1;
  id

let new_session ~protocol =
  let s = Domain.DLS.get state in
  let id = fresh_id s in
  Hashtbl.replace s.sessions id
    {
      protocol;
      agreed = Hashtbl.create 256;
      batched = Hashtbl.create 64;
      batch_next = Hashtbl.create 64;
    };
  id

let new_hybrid ~name =
  let s = Domain.DLS.get state in
  let id = fresh_id s in
  Hashtbl.replace s.hybrids id
    { h_name = name; h_id = id; h_last = 0L; h_primed = false; bound = Hashtbl.create 64 };
  id

let new_network () =
  let s = Domain.DLS.get state in
  let id = fresh_id s in
  Hashtbl.replace s.nets id
    {
      injected = 0;
      delivered = 0;
      dropped = 0;
      visited = Hashtbl.create 64;
      mcasts = Hashtbl.create 16;
    };
  id

(* Ids can outlive a [begin_replicate] when a system created for one replicate
   leaks into the next; lookups are therefore total and unknown ids ignored. *)

let commit ~session ~replica ~view ~seq ~digest ~signers ~quorum ~faulty =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match Hashtbl.find_opt s.sessions session with
  | None -> ()
  | Some _ when faulty -> ()
  | Some ss ->
    if signers >= 0 && signers < quorum then
      violation "%s: replica %d committed seq %d (view %d) on %d signers, quorum is %d" ss.protocol
        replica seq view signers quorum;
    (match Hashtbl.find_opt ss.agreed (view, seq) with
    | None -> Hashtbl.add ss.agreed (view, seq) (digest, replica)
    | Some (prior, first) ->
      if not (Int64.equal prior digest) then
        violation "%s: agreement broken at view %d seq %d: replica %d committed %Lx, replica %d %Lx"
          ss.protocol view seq first prior replica digest)

let batch_commit ~session ~replica ~view ~seq ~pos ~len ~client ~rid ~faulty =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match Hashtbl.find_opt s.sessions session with
  | None -> ()
  | Some _ when faulty -> ()
  | Some ss ->
    if pos < 0 || pos >= len then
      violation "%s: replica %d committed batch (view %d, seq %d) with position %d of %d"
        ss.protocol replica view seq pos len;
    (match Hashtbl.find_opt ss.batched (replica, view, client, rid) with
    | Some (seq0, pos0) when seq0 = seq && pos0 = pos ->
      (* Exact re-report: some protocols note a commit both when the
         certificate forms and again at execution. Idempotent. *)
      ()
    | Some (seq0, pos0) ->
      (* Exactly one committed batch per request (per replica and view). *)
      violation
        "%s: batch atomicity broken: replica %d committed request c%d#%d in two batches of view \
         %d (seq %d pos %d, then seq %d pos %d)"
        ss.protocol replica client rid view seq0 pos0 seq pos
    | None ->
      (* In-order within the batch: positions 0 .. len-1, ascending. *)
      let expected =
        match Hashtbl.find_opt ss.batch_next (replica, view, seq) with Some e -> e | None -> 0
      in
      if pos <> expected then
        violation "%s: replica %d batch (view %d, seq %d) out of order: position %d, expected %d"
          ss.protocol replica view seq pos expected;
      Hashtbl.replace ss.batch_next (replica, view, seq) (pos + 1);
      Hashtbl.add ss.batched (replica, view, client, rid) (seq, pos))

let exec_window ~session ~replica ~seq ~low ~high ~faulty =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match Hashtbl.find_opt s.sessions session with
  | None -> ()
  | Some _ when faulty -> ()
  | Some ss ->
    if seq <= low || seq > high then
      violation "%s: replica %d executed seq %d outside its watermark window (%d, %d]" ss.protocol
        replica seq low high

let transfer_applied ~session ~replica ~seq ~claimed ~actual ~faulty =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match Hashtbl.find_opt s.sessions session with
  | None -> ()
  | Some _ when faulty -> ()
  | Some ss ->
    if not (Int64.equal claimed actual) then
      violation
        "%s: replica %d installed a state transfer at seq %d whose digest %Lx does not match the \
         certificate's %Lx"
        ss.protocol replica seq actual claimed

let counter_issued ~hybrid ~read ~issued ~digest =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match Hashtbl.find_opt s.hybrids hybrid with
  | None -> ()
  | Some h ->
    if h.h_primed && not (Int64.equal read h.h_last) then begin
      (* The counter register no longer holds what the hybrid last issued: a
         fault injector perturbed it (e.g. an SEU on a Plain USIG register in
         E2). That is the experiment working as intended, not equivocation —
         resynchronize and void the previous bindings. *)
      Hashtbl.reset h.bound;
      h.h_last <- issued;
      Hashtbl.replace h.bound issued digest
    end
    else begin
      if h.h_primed && Int64.compare issued h.h_last <= 0 then begin
        match Hashtbl.find_opt h.bound issued with
        | Some prior when not (Int64.equal prior digest) ->
          violation "%s %d: counter %Ld re-issued for a second message (equivocation): %Lx then %Lx"
            h.h_name h.h_id issued prior digest
        | _ ->
          violation "%s %d: counter regression: issued %Ld after %Ld" h.h_name h.h_id issued h.h_last
      end;
      h.h_primed <- true;
      h.h_last <- issued;
      Hashtbl.replace h.bound issued digest
    end

let a2m_append ~hybrid ~seq ~digest =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match Hashtbl.find_opt s.hybrids hybrid with
  | None -> ()
  | Some h ->
    if h.h_primed && not (Int64.equal seq (Int64.add h.h_last 1L)) then
      violation "%s %d: log position %Ld appended after %Ld (must grow by one)" h.h_name h.h_id seq
        h.h_last;
    (match Hashtbl.find_opt h.bound seq with
    | Some prior when not (Int64.equal prior digest) ->
      violation "%s %d: log position %Ld rebound (equivocation): %Lx then %Lx" h.h_name h.h_id seq
        prior digest
    | _ -> ());
    h.h_primed <- true;
    h.h_last <- seq;
    Hashtbl.replace h.bound seq digest

let flit_injected ~net =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match Hashtbl.find_opt s.nets net with None -> () | Some n -> n.injected <- n.injected + 1

let conservation n what =
  if n.delivered + n.dropped > n.injected then
    violation "noc: conservation broken on %s: delivered %d + dropped %d > injected %d" what
      n.delivered n.dropped n.injected

let flit_delivered ~net =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match Hashtbl.find_opt s.nets net with
  | None -> ()
  | Some n ->
    n.delivered <- n.delivered + 1;
    conservation n "deliver"

let flit_dropped ~net =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match Hashtbl.find_opt s.nets net with
  | None -> ()
  | Some n ->
    n.dropped <- n.dropped + 1;
    conservation n "drop"

let noc_hop ~net ~flight ~epoch ~cur ~next ~cur_up ~link_up =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match Hashtbl.find_opt s.nets net with
  | None -> ()
  | Some n ->
    if not cur_up then
      violation "noc: flight %d routed out of failed router %d (toward %d)" flight cur next;
    if not link_up then violation "noc: flight %d crossed failed link %d->%d" flight cur next;
    let seen =
      match Hashtbl.find_opt n.visited flight with
      | Some (e, trail) when e = epoch -> trail
      | Some _ | None -> []
    in
    if List.mem cur seen then
      violation "noc: flight %d revisited router %d within epoch %d (routing loop): path %s" flight
        cur epoch
        (String.concat "<-" (List.map string_of_int (cur :: seen)));
    Hashtbl.replace n.visited flight (epoch, cur :: seen)

let noc_flight_done ~net ~flight =
  let s = Domain.DLS.get state in
  match Hashtbl.find_opt s.nets net with
  | None -> ()
  | Some n -> Hashtbl.remove n.visited flight

(* Multicast invariants (DESIGN.md section 10). [mcast_begin]/[mcast_expect]
   record, at send time, the destination set the multicast trees reach —
   the per-destination unicast reference over the current tables. Each
   actual delivery goes through [mcast_deliver], which fires on a second
   delivery to one node (no duplicate delivery: the tree forks must be
   disjoint). [mcast_done] closes the multicast: when [strict] (the mesh
   epoch never moved while the payload was in flight) the observed set
   must equal the reference exactly — no reachable destination missed, no
   extra destination served. A mid-flight fault bumps the epoch, so
   fault-time losses are forgiven by [strict = false]. *)

let mcast_begin ~net ~mcast =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match Hashtbl.find_opt s.nets net with
  | None -> ()
  | Some n ->
    Hashtbl.replace n.mcasts mcast
      { mc_expected = Hashtbl.create 16; mc_got = Hashtbl.create 16 }

let mcast_expect ~net ~mcast ~node =
  let s = Domain.DLS.get state in
  match Hashtbl.find_opt s.nets net with
  | None -> ()
  | Some n -> (
    match Hashtbl.find_opt n.mcasts mcast with
    | None -> ()
    | Some m -> Hashtbl.replace m.mc_expected node ())

let mcast_deliver ~net ~mcast ~node =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match Hashtbl.find_opt s.nets net with
  | None -> ()
  | Some n -> (
    match Hashtbl.find_opt n.mcasts mcast with
    | None -> ()
    | Some m ->
      if Hashtbl.mem m.mc_got node then
        violation "noc: multicast %d delivered twice to node %d" mcast node;
      Hashtbl.replace m.mc_got node ())

let mcast_done ~net ~mcast ~strict =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match Hashtbl.find_opt s.nets net with
  | None -> ()
  | Some n -> (
    match Hashtbl.find_opt n.mcasts mcast with
    | None -> ()
    | Some m ->
      if strict then begin
        List.iter
          (fun node ->
            if not (Hashtbl.mem m.mc_got node) then
              violation
                "noc: multicast %d missed node %d although the trees reach it (no mid-flight \
                 fault)"
                mcast node)
          (List.sort compare (Hashtbl.fold (fun node () acc -> node :: acc) m.mc_expected []));
        if Hashtbl.length m.mc_got <> Hashtbl.length m.mc_expected then
          violation "noc: multicast %d delivered to %d nodes, the route tables reach %d" mcast
            (Hashtbl.length m.mc_got)
            (Hashtbl.length m.mc_expected)
      end;
      Hashtbl.remove n.mcasts mcast)

let noc_reachable_drop ~net ~node ~dst ~reachable =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match Hashtbl.find_opt s.nets net with
  | None -> ()
  | Some _ ->
    if reachable then
      violation
        "noc: adaptive routing dropped a message at live router %d although destination %d is \
         reachable"
        node dst
