module Engine = Resoc_des.Engine
module Hash = Resoc_crypto.Hash
module Behavior = Resoc_fault.Behavior
module Obs = Resoc_obs.Obs
module Ring = Resoc_obs.Ring
module Check = Resoc_check.Check

type 'msg t = {
  id : int;
  n : int;
  engine : Engine.t;
  fabric : 'msg Transport.fabric;
  mcast : (src:int -> dsts:int array -> n:int -> 'msg -> unit) option;
  behavior : Behavior.t;
  app : App.t;
  stats : Stats.t;
  request_timeout : int;
  mutable online : bool;
  mutable rid_last : int array;
  mutable rid_result : int64 array;
  pending : Types.request Digest_map.t;
  timers : Engine.handle Digest_map.t;
  all_ids : int array;
  peer_ids : int array;
  mutable batcher : Batcher.t option;
  obs : Obs.t;
  spans : bool;
  chk : int;
  cp : Checkpoint.t option;
  mutable recover_timer : Engine.handle option;
  reply_msg : Types.reply -> 'msg;
  vote_msg : seq:int -> digest:Hash.t -> 'msg;
  fetch_msg : have:int -> 'msg;
  chunk_msg : Checkpoint.chunk -> 'msg;
}

let log_retention = 256
let prune_margin = 1 lsl 15

(* --- group set-up --- *)

let setup ~name ~protocol fabric ~n ~n_clients behaviors =
  Quorum.check_n n name;
  let chk = if !Check.enabled then Check.new_session ~protocol else -1 in
  let behaviors =
    match behaviors with
    | Some b ->
      if Array.length b <> n then invalid_arg (name ^ ": behaviors must cover every replica");
      b
    | None -> Array.make n Behavior.honest
  in
  if fabric.Transport.n_endpoints < n + n_clients then invalid_arg (name ^ ": fabric too small");
  (behaviors, chk)

let create ~engine ~fabric ~id ~n ~n_clients ~behavior ~stats ~chk ~request_timeout ~multicast
    ~checkpoint ~cp_quorum ~spans ~reply ~vote ~fetch ~chunk =
  let obs = Engine.obs engine in
  {
    id;
    n;
    engine;
    fabric;
    mcast = (if multicast then fabric.Transport.multicast else None);
    behavior;
    app = App.accumulator ();
    stats;
    request_timeout;
    online = true;
    rid_last = Array.make (n + n_clients) min_int;
    rid_result = Array.make (n + n_clients) 0L;
    pending = Digest_map.create ();
    timers = Digest_map.create ~capacity:16 ();
    all_ids = Array.init n Fun.id;
    peer_ids = Array.init (n - 1) (fun i -> if i < id then i else i + 1);
    batcher = None;
    obs;
    spans;
    chk;
    cp =
      (match checkpoint with
      | Some c -> Some (Checkpoint.create c ~obs ~quorum:cp_quorum)
      | None -> None);
    recover_timer = None;
    reply_msg = reply;
    vote_msg = vote;
    fetch_msg = fetch;
    chunk_msg = chunk;
  }

let clients engine fabric ~n ~n_clients ~quorum ~retry_timeout ~stats ~to_msg ~of_msg =
  Array.init n_clients (fun i ->
      Client.create engine fabric ~id:(n + i) ~n_replicas:n ~quorum ~retry_timeout ~stats ~to_msg
        ~of_msg ())

let submit ~name clients ~client ~payload =
  if client < 0 || client >= Array.length clients then invalid_arg (name ^ ": unknown client");
  Client.submit clients.(client) ~payload

(* --- sending --- *)

let[@inline] alive c = c.online && not (Behavior.is_crashed c.behavior ~now:(Engine.now c.engine))

let send c ~dst msg =
  let now = Engine.now c.engine in
  if c.online && not (Behavior.is_crashed c.behavior ~now) then
    match Behavior.active_strategy c.behavior ~now with
    | Some Behavior.Silent -> ()
    | Some (Behavior.Delay d) ->
      ignore
        (Engine.schedule c.engine ~delay:d (fun () -> c.fabric.Transport.send ~src:c.id ~dst msg))
    | Some Behavior.Equivocate | Some Behavior.Corrupt_execution | None ->
      c.fabric.Transport.send ~src:c.id ~dst msg

let broadcast c ~to_ msg =
  match c.mcast with
  | Some mc ->
    let now = Engine.now c.engine in
    if c.online && not (Behavior.is_crashed c.behavior ~now) then (
      match Behavior.active_strategy c.behavior ~now with
      | Some Behavior.Silent -> ()
      | Some (Behavior.Delay d) ->
        ignore
          (Engine.schedule c.engine ~delay:d (fun () ->
               mc ~src:c.id ~dsts:to_ ~n:(Array.length to_) msg))
      | Some Behavior.Equivocate | Some Behavior.Corrupt_execution | None ->
        mc ~src:c.id ~dsts:to_ ~n:(Array.length to_) msg)
  | None ->
    for i = 0 to Array.length to_ - 1 do
      send c ~dst:(Array.unsafe_get to_ i) msg
    done

let reply c ~client ~rid result =
  let result =
    match Behavior.active_strategy c.behavior ~now:(Engine.now c.engine) with
    | Some Behavior.Corrupt_execution -> Int64.logxor result 0xBADBADL
    | Some _ | None -> result
  in
  send c ~dst:client (c.reply_msg { Types.client; rid; result; replica = c.id })

let[@inline] reply_to_client c (request : Types.request) result =
  reply c ~client:request.Types.client ~rid:request.Types.rid result

(* --- reply cache and execution --- *)

(* The arrays grow on demand since fabrics number clients after
   replicas. *)
let rid_slot c client =
  let len = Array.length c.rid_last in
  if client >= len then begin
    let ncap = ref (max 8 (2 * len)) in
    while client >= !ncap do
      ncap := 2 * !ncap
    done;
    let nlast = Array.make !ncap min_int in
    Array.blit c.rid_last 0 nlast 0 len;
    let nresult = Array.make !ncap 0L in
    Array.blit c.rid_result 0 nresult 0 len;
    c.rid_last <- nlast;
    c.rid_result <- nresult
  end;
  client

let rid_reset c = Array.fill c.rid_last 0 (Array.length c.rid_last) min_int

let store c ~client ~rid result =
  let i = rid_slot c client in
  c.rid_last.(i) <- rid;
  c.rid_result.(i) <- result

let[@inline] cached c (request : Types.request) =
  let i = rid_slot c request.Types.client in
  c.rid_last.(i) <> min_int && request.Types.rid <= c.rid_last.(i)

let reply_cached c (request : Types.request) =
  reply_to_client c request c.rid_result.(rid_slot c request.Types.client)

let rid_table_list c =
  let acc = ref [] in
  for i = Array.length c.rid_last - 1 downto 0 do
    if c.rid_last.(i) <> min_int then acc := (i, (c.rid_last.(i), c.rid_result.(i))) :: !acc
  done;
  !acc

let install_rid_table c table =
  rid_reset c;
  List.iter (fun (client, (rid, result)) -> store c ~client ~rid result) table

let execute c (request : Types.request) =
  let i = rid_slot c request.Types.client in
  if c.rid_last.(i) <> min_int && request.Types.rid <= c.rid_last.(i) then c.rid_result.(i)
  else begin
    let result = App.execute c.app request.Types.payload in
    c.rid_last.(i) <- request.Types.rid;
    c.rid_result.(i) <- result;
    result
  end

let cancel_request_timer c digest =
  let i = Digest_map.index c.timers digest in
  if i >= 0 then begin
    Engine.cancel c.engine (Digest_map.value_at c.timers i);
    Digest_map.remove_at c.timers i
  end

let cancel_timers c =
  Digest_map.iter (fun _ h -> Engine.cancel c.engine h) c.timers;
  Digest_map.reset c.timers

let exec_one c (request : Types.request) =
  let result = execute c request in
  let digest = Types.request_digest request in
  Digest_map.remove c.pending digest;
  cancel_request_timer c digest;
  if c.spans && !Obs.trace_on then
    Ring.async_end c.obs.Obs.ring ~time:(Engine.now c.engine) ~cat:Obs.Cat.repl
      ~id:(Obs.repl_request_span ~replica:c.id ~client:request.Types.client ~rid:request.Types.rid)
      ~arg:0;
  reply_to_client c request result

let admit c ~digest (request : Types.request) =
  let was_pending = Digest_map.mem c.pending digest in
  if c.spans && !Obs.trace_on && not was_pending then
    Ring.async_begin c.obs.Obs.ring ~time:(Engine.now c.engine) ~cat:Obs.Cat.repl
      ~id:(Obs.repl_request_span ~replica:c.id ~client:request.Types.client ~rid:request.Types.rid)
      ~arg:0;
  Digest_map.set c.pending digest request;
  was_pending

let pending_sorted c =
  List.sort
    (fun (a : Types.request) b ->
      compare (a.Types.client, a.Types.rid) (b.Types.client, b.Types.rid))
    (Digest_map.fold (fun _ req acc -> req :: acc) c.pending [])

(* --- checkpoints --- *)

let[@inline] below_high c seq =
  match c.cp with
  | Some cp when not !Checkpoint.test_ignore_watermarks -> seq <= Checkpoint.high cp
  | Some _ | None -> true

let[@inline] check_exec_window c ~seq =
  match c.cp with
  | Some cp when c.chk >= 0 ->
    Check.exec_window ~session:c.chk ~replica:c.id ~seq ~low:(Checkpoint.low cp)
      ~high:(Checkpoint.high cp)
      ~faulty:(Behavior.is_faulty c.behavior)
  | Some _ | None -> ()

(* A direct walk, so reporting a batch allocates no closure. *)
let rec check_batch_from c ~view ~seq ~len ~faulty pos = function
  | [] -> ()
  | (req : Types.request) :: rest ->
    Check.batch_commit ~session:c.chk ~replica:c.id ~view ~seq ~pos ~len ~client:req.Types.client
      ~rid:req.Types.rid ~faulty;
    check_batch_from c ~view ~seq ~len ~faulty (pos + 1) rest

let check_batch c ~view ~seq requests =
  check_batch_from c ~view ~seq ~len:(List.length requests)
    ~faulty:(Behavior.is_faulty c.behavior) 0 requests

let[@inline] kick c = match c.batcher with Some b -> Batcher.kick b | None -> ()

let cp_advance c log cp prev =
  prev >= 0
  && begin
       let lo = Checkpoint.low cp in
       for s = prev + 1 to lo do
         Slot_ring.release log s
       done;
       Slot_ring.prune_outside log ~low:(lo + 1) ~high:(Checkpoint.high cp + prune_margin);
       c.stats.Stats.checkpoints <- c.stats.Stats.checkpoints + 1;
       kick c;
       true
     end

let after_exec c log ~seq ~vote_to =
  kick c;
  match c.cp with
  | None ->
    Slot_ring.release log (seq - log_retention);
    Slot_ring.prune_outside log ~low:(seq - log_retention) ~high:(seq + prune_margin);
    false
  | Some cp -> (
    match
      Checkpoint.note_exec cp ~seq ~state:(App.state c.app) ~rid_last:c.rid_last
        ~rid_result:c.rid_result
    with
    | Some digest ->
      broadcast c ~to_:vote_to (c.vote_msg ~seq ~digest);
      cp_advance c log cp (Checkpoint.note_vote cp ~seq ~digest ~voter:c.id)
    | None -> false)

let on_checkpoint_vote c log ~src ~seq ~digest =
  match c.cp with
  | Some cp -> cp_advance c log cp (Checkpoint.note_vote cp ~seq ~digest ~voter:src)
  | None -> false

(* --- certified state transfer --- *)

let cancel_recover_timer c =
  match c.recover_timer with
  | Some h ->
    Engine.cancel c.engine h;
    c.recover_timer <- None
  | None -> ()

(* Peers serving nothing (no stable checkpoint yet, or a passive CheapBFT
   replica) stay silent, so the fetch repeats until a transfer installs. *)
let start_recovery c cp =
  Checkpoint.begin_recovery cp ~now:(Engine.now c.engine);
  let rec arm () =
    cancel_recover_timer c;
    c.recover_timer <-
      Some
        (Engine.schedule c.engine ~delay:c.request_timeout (fun () ->
             c.recover_timer <- None;
             if c.online && Checkpoint.recovering cp then begin
               broadcast c ~to_:c.peer_ids (c.fetch_msg ~have:(Checkpoint.low cp));
               arm ()
             end))
  in
  broadcast c ~to_:c.peer_ids (c.fetch_msg ~have:(Checkpoint.low cp));
  arm ()

(* Transfer by certificate whenever the group provably moved past us. *)
let maybe_catchup c =
  match c.cp with
  | Some cp ->
    if Checkpoint.needs_catchup cp && not (Checkpoint.recovering cp) then start_recovery c cp
  | None -> ()

let serve c cp ~src ~view ~have ~suffix =
  match Checkpoint.serve cp ~view ~have ~suffix with
  | Some chunks -> List.iter (fun ch -> send c ~dst:src (c.chunk_msg ch)) chunks
  | None -> ()

(* The executed log suffix strictly above [from], ascending and gapless;
   stops early at the first missing or unexecuted slot (the receiver then
   lands slightly behind and catches up normally). *)
let log_suffix log ~from ~upto ~payload =
  let acc = ref [] in
  let seq = ref (from + 1) in
  let continue = ref true in
  while !continue && !seq <= upto do
    let slot = Slot_ring.slot log !seq in
    if slot >= 0 then begin
      match payload (Slot_ring.entry log slot) with
      | [] -> continue := false
      | reqs ->
        acc := (!seq, reqs) :: !acc;
        incr seq
    end
    else continue := false
  done;
  List.rev !acc

let on_fetch_state c log ~src ~view ~have ~upto ~payload =
  match c.cp with
  | Some cp ->
    serve c cp ~src ~view ~have ~suffix:(log_suffix log ~from:(Checkpoint.low cp) ~upto ~payload)
  | None -> ()

let on_state_chunk c ~src chunk =
  match c.cp with
  | None -> None
  | Some cp -> (
    match Checkpoint.feed cp ~src ~now:(Engine.now c.engine) chunk with
    | None -> None
    | Some comp as completed ->
      if c.chk >= 0 then
        Check.transfer_applied ~session:c.chk ~replica:c.id
          ~seq:comp.Checkpoint.c_cert.Checkpoint.cp_seq
          ~claimed:comp.Checkpoint.c_cert.Checkpoint.cp_digest ~actual:comp.Checkpoint.c_actual
          ~faulty:(Behavior.is_faulty c.behavior);
      (* Invalid: stay recovering; the retry timer re-fetches. *)
      if comp.Checkpoint.c_valid || !Checkpoint.test_unverified_transfer then completed else None)

let install_state c (comp : Checkpoint.completion) =
  cancel_recover_timer c;
  App.set_state c.app comp.Checkpoint.c_state;
  rid_reset c;
  List.iter (fun (client, rid, result) -> store c ~client ~rid result) comp.Checkpoint.c_rids;
  Checkpoint.install (Option.get c.cp) comp;
  c.stats.Stats.state_transfers <- c.stats.Stats.state_transfers + 1;
  c.stats.Stats.transfer_bytes <- c.stats.Stats.transfer_bytes + comp.Checkpoint.c_bytes;
  c.stats.Stats.transfer_cycles <- c.stats.Stats.transfer_cycles + comp.Checkpoint.c_elapsed;
  List.fold_left
    (fun _ (seq, reqs) ->
      List.iter (fun req -> ignore (execute c req)) reqs;
      seq)
    comp.Checkpoint.c_cert.Checkpoint.cp_seq comp.Checkpoint.c_suffix

let install_transfer c log comp =
  let cp = Option.get c.cp in
  let prev_low = Checkpoint.low cp in
  let last = install_state c comp in
  for s = prev_low + 1 to last do
    Slot_ring.release log s
  done;
  Slot_ring.prune_outside log ~low:(Checkpoint.low cp + 1)
    ~high:(Checkpoint.high cp + prune_margin);
  last

(* --- lifecycle --- *)

let checkpoint_exn ~name c =
  match c.cp with Some cp -> cp | None -> invalid_arg (name ^ ": needs config.checkpoint")

let set_offline c =
  if c.online then begin
    c.online <- false;
    cancel_timers c;
    (match c.batcher with Some b -> Batcher.clear b | None -> ());
    cancel_recover_timer c
  end

let rejoin_wiped c cp =
  App.set_state c.app 0L;
  rid_reset c;
  Digest_map.reset c.pending;
  Checkpoint.reset cp;
  start_recovery c cp

let legacy_rejoin c peers ~core ~at_least =
  let best = ref None in
  Array.iter
    (fun p ->
      let pc = core p in
      if pc.id <> c.id && pc.online then
        match !best with
        | Some b when at_least b p -> ()
        | Some _ | None -> best := Some p)
    peers;
  match !best with
  | Some p ->
    let pc = core p in
    App.set_state c.app (App.state pc.app);
    rid_reset c;
    for i = 0 to Array.length pc.rid_last - 1 do
      if pc.rid_last.(i) <> min_int then store c ~client:i ~rid:pc.rid_last.(i) pc.rid_result.(i)
    done;
    Digest_map.reset c.pending;
    !best
  | None -> None
