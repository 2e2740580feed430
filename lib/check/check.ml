exception Violation of string

let () =
  Printexc.register_printer (function
    | Violation msg -> Some ("invariant violation: " ^ msg)
    | _ -> None)

let enabled = ref false
let enable () = enabled := true
let disable () = enabled := false
let violation fmt = Printf.ksprintf (fun msg -> raise (Violation msg)) fmt

(* Open-addressing table over keys of one to four ints, stored flat:
   entry [i] occupies [stride = keys + width] consecutive ints of [data],
   the key and then [width] payload ints. Linear probing; removal shifts
   the rest of the cluster back, so no tombstones pile up. The array is
   allocated on the first insert, at [initial] entries, and doubles at
   three-quarter load; [widen] grows the payload in place. [reset]
   empties a table but keeps its array, which the next first insert
   clears and reuses, so a table refilled replicate after replicate
   stops allocating once it has grown. Callers pass zeros for the key
   ints a table does not use, and a key's first int is never [min_int],
   which marks an empty entry. Lookups return the payload's offset in
   [data] (or -1), so a hit costs no allocation. *)
module Tbl = struct
  type t = {
    keys : int;  (* key ints per entry, 1 to 4 *)
    mutable width : int;  (* payload ints per entry *)
    mutable data : int array;
    mutable mask : int;  (* entries - 1; -1 until the first insert *)
    mutable count : int;
  }

  let empty = min_int
  let initial = 16
  let create ~keys ~width = { keys; width; data = [||]; mask = -1; count = 0 }

  (* Single-int keys are flight and multicast ids, which a network
     issues in sequence: the identity spreads them over consecutive
     entries, so a live window of flights probes once. Tuple keys are
     mixed, since runs of sequence numbers under different prefixes
     would otherwise merge into long clusters. *)
  let[@inline] home keys a b c d =
    if keys = 1 then a
    else begin
      let m = 0x2545F4914F6CDD1D in
      let h = (((((a * m) + b) * m) + c) * m) + d in
      let h = (h lxor (h lsr 29)) * m in
      h lxor (h lsr 32)
    end

  let[@inline] key data o keys n = if n < keys then Array.unsafe_get data (o + n) else 0

  let[@inline] home_of data o keys =
    home keys (Array.unsafe_get data o) (key data o keys 1) (key data o keys 2) (key data o keys 3)

  (* Index of the entry holding the key, or -1. *)
  let probe t a b c d =
    let mask = t.mask in
    if mask < 0 then -1
    else begin
      let data = t.data and keys = t.keys in
      let stride = keys + t.width in
      let i = ref (home keys a b c d land mask) and found = ref (-2) in
      while !found = -2 do
        let o = !i * stride in
        let k = Array.unsafe_get data o in
        if k = empty then found := -1
        else if
          k = a
          && key data o keys 1 = b
          && key data o keys 2 = c
          && key data o keys 3 = d
        then found := !i
        else i := (!i + 1) land mask
      done;
      !found
    end

  let find t a b c d =
    let i = probe t a b c d in
    if i < 0 then -1 else (i * (t.keys + t.width)) + t.keys

  (* Offset of the first free entry on the probe path from [h]. *)
  let free_entry data ~stride ~mask h =
    let i = ref (h land mask) in
    while Array.unsafe_get data (!i * stride) <> empty do
      i := (!i + 1) land mask
    done;
    !i * stride

  let resize t ~entries ~width =
    let keys = t.keys in
    let stride = keys + width and old_stride = keys + t.width in
    let data = Array.make (entries * stride) empty and mask = entries - 1 in
    let old = t.data in
    for i = 0 to t.mask do
      let o = i * old_stride in
      if Array.unsafe_get old o <> empty then begin
        let n = free_entry data ~stride ~mask (home_of old o keys) in
        Array.blit old o data n old_stride;
        Array.fill data (n + old_stride) (width - t.width) 0
      end
    done;
    t.data <- data;
    t.width <- width;
    t.mask <- mask

  (* Insert a key known to be absent; returns its zeroed payload offset. *)
  let add t a b c d =
    if t.mask < 0 && Array.length t.data > 0 then begin
      Array.fill t.data 0 (Array.length t.data) empty;
      t.mask <- (Array.length t.data / (t.keys + t.width)) - 1
    end;
    if 4 * (t.count + 1) > 3 * (t.mask + 1) then
      resize t ~entries:(max initial (2 * (t.mask + 1))) ~width:t.width;
    let keys = t.keys and data = t.data in
    let o = free_entry data ~stride:(keys + t.width) ~mask:t.mask (home keys a b c d) in
    data.(o) <- a;
    if keys > 1 then data.(o + 1) <- b;
    if keys > 2 then data.(o + 2) <- c;
    if keys > 3 then data.(o + 3) <- d;
    Array.fill data (o + keys) t.width 0;
    t.count <- t.count + 1;
    o + keys

  let widen t width =
    if width > t.width then
      if t.mask >= 0 then resize t ~entries:(t.mask + 1) ~width
      else begin
        t.width <- width;
        t.data <- [||]
      end

  let reset t =
    t.mask <- -1;
    t.count <- 0

  let remove t a b c d =
    let i = probe t a b c d in
    if i >= 0 then begin
      let data = t.data and keys = t.keys and mask = t.mask in
      let stride = keys + t.width in
      (* Backward-shift deletion: pull later cluster members whose home
         does not lie cyclically in (hole, j] into the hole. *)
      let hole = ref i in
      let j = ref i and stop = ref false in
      while not !stop do
        j := (!j + 1) land mask;
        let oj = !j * stride in
        if Array.unsafe_get data oj = empty then stop := true
        else begin
          let k = home_of data oj keys land mask in
          let stays = if !hole <= !j then !hole < k && k <= !j else !hole < k || k <= !j in
          if not stays then begin
            Array.blit data oj data (!hole * stride) stride;
            hole := !j
          end
        end
      done;
      data.(!hole * stride) <- empty;
      t.count <- t.count - 1
    end
end

(* Digests are stored as two 32-bit halves, so the tables hold only ints. *)
let[@inline] hi (d : int64) = Int64.to_int (Int64.shift_right_logical d 32)
let[@inline] lo (d : int64) = Int64.to_int d land 0xFFFF_FFFF
let join hi lo = Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo)

type session = {
  mutable protocol : string;
  (* (view, seq) -> replica that committed there first, digest hi, lo. *)
  agreed : Tbl.t;
  (* Batch atomicity: (replica, view, client, rid) -> (seq, pos) of the
     one committed batch the request belongs to. Keyed per replica and
     view because re-proposal after a view change legitimately re-commits
     an uncommitted-in-the-old-view request in a fresh batch. *)
  batched : Tbl.t;
  (* Batch order: (replica, view, seq) -> next expected position. *)
  batch_next : Tbl.t;
}

type hybrid = {
  mutable h_name : string;
  mutable h_last : int64;  (* last issued counter / A2M position *)
  mutable h_primed : bool;  (* [h_last] is meaningful *)
  (* Bindings since the last resync: (counter, digest) int64 pairs, 16
     bytes each, ascending by counter. Counters only grow between
     resyncs, so a binding is an append; the binary search runs only on
     the violation path. *)
  mutable bound : Bytes.t;
  mutable n_bound : int;
}

type net = {
  mutable injected : int;
  mutable delivered : int;
  mutable dropped : int;
  (* flight -> [epoch; len; path...]: the routers visited under the
     route-table epoch, oldest first. Loop freedom is an intra-epoch
     property — a recompute may legitimately route a flight back through
     earlier ground — so the trail resets when the epoch advances. The
     path has no repeats, so it is as long as the route and doubles as
     the visited set; [width] grows with the longest trail. *)
  trails : Tbl.t;
  (* multicast id -> its expected and observed delivery sets, as bitsets
     of 32 nodes a word, interleaved: word [2w] expected, [2w + 1] got. *)
  mcasts : Tbl.t;
}

type obj = Nothing | Session of session | Hybrid of hybrid | Net of net

(* Ids are dense per replicate: object [i] of the replicate has id
   [base + i] and sits at [objs.(i)]. [begin_replicate] moves [base] past
   every id handed out so far, so an id that leaks from an older
   replicate falls below [base] and is ignored instead of aliasing a
   fresh object. It also hands the replicate's objects to the spare
   lists, from which [new_*] reset and reuse one of the same kind, so
   their tables keep the arrays they grew. *)
type state = {
  mutable objs : obj array;
  mutable count : int;
  mutable base : int;
  mutable fired : int;
  mutable spare_sessions : session list;
  mutable spare_hybrids : hybrid list;
  mutable spare_nets : net list;
}

(* Per-domain state: campaign workers check their replicates independently, so
   [--check] composes with [--jobs n] exactly like the obs metric registry. *)
let state : state Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        objs = Array.make 16 Nothing;
        count = 0;
        base = 0;
        fired = 0;
        spare_sessions = [];
        spare_hybrids = [];
        spare_nets = [];
      })

let begin_replicate () =
  let s = Domain.DLS.get state in
  for i = 0 to s.count - 1 do
    (match s.objs.(i) with
    | Session ss -> s.spare_sessions <- ss :: s.spare_sessions
    | Hybrid h -> s.spare_hybrids <- h :: s.spare_hybrids
    | Net n -> s.spare_nets <- n :: s.spare_nets
    | Nothing -> ());
    s.objs.(i) <- Nothing
  done;
  s.base <- s.base + s.count;
  s.count <- 0;
  s.fired <- 0

let hooks_fired () = (Domain.DLS.get state).fired

let register s o =
  if s.count = Array.length s.objs then begin
    let objs = Array.make (2 * s.count) Nothing in
    Array.blit s.objs 0 objs 0 s.count;
    s.objs <- objs
  end;
  let i = s.count in
  s.objs.(i) <- o;
  s.count <- i + 1;
  s.base + i

let[@inline] obj s id =
  let i = id - s.base in
  if i >= 0 && i < s.count then Array.unsafe_get s.objs i else Nothing

let new_session ~protocol =
  let s = Domain.DLS.get state in
  match s.spare_sessions with
  | ss :: rest ->
    s.spare_sessions <- rest;
    ss.protocol <- protocol;
    Tbl.reset ss.agreed;
    Tbl.reset ss.batched;
    Tbl.reset ss.batch_next;
    register s (Session ss)
  | [] ->
    register s
      (Session
         {
           protocol;
           agreed = Tbl.create ~keys:2 ~width:3;
           batched = Tbl.create ~keys:4 ~width:2;
           batch_next = Tbl.create ~keys:3 ~width:1;
         })

let new_hybrid ~name =
  let s = Domain.DLS.get state in
  match s.spare_hybrids with
  | h :: rest ->
    s.spare_hybrids <- rest;
    h.h_name <- name;
    h.h_last <- 0L;
    h.h_primed <- false;
    h.n_bound <- 0;
    register s (Hybrid h)
  | [] ->
    register s
      (Hybrid { h_name = name; h_last = 0L; h_primed = false; bound = Bytes.empty; n_bound = 0 })

let new_network () =
  let s = Domain.DLS.get state in
  match s.spare_nets with
  | n :: rest ->
    s.spare_nets <- rest;
    n.injected <- 0;
    n.delivered <- 0;
    n.dropped <- 0;
    Tbl.reset n.trails;
    Tbl.reset n.mcasts;
    register s (Net n)
  | [] ->
    register s
      (Net
         {
           injected = 0;
           delivered = 0;
           dropped = 0;
           trails = Tbl.create ~keys:1 ~width:8;
           mcasts = Tbl.create ~keys:1 ~width:2;
         })

let commit ~session ~replica ~view ~seq ~digest ~signers ~quorum ~faulty =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match obj s session with
  | Session ss when not faulty ->
    if signers >= 0 && signers < quorum then
      violation "%s: replica %d committed seq %d (view %d) on %d signers, quorum is %d" ss.protocol
        replica seq view signers quorum;
    let t = ss.agreed in
    let o = Tbl.find t view seq 0 0 in
    if o < 0 then begin
      let o = Tbl.add t view seq 0 0 in
      let d = t.Tbl.data in
      d.(o) <- replica;
      d.(o + 1) <- hi digest;
      d.(o + 2) <- lo digest
    end
    else begin
      let d = t.Tbl.data in
      if d.(o + 1) <> hi digest || d.(o + 2) <> lo digest then
        violation "%s: agreement broken at view %d seq %d: replica %d committed %Lx, replica %d %Lx"
          ss.protocol view seq d.(o)
          (join d.(o + 1) d.(o + 2))
          replica digest
    end
  | _ -> ()

let batch_commit ~session ~replica ~view ~seq ~pos ~len ~client ~rid ~faulty =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match obj s session with
  | Session ss when not faulty ->
    if pos < 0 || pos >= len then
      violation "%s: replica %d committed batch (view %d, seq %d) with position %d of %d"
        ss.protocol replica view seq pos len;
    let o = Tbl.find ss.batched replica view client rid in
    if o >= 0 then begin
      let d = ss.batched.Tbl.data in
      let seq0 = d.(o) and pos0 = d.(o + 1) in
      (* An exact re-report is idempotent: some protocols note a commit
         both when the certificate forms and again at execution. *)
      if seq0 <> seq || pos0 <> pos then
        (* Exactly one committed batch per request (per replica and view). *)
        violation
          "%s: batch atomicity broken: replica %d committed request c%d#%d in two batches of \
           view %d (seq %d pos %d, then seq %d pos %d)"
          ss.protocol replica client rid view seq0 pos0 seq pos
    end
    else begin
      (* In-order within the batch: positions 0 .. len-1, ascending. *)
      let t = ss.batch_next in
      let n = Tbl.find t replica view seq 0 in
      let expected = if n < 0 then 0 else t.Tbl.data.(n) in
      if pos <> expected then
        violation "%s: replica %d batch (view %d, seq %d) out of order: position %d, expected %d"
          ss.protocol replica view seq pos expected;
      let n = if n < 0 then Tbl.add t replica view seq 0 else n in
      t.Tbl.data.(n) <- pos + 1;
      let o = Tbl.add ss.batched replica view client rid in
      let d = ss.batched.Tbl.data in
      d.(o) <- seq;
      d.(o + 1) <- pos
    end
  | _ -> ()

let exec_window ~session ~replica ~seq ~low ~high ~faulty =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match obj s session with
  | Session ss when not faulty ->
    if seq <= low || seq > high then
      violation "%s: replica %d executed seq %d outside its watermark window (%d, %d]" ss.protocol
        replica seq low high
  | _ -> ()

let transfer_applied ~session ~replica ~seq ~claimed ~actual ~faulty =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match obj s session with
  | Session ss when not faulty ->
    if not (Int64.equal claimed actual) then
      violation
        "%s: replica %d installed a state transfer at seq %d whose digest %Lx does not match the \
         certificate's %Lx"
        ss.protocol replica seq actual claimed
  | _ -> ()

(* --- hybrid bindings --- *)

let[@inline] bound_counter h i = Bytes.get_int64_ne h.bound (16 * i)
let[@inline] bound_digest h i = Bytes.get_int64_ne h.bound ((16 * i) + 8)

(* Index of the first binding whose counter is >= [counter]. *)
let bound_position h (counter : int64) =
  let lo = ref 0 and hi = ref h.n_bound in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if bound_counter h mid < counter then lo := mid + 1 else hi := mid
  done;
  !lo

(* Index of [counter]'s binding, or -1. *)
let bound_find h counter =
  let i = bound_position h counter in
  if i < h.n_bound && bound_counter h i = counter then i else -1

(* Record [counter]'s binding. Only an int64 wrap-around breaks the
   ascending order; such a binding is inserted in place. *)
let bind h (counter : int64) digest =
  let n = h.n_bound in
  let i = if n = 0 || bound_counter h (n - 1) < counter then n else bound_position h counter in
  if i < n && bound_counter h i = counter then Bytes.set_int64_ne h.bound ((16 * i) + 8) digest
  else begin
    if 16 * (n + 1) > Bytes.length h.bound then begin
      let b = Bytes.create (max 256 (2 * Bytes.length h.bound)) in
      Bytes.blit h.bound 0 b 0 (16 * n);
      h.bound <- b
    end;
    if i < n then Bytes.blit h.bound (16 * i) h.bound (16 * (i + 1)) (16 * (n - i));
    Bytes.set_int64_ne h.bound (16 * i) counter;
    Bytes.set_int64_ne h.bound ((16 * i) + 8) digest;
    h.n_bound <- n + 1
  end

let counter_issued ~hybrid ~read ~issued ~digest =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match obj s hybrid with
  | Hybrid h ->
    if h.h_primed && not (Int64.equal read h.h_last) then begin
      (* The counter register no longer holds what the hybrid last issued: a
         fault injector perturbed it (e.g. an SEU on a Plain USIG register in
         E2). That is the experiment working as intended, not equivocation —
         resynchronize and void the previous bindings. *)
      h.n_bound <- 0;
      h.h_last <- issued;
      bind h issued digest
    end
    else begin
      if h.h_primed && Int64.compare issued h.h_last <= 0 then begin
        let i = bound_find h issued in
        if i >= 0 && not (Int64.equal (bound_digest h i) digest) then
          violation "%s %d: counter %Ld re-issued for a second message (equivocation): %Lx then %Lx"
            h.h_name (hybrid - s.base) issued (bound_digest h i) digest
        else
          violation "%s %d: counter regression: issued %Ld after %Ld" h.h_name (hybrid - s.base)
            issued h.h_last
      end;
      h.h_primed <- true;
      h.h_last <- issued;
      bind h issued digest
    end
  | _ -> ()

let a2m_append ~hybrid ~seq ~digest =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match obj s hybrid with
  | Hybrid h ->
    if h.h_primed && not (Int64.equal seq (Int64.add h.h_last 1L)) then
      violation "%s %d: log position %Ld appended after %Ld (must grow by one)" h.h_name
        (hybrid - s.base) seq h.h_last;
    let i = bound_find h seq in
    if i >= 0 && not (Int64.equal (bound_digest h i) digest) then
      violation "%s %d: log position %Ld rebound (equivocation): %Lx then %Lx" h.h_name
        (hybrid - s.base) seq (bound_digest h i) digest;
    h.h_primed <- true;
    h.h_last <- seq;
    bind h seq digest
  | _ -> ()

(* --- NoC --- *)

let flit_injected ~net =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match obj s net with Net n -> n.injected <- n.injected + 1 | _ -> ()

let conservation n what =
  if n.delivered + n.dropped > n.injected then
    violation "noc: conservation broken on %s: delivered %d + dropped %d > injected %d" what
      n.delivered n.dropped n.injected

let flit_delivered ~net =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match obj s net with
  | Net n ->
    n.delivered <- n.delivered + 1;
    conservation n "deliver"
  | _ -> ()

let flit_dropped ~net =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match obj s net with
  | Net n ->
    n.dropped <- n.dropped + 1;
    conservation n "drop"
  | _ -> ()

let routing_loop t o ~flight ~epoch ~cur =
  let d = t.Tbl.data in
  let newest_first = ref [] in
  for k = 0 to d.(o + 1) - 1 do
    newest_first := d.(o + 2 + k) :: !newest_first
  done;
  violation "noc: flight %d revisited router %d within epoch %d (routing loop): path %s" flight cur
    epoch
    (String.concat "<-" (List.map string_of_int (cur :: !newest_first)))

let noc_hop ~net ~flight ~epoch ~cur ~next ~cur_up ~link_up =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match obj s net with
  | Net n ->
    if not cur_up then
      violation "noc: flight %d routed out of failed router %d (toward %d)" flight cur next;
    if not link_up then violation "noc: flight %d crossed failed link %d->%d" flight cur next;
    let t = n.trails in
    let o = Tbl.find t flight 0 0 0 in
    let o = if o < 0 then Tbl.add t flight 0 0 0 else o in
    let d = t.Tbl.data in
    if d.(o) <> epoch then begin
      d.(o) <- epoch;
      d.(o + 1) <- 0
    end;
    let len = d.(o + 1) in
    for k = o + 2 to o + 1 + len do
      if Array.unsafe_get d k = cur then routing_loop t o ~flight ~epoch ~cur
    done;
    let o =
      if len + 2 < t.Tbl.width then o
      else begin
        Tbl.widen t (2 * t.Tbl.width);
        Tbl.find t flight 0 0 0
      end
    in
    let d = t.Tbl.data in
    d.(o + 2 + len) <- cur;
    d.(o + 1) <- len + 1
  | _ -> ()

let noc_flight_done ~net ~flight =
  let s = Domain.DLS.get state in
  match obj s net with Net n -> Tbl.remove n.trails flight 0 0 0 | _ -> ()

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

(* Payload offset of [mcast]'s bitsets with room for [node], or -1. *)
let mcast_find n ~mcast ~node =
  let t = n.mcasts in
  Tbl.widen t (2 * ((node lsr 5) + 1));
  Tbl.find t mcast 0 0 0

let[@inline] bit node = 1 lsl (node land 31)

let popcount w =
  let c = ref 0 and w = ref w in
  while !w <> 0 do
    w := !w land (!w - 1);
    incr c
  done;
  !c

let mcast_begin ~net ~mcast =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match obj s net with
  | Net n ->
    let t = n.mcasts in
    let o = Tbl.find t mcast 0 0 0 in
    if o < 0 then ignore (Tbl.add t mcast 0 0 0) else Array.fill t.Tbl.data o t.Tbl.width 0
  | _ -> ()

let mcast_expect ~net ~mcast ~node =
  let s = Domain.DLS.get state in
  match obj s net with
  | Net n ->
    let o = mcast_find n ~mcast ~node in
    if o >= 0 then begin
      let d = n.mcasts.Tbl.data and w = o + (2 * (node lsr 5)) in
      d.(w) <- d.(w) lor bit node
    end
  | _ -> ()

let mcast_deliver ~net ~mcast ~node =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match obj s net with
  | Net n ->
    let o = mcast_find n ~mcast ~node in
    if o >= 0 then begin
      let d = n.mcasts.Tbl.data and w = o + (2 * (node lsr 5)) + 1 in
      if d.(w) land bit node <> 0 then
        violation "noc: multicast %d delivered twice to node %d" mcast node;
      d.(w) <- d.(w) lor bit node
    end
  | _ -> ()

let mcast_done ~net ~mcast ~strict =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match obj s net with
  | Net n ->
    let t = n.mcasts in
    let o = Tbl.find t mcast 0 0 0 in
    if o >= 0 then begin
      if strict then begin
        let d = t.Tbl.data and words = t.Tbl.width / 2 in
        let expected = ref 0 and got = ref 0 in
        for w = 0 to words - 1 do
          let e = d.(o + (2 * w)) and g = d.(o + (2 * w) + 1) in
          let missed = e land lnot g in
          if missed <> 0 then begin
            let b = ref 0 in
            while missed land (1 lsl !b) = 0 do
              incr b
            done;
            violation
              "noc: multicast %d missed node %d although the trees reach it (no mid-flight fault)"
              mcast
              ((32 * w) + !b)
          end;
          expected := !expected + popcount e;
          got := !got + popcount g
        done;
        if !got <> !expected then
          violation "noc: multicast %d delivered to %d nodes, the route tables reach %d" mcast !got
            !expected
      end;
      Tbl.remove t mcast 0 0 0
    end
  | _ -> ()

let noc_reachable_drop ~net ~node ~dst ~reachable =
  let s = Domain.DLS.get state in
  s.fired <- s.fired + 1;
  match obj s net with
  | Net _ ->
    if reachable then
      violation
        "noc: adaptive routing dropped a message at live router %d although destination %d is \
         reachable"
        node dst
  | _ -> ()
