(* Open-addressed hash map from 64-bit digests to arbitrary values.

   Replaces the [(Hash.t, _) Hashtbl.t] digest tables on the replication
   hot path ([ordered], [pending], [timers], request indexes). Digests
   are already avalanched (see Hash), so the bucket is just the low
   bits; collisions resolve by linear probing. Deletion is backward
   shift: the entries after the hole that may legally move into it do,
   so the table never holds tombstones and set/remove churn never
   forces a same-size rebuild. The table doubles at 3/4 occupancy.

   Keys are stored as the boxed int64s the caller already holds, so a
   [set] is two pointer stores, and every probe is a loop, not a local
   closure — no per-operation allocation after the value array exists.
   The value array is created lazily from the first inserted value (no
   dummy needed for abstract types like engine handles). *)

type 'a t = {
  mutable full : Bytes.t;  (* '\001' = slot holds an entry *)
  mutable keys : int64 array;
  mutable vals : 'a array;  (* [||] until the first set *)
  mutable live : int;
}

let empty_slot = '\000'
let full_slot = '\001'

let create ?(capacity = 16) () =
  let cap = ref 8 in
  while !cap < capacity do
    cap := !cap * 2
  done;
  { full = Bytes.make !cap empty_slot; keys = Array.make !cap 0L; vals = [||]; live = 0 }

let length t = t.live

let mask t = Bytes.length t.full - 1

(* Digests are uniformly mixed already; fold the high bits in once so
   truncated low bits cannot alias systematically. *)
let[@inline] bucket t k =
  (Int64.to_int k lxor Int64.to_int (Int64.shift_right_logical k 32)) land mask t

(* Slot of [k] if present, else -1. *)
let index t k =
  let m = mask t in
  let i = ref (bucket t k) in
  let found = ref (-2) in
  while !found = -2 do
    if Bytes.unsafe_get t.full !i = empty_slot then found := -1
    else if Int64.equal (Array.unsafe_get t.keys !i) k then found := !i
    else i := (!i + 1) land m
  done;
  !found

let mem t k = index t k >= 0

let value_at t i = Array.unsafe_get t.vals i

(* Backward-shift deletion: walk the cluster after the hole; an entry
   whose home bucket does not lie cyclically in (hole, j] may move into
   the hole, which then moves to j. The cluster's end becomes empty. *)
let remove_at t i =
  let m = mask t in
  let hole = ref i in
  let j = ref ((i + 1) land m) in
  while Bytes.unsafe_get t.full !j = full_slot do
    let k = Array.unsafe_get t.keys !j in
    if (!j - bucket t k) land m >= (!j - !hole) land m then begin
      Array.unsafe_set t.keys !hole k;
      Array.unsafe_set t.vals !hole (Array.unsafe_get t.vals !j);
      hole := !j
    end;
    j := (!j + 1) land m
  done;
  Bytes.unsafe_set t.full !hole empty_slot;
  t.live <- t.live - 1

let remove t k =
  let i = index t k in
  if i >= 0 then remove_at t i

let get t k =
  let i = index t k in
  if i >= 0 then Some (value_at t i) else None

let iter f t =
  for i = 0 to Bytes.length t.full - 1 do
    if Bytes.unsafe_get t.full i = full_slot then f t.keys.(i) t.vals.(i)
  done

let fold f t acc =
  let acc = ref acc in
  for i = 0 to Bytes.length t.full - 1 do
    if Bytes.unsafe_get t.full i = full_slot then acc := f t.keys.(i) t.vals.(i) !acc
  done;
  !acc

let reset t =
  Bytes.fill t.full 0 (Bytes.length t.full) empty_slot;
  if Array.length t.vals > 0 then begin
    (* Drop value pointers so resets do not retain dead requests. *)
    let filler = t.vals.(0) in
    Array.fill t.vals 0 (Array.length t.vals) filler
  end;
  t.live <- 0

let rec grow t =
  let old_full = t.full and old_keys = t.keys and old_vals = t.vals in
  let capacity = 2 * Bytes.length old_full in
  t.full <- Bytes.make capacity empty_slot;
  t.keys <- Array.make capacity 0L;
  t.vals <- Array.make capacity old_vals.(0);
  t.live <- 0;
  for i = 0 to Bytes.length old_full - 1 do
    if Bytes.unsafe_get old_full i = full_slot then set t old_keys.(i) old_vals.(i)
  done

and set t k v =
  if Array.length t.vals = 0 then t.vals <- Array.make (Bytes.length t.full) v;
  let m = mask t in
  let i = ref (bucket t k) in
  while
    Bytes.unsafe_get t.full !i = full_slot && not (Int64.equal (Array.unsafe_get t.keys !i) k)
  do
    i := (!i + 1) land m
  done;
  if Bytes.unsafe_get t.full !i = full_slot then Array.unsafe_set t.vals !i v
  else begin
    Bytes.unsafe_set t.full !i full_slot;
    Array.unsafe_set t.keys !i k;
    Array.unsafe_set t.vals !i v;
    t.live <- t.live + 1;
    (* Keep probes short: double at 3/4 occupancy. *)
    if 4 * t.live >= 3 * Bytes.length t.full then grow t
  end
