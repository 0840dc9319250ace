(* Pair-array helpers; arrays are immutable and duplicate-key free. *)

module Atomic = Nbhash_util.Nb_atomic

let pairs_find pairs k =
  let n = Array.length pairs in
  let rec go i =
    if i >= n then None
    else begin
      let ki, v = pairs.(i) in
      if ki = k then Some (i, v) else go (i + 1)
    end
  in
  go 0

let pairs_put pairs k v =
  match pairs_find pairs k with
  | Some (i, _) ->
    let b = Array.copy pairs in
    b.(i) <- (k, v);
    b
  | None ->
    let n = Array.length pairs in
    let b = Array.make (n + 1) (k, v) in
    Array.blit pairs 0 b 0 n;
    b
[@@nbhash.plain_ok
  "copy-on-write: [b] is freshly allocated here and stays private until \
   published by a bucket CAS"]

let pairs_remove pairs i =
  let n = Array.length pairs in
  let b = Array.sub pairs 0 (n - 1) in
  if i < n - 1 then b.(i) <- pairs.(n - 1);
  b
[@@nbhash.plain_ok
  "copy-on-write: [b] is freshly allocated here and stays private until \
   published by a bucket CAS"]

let pairs_filter_mask pairs ~mask ~target =
  let keep (k, _) = k land mask = target in
  let count = ref 0 in
  Array.iter (fun p -> if keep p then incr count) pairs;
  if !count = Array.length pairs then pairs
  else begin
    let b = Array.make !count (0, snd pairs.(0)) in
    let j = ref 0 in
    Array.iter
      (fun p ->
        if keep p then begin
          b.(!j) <- p;
          incr j
        end)
      pairs;
    b
  end
[@@nbhash.plain_ok
  "copy-on-write: [b] is freshly allocated here and stays private until \
   published by a bucket CAS"]

(* The LFArrayOpt bucket layout, with pairs. *)
type 'v bslot = Uninit | Node of { pairs : (int * 'v) array; ok : bool }

type 'v hnode = {
  buckets : 'v bslot Atomic.t array;
  size : int;
  mask : int;
  pred : 'v hnode option Atomic.t;
  sweep : Sweep.t;
}

type 'v t = {
  head : 'v hnode Atomic.t;
  policy : Policy.t;
  count : Policy.Counter.shared;
}

type 'v handle = { table : 'v t; local : Policy.Trigger.local }

let make_hnode ~size ~pred =
  {
    buckets = Array.init size (fun _ -> Atomic.make Uninit);
    size;
    mask = size - 1;
    pred = Atomic.make pred;
    sweep = Sweep.make ~total:size;
  }

let create ?(policy = Policy.default) () =
  Policy.validate policy;
  let hn = make_hnode ~size:policy.Policy.init_buckets ~pred:None in
  Array.iter (fun b -> Atomic.set b (Node { pairs = [||]; ok = true })) hn.buckets;
  { head = Atomic.make hn; policy; count = Policy.Counter.make_shared () }

let seed = Atomic.make 0x3a9

let register table =
  {
    table;
    local =
      Policy.Trigger.make_local table.count
        ~seed:(Atomic.fetch_and_add seed 1);
  }

let unregister h = Policy.Trigger.flush h.local

let rec freeze_slot slot =
  match Atomic.get slot with
  | Uninit -> assert false
  | Node n as cur ->
    if not n.ok then n.pairs
    else if
      Atomic.compare_and_set slot cur (Node { pairs = n.pairs; ok = false })
    then n.pairs
    else freeze_slot slot

let slot_pairs slot =
  match Atomic.get slot with Uninit -> assert false | Node n -> n.pairs

let init_bucket hn i =
  (match (Atomic.get hn.buckets.(i), Atomic.get hn.pred) with
  | Uninit, Some s ->
    let pairs =
      if hn.size = s.size * 2 then
        pairs_filter_mask
          (freeze_slot s.buckets.(i land s.mask))
          ~mask:hn.mask ~target:i
      else
        Array.append
          (freeze_slot s.buckets.(i))
          (freeze_slot s.buckets.(i + hn.size))
    in
    ignore
      (Atomic.compare_and_set hn.buckets.(i) Uninit (Node { pairs; ok = true }))
    [@nbhash.cas_ok
      "bucket init: racing initializers freeze the same predecessor slots \
       and build identical contents; the first CAS publishes"]
  | (Node _ | Uninit), _ -> ());
  ()

(* Cooperative sweep hooks (see Sweep and Table_core). *)
let sweep_migrate hn i = init_bucket hn i
let sweep_complete hn = Atomic.set hn.pred None

let help_migration t hn =
  let m = t.policy.Policy.migration in
  if m.Policy.eager && Atomic.get hn.pred <> None then
    Sweep.help hn.sweep ~chunk:m.Policy.chunk
      ~max_helpers:m.Policy.max_helpers ~migrate:sweep_migrate
      ~complete:sweep_complete hn

let resize t grow =
  let hn = Atomic.get t.head in
  let within_bounds =
    if grow then hn.size * 2 <= t.policy.Policy.max_buckets
    else hn.size / 2 >= t.policy.Policy.min_buckets
  in
  if (hn.size > 1 || grow) && within_bounds then begin
    let m = t.policy.Policy.migration in
    if m.Policy.eager && Atomic.get hn.pred <> None then
      Sweep.drain hn.sweep ~chunk:m.Policy.chunk ~migrate:sweep_migrate
        ~complete:sweep_complete hn;
    for i = 0 to hn.size - 1 do
      init_bucket hn i
    done;
    if m.Policy.eager then Sweep.finish hn.sweep;
    Atomic.set hn.pred None
    [@nbhash.cas_ok
    "one-way Some -> None: every writer publishes the same final value \
     once the sweep is complete"];
    let size = if grow then hn.size * 2 else hn.size / 2 in
    let hn' = make_hnode ~size ~pred:(Some hn) in
    ignore (Atomic.compare_and_set t.head hn hn')
    [@nbhash.cas_ok
      "a lost race means another domain already installed a fresh table; \
       the resize trigger re-fires if more growth is needed"]
  end

(* Apply [step] to the current mutable node of the bucket owning [k]:
   [step pairs] returns [None] to report without writing, or the
   replacement pair array. Returns [step]'s report. Retries across
   freezes and lost CASes. *)
let rec with_bucket t k step =
  let hn = Atomic.get t.head in
  let i = k land hn.mask in
  let slot = hn.buckets.(i) in
  match Atomic.get slot with
  | Uninit ->
    init_bucket hn i;
    with_bucket t k step
  | Node n as cur ->
    if not n.ok then with_bucket t k step
    else begin
      let report, replacement = step n.pairs in
      match replacement with
      | None -> report
      | Some pairs ->
        if Atomic.compare_and_set slot cur (Node { pairs; ok = true }) then
          report
        else with_bucket t k step
    end

let slot_pair_count slot =
  match Atomic.get slot with
  | Uninit -> 0
  | Node n -> Array.length n.pairs

let after_insert h k ~grew =
  Policy.Trigger.note_insert h.local ~resp:grew;
  let hn = Atomic.get h.table.head in
  help_migration h.table hn;
  if
    Policy.Trigger.want_grow h.table.policy h.local ~cur_buckets:hn.size
      ~migrating:(Atomic.get hn.pred <> None)
      ~inserted_bucket_size:
        (if Policy.reads_bucket_sizes h.table.policy then fun () ->
           slot_pair_count hn.buckets.(k land hn.mask)
         else Policy.unread_size)
  then resize h.table true

let after_remove h ~resp =
  Policy.Trigger.note_remove h.local ~resp;
  let hn = Atomic.get h.table.head in
  help_migration h.table hn;
  if
    Policy.Trigger.want_shrink h.table.policy h.local ~cur_buckets:hn.size
      ~migrating:(Atomic.get hn.pred <> None)
      ~sample_bucket_size:
        (if Policy.reads_bucket_sizes h.table.policy then fun i ->
           slot_pair_count hn.buckets.(i)
         else Policy.unread_size)
  then resize h.table false

let put h k v =
  Hashset_intf.check_key k;
  let prev =
    with_bucket h.table k (fun pairs ->
        let prev = Option.map snd (pairs_find pairs k) in
        (prev, Some (pairs_put pairs k v)))
  in
  after_insert h k ~grew:(Option.is_none prev);
  prev

let remove h k =
  Hashset_intf.check_key k;
  let prev =
    with_bucket h.table k (fun pairs ->
        match pairs_find pairs k with
        | Some (i, v) -> (Some v, Some (pairs_remove pairs i))
        | None -> (None, None))
  in
  after_remove h ~resp:(Option.is_some prev);
  prev

let update h k f =
  Hashset_intf.check_key k;
  let was_absent =
    with_bucket h.table k (fun pairs ->
        let cur = Option.map snd (pairs_find pairs k) in
        (Option.is_none cur, Some (pairs_put pairs k (f cur))))
  in
  after_insert h k ~grew:was_absent

let get h k =
  Hashset_intf.check_key k;
  let t = h.table in
  let hn = Atomic.get t.head in
  let lookup pairs = Option.map snd (pairs_find pairs k) in
  match Atomic.get hn.buckets.(k land hn.mask) with
  | Node n -> lookup n.pairs
  | Uninit -> (
    match Atomic.get hn.pred with
    | Some s -> lookup (slot_pairs s.buckets.(k land s.mask))
    | None -> lookup (slot_pairs hn.buckets.(k land hn.mask)))

let mem h k = Option.is_some (get h k)

let bucket_pairs hn i =
  match Atomic.get hn.buckets.(i) with
  | Node n -> n.pairs
  | Uninit -> (
    match Atomic.get hn.pred with
    | Some s ->
      if hn.size = s.size * 2 then
        pairs_filter_mask
          (slot_pairs s.buckets.(i land s.mask))
          ~mask:hn.mask ~target:i
      else
        Array.append
          (slot_pairs s.buckets.(i))
          (slot_pairs s.buckets.(i + hn.size))
    | None -> slot_pairs hn.buckets.(i))

let bindings t =
  let hn = Atomic.get t.head in
  List.concat_map
    (fun i -> Array.to_list (bucket_pairs hn i))
    (List.init hn.size Fun.id)

let cardinal t = List.length (bindings t)
let iter f t = List.iter (fun (k, v) -> f k v) (bindings t)
let fold f t init = List.fold_left (fun acc (k, v) -> f k v acc) init (bindings t)
let bucket_count t = (Atomic.get t.head).size
let force_resize h ~grow = resize h.table grow

let bucket_sizes t =
  let hn = Atomic.get t.head in
  Array.init hn.size (fun i -> Array.length (bucket_pairs hn i))

(* A resize is still being absorbed: the head HNode has a
   predecessor. One load per HNode, unlike [inspect]'s bucket census. *)
let migrating t =
  match Atomic.get (Atomic.get t.head).pred with
  | Some _ -> true
  | None -> false

(* Structural health snapshot; see Table_core.inspect_with. Frozen
   slots are [Node {ok = false}]. *)
let inspect t =
  let hn = Atomic.get t.head in
  let sizes = Array.init hn.size (fun i -> Array.length (bucket_pairs hn i)) in
  let initialized = ref 0 in
  let frozen = ref 0 in
  Array.iter
    (fun b ->
      match Atomic.get b with
      | Node n ->
        incr initialized;
        if not n.ok then incr frozen
      | Uninit -> ())
    hn.buckets;
  let pred = Atomic.get hn.pred in
  (match pred with
  | Some s ->
    Array.iter
      (fun b ->
        match Atomic.get b with
        | Node n -> if not n.ok then incr frozen
        | Uninit -> ())
      s.buckets
  | None -> ());
  let migrating = pred <> None in
  Hashset_intf.make_view ~sizes ~frozen_buckets:!frozen ~migrating
    ~migration_progress:
      (if migrating then float_of_int !initialized /. float_of_int hn.size
       else 1.0)
    ~announce_pending:0

(* The lock-free map announces nothing; an always-empty watchdog
   source, as in Hashset_intf's non-announcing tables. *)
let pending_ops _ = [||]

let fail fmt = Format.kasprintf failwith fmt

let check_invariants t =
  let hn = Atomic.get t.head in
  (match Atomic.get hn.pred with
  | Some s ->
    Array.iteri
      (fun j b ->
        match Atomic.get b with
        | Uninit -> fail "pred bucket %d is uninit" j
        | Node _ -> ())
      s.buckets
  | None ->
    Array.iteri
      (fun i b ->
        match Atomic.get b with
        | Uninit -> fail "bucket %d uninit in a table without predecessor" i
        | Node _ -> ())
      hn.buckets);
  Array.iteri
    (fun i b ->
      match Atomic.get b with
      | Uninit -> ()
      | Node n ->
        Array.iter
          (fun (k, _) ->
            if k land hn.mask <> i then
              fail "key %d misplaced in bucket %d of %d" k i hn.size)
          n.pairs)
    hn.buckets;
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (k, _) ->
      if Hashtbl.mem seen k then fail "duplicate key %d" k;
      Hashtbl.add seen k ())
    (bindings t)
