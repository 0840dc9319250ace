module Atomic = Nbhash_util.Nb_atomic

module Intset = Nbhash_fset.Intset
module Tm = Nbhash_telemetry.Global
module Ev = Nbhash_telemetry.Event

let site_freeze = Nbhash_telemetry.Site.register "lf_opt/freeze_slot"
let site_stale = Nbhash_telemetry.Site.register "lf_opt/stale_bucket"
let site_add = Nbhash_telemetry.Site.register "lf_opt/add"
let site_del = Nbhash_telemetry.Site.register "lf_opt/del"

(* A bucket slot is directly the FSetNode: no FSet wrapper object.
   [Uninit] plays the role of the nil bucket pointer; the inline
   record is the immutable (elems, ok) node. *)
type bslot = Uninit | Node of { elems : int array; ok : bool }

type hnode = {
  buckets : bslot Atomic.t array;
  size : int;
  mask : int;
  pred : hnode option Atomic.t;
  sweep : Sweep.t;
}

type t = {
  head : hnode Atomic.t;
  policy : Policy.t;
  count : Policy.Counter.shared;
  grows : int Atomic.t;
  shrinks : int Atomic.t;
}

type handle = { table : t; local : Policy.Trigger.local }

let name = "LFArrayOpt"

let make_hnode ~size ~pred =
  {
    buckets = Array.init size (fun _ -> Atomic.make Uninit);
    size;
    mask = size - 1;
    pred = Atomic.make pred;
    sweep = Sweep.make ~total:size;
  }

let create ?(policy = Policy.default) ?max_threads () =
  ignore max_threads;
  Policy.validate policy;
  let hn = make_hnode ~size:policy.Policy.init_buckets ~pred:None in
  Array.iter
    (fun b -> Atomic.set b (Node { elems = [||]; ok = true }))
    hn.buckets;
  {
    head = Atomic.make hn;
    policy;
    count = Policy.Counter.make_shared ();
    grows = Atomic.make 0;
    shrinks = Atomic.make 0;
  }

let seed = Atomic.make 0x0b7

let register table =
  {
    table;
    local =
      Policy.Trigger.make_local table.count
        ~seed:(Atomic.fetch_and_add seed 1);
  }

let unregister h = Policy.Trigger.flush h.local

(* FREEZE on a flattened bucket: CAS the ok bit off in place. The slot
   is a predecessor bucket and hence never [Uninit]. *)
let rec freeze_slot slot =
  match Atomic.get slot with
  | Uninit -> assert false
  | Node n as cur ->
    if not n.ok then n.elems
    else if Atomic.compare_and_set slot cur (Node { elems = n.elems; ok = false })
    then begin
      Tm.emit Ev.Freeze;
      n.elems
    end
    else begin
      Tm.cas_retry site_freeze;
      freeze_slot slot
    end

let pending_ops _ = [||]

let bucket_elems slot =
  match Atomic.get slot with Uninit -> assert false | Node n -> n.elems

(* INITBUCKET, on slots. *)
let init_bucket hn i =
  (match (Atomic.get hn.buckets.(i), Atomic.get hn.pred) with
  | Uninit, Some s ->
    let elems =
      if hn.size = s.size * 2 then
        Intset.filter_mask
          (freeze_slot s.buckets.(i land s.mask))
          ~mask:hn.mask ~target:i
      else
        Intset.disjoint_union
          (freeze_slot s.buckets.(i))
          (freeze_slot s.buckets.(i + hn.size))
    in
    if
      Atomic.compare_and_set hn.buckets.(i) Uninit (Node { elems; ok = true })
    then begin
      Tm.emit_arg Ev.Bucket_init i;
      Tm.add Ev.Keys_migrated (Array.length elems)
    end
  | (Node _ | Uninit), _ -> ());
  hn.buckets.(i)

(* Cooperative sweep hooks (see Sweep and Table_core): one idempotent
   lazy step per index, early predecessor cut on completion. *)
let sweep_migrate hn i = ignore (init_bucket hn i)
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
    let start_ns = Tm.span_begin Ev.Resize_span in
    let m = t.policy.Policy.migration in
    if m.Policy.eager && Atomic.get hn.pred <> None then
      Sweep.drain hn.sweep ~chunk:m.Policy.chunk ~migrate:sweep_migrate
        ~complete:sweep_complete hn;
    for i = 0 to hn.size - 1 do
      ignore (init_bucket hn i)
    done;
    if m.Policy.eager then Sweep.finish hn.sweep;
    Atomic.set hn.pred None
    [@nbhash.cas_ok
    "one-way Some -> None: every writer publishes the same final value \
     once the sweep is complete"];
    let size = if grow then hn.size * 2 else hn.size / 2 in
    let hn' = make_hnode ~size ~pred:(Some hn) in
    if Atomic.compare_and_set t.head hn hn' then begin
      ignore (Atomic.fetch_and_add (if grow then t.grows else t.shrinks) 1);
      Tm.emit_arg (if grow then Ev.Resize_grow else Ev.Resize_shrink) size;
      Tm.record_span Ev.Resize_span ~start_ns
    end
    else Tm.span_abort Ev.Resize_span
  end

(* APPLY with the FSet INVOKE inlined against the slot: a frozen node
   or a lost CAS means a resize intervened, so re-resolve from the
   head. Redundant operations linearize at the node read, without a
   CAS. *)
let rec run_op t kind k =
  let hn = Atomic.get t.head in
  let i = k land hn.mask in
  let slot = hn.buckets.(i) in
  match Atomic.get slot with
  | Uninit ->
    ignore (init_bucket hn i);
    run_op t kind k
  | Node n as cur ->
    if not n.ok then begin
      Tm.cas_retry site_stale;
      run_op t kind k
    end
    else begin
      let present = Intset.mem n.elems k in
      match kind with
      | Nbhash_fset.Fset_intf.Ins ->
        if present then false
        else if
          Atomic.compare_and_set slot cur
            (Node { elems = Intset.add n.elems k; ok = true })
        then true
        else begin
          Tm.cas_retry site_add;
          run_op t kind k
        end
      | Nbhash_fset.Fset_intf.Rem ->
        if not present then false
        else if
          Atomic.compare_and_set slot cur
            (Node { elems = Intset.remove n.elems k; ok = true })
        then true
        else begin
          Tm.cas_retry site_del;
          run_op t kind k
        end
    end

let slot_size slot =
  match Atomic.get slot with
  | Uninit -> 0
  | Node n -> Array.length n.elems

let after_insert h k ~resp =
  Policy.Trigger.note_insert h.local ~resp;
  let hn = Atomic.get h.table.head in
  help_migration h.table hn;
  if
    Policy.Trigger.want_grow h.table.policy h.local ~cur_buckets:hn.size
      ~migrating:(Atomic.get hn.pred <> None)
      ~inserted_bucket_size:
        (if Policy.reads_bucket_sizes h.table.policy then fun () ->
           slot_size hn.buckets.(k land hn.mask)
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
           slot_size hn.buckets.(i)
         else Policy.unread_size)
  then resize h.table false

let insert h k =
  Hashset_intf.check_key k;
  let resp = run_op h.table Nbhash_fset.Fset_intf.Ins k in
  after_insert h k ~resp;
  resp

let remove h k =
  Hashset_intf.check_key k;
  let resp = run_op h.table Nbhash_fset.Fset_intf.Rem k in
  after_remove h ~resp;
  resp

let contains h k =
  Hashset_intf.check_key k;
  let t = h.table in
  let hn = Atomic.get t.head in
  match Atomic.get hn.buckets.(k land hn.mask) with
  | Node n -> Intset.mem n.elems k
  | Uninit ->
    Tm.emit_arg Ev.Contains_pred k;
    let elems =
      match Atomic.get hn.pred with
      | Some s -> bucket_elems s.buckets.(k land s.mask)
      | None -> bucket_elems hn.buckets.(k land hn.mask)
    in
    Intset.mem elems k

let bucket_count t = (Atomic.get t.head).size

let resize_stats t =
  { Hashset_intf.grows = Atomic.get t.grows; shrinks = Atomic.get t.shrinks }

let force_resize h ~grow = resize h.table grow

(* The Figure 3 refinement mapping, for quiescent inspection. *)
let bucket_set hn i =
  match Atomic.get hn.buckets.(i) with
  | Node n -> n.elems
  | Uninit -> (
    match Atomic.get hn.pred with
    | Some s ->
      if hn.size = s.size * 2 then
        Intset.filter_mask
          (bucket_elems s.buckets.(i land s.mask))
          ~mask:hn.mask ~target:i
      else
        Intset.disjoint_union
          (bucket_elems s.buckets.(i))
          (bucket_elems s.buckets.(i + hn.size))
    | None -> bucket_elems hn.buckets.(i))

let elements t =
  let hn = Atomic.get t.head in
  Array.concat (List.init hn.size (bucket_set hn))

let bucket_sizes t =
  let hn = Atomic.get t.head in
  Array.init hn.size (fun i -> Array.length (bucket_set hn i))

let cardinal t = Array.length (elements t)

(* Structural health snapshot; see Table_core.inspect_with. Frozen
   slots are [Node {ok = false}] — only predecessor buckets freeze, so
   a quiescent table reports 0. *)
let inspect t =
  let hn = Atomic.get t.head in
  let sizes = Array.init hn.size (fun i -> Array.length (bucket_set hn i)) in
  let initialized = ref 0 in
  let frozen = ref 0 in
  let scan b =
    match Atomic.get b with
    | Node n ->
      incr initialized;
      if not n.ok then incr frozen
    | Uninit -> ()
  in
  Array.iter scan hn.buckets;
  let head_initialized = !initialized in
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
      (if migrating then float_of_int head_initialized /. float_of_int hn.size
       else 1.0)
    ~announce_pending:0

let fail fmt = Format.kasprintf failwith fmt

let check_invariants t =
  let hn = Atomic.get t.head in
  (match Atomic.get hn.pred with
  | Some s ->
    if hn.size <> s.size * 2 && hn.size * 2 <> s.size then
      fail "head size %d not double or half of pred size %d" hn.size s.size;
    Array.iteri
      (fun j b ->
        if Atomic.get b = Uninit then fail "pred bucket %d is uninit" j)
      s.buckets
  | None ->
    Array.iteri
      (fun i b ->
        if Atomic.get b = Uninit then
          fail "bucket %d uninit in a table without predecessor" i)
      hn.buckets);
  Array.iteri
    (fun i b ->
      match Atomic.get b with
      | Uninit -> ()
      | Node n ->
        Array.iter
          (fun k ->
            if k land hn.mask <> i then
              fail "key %d misplaced in bucket %d of %d" k i hn.size)
          n.elems)
    hn.buckets;
  let all = elements t in
  let seen = Hashtbl.create (Array.length all) in
  Array.iter
    (fun k ->
      if Hashtbl.mem seen k then fail "duplicate key %d in abstract set" k;
      Hashtbl.add seen k ())
    all
