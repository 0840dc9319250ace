module Atomic = Nbhash_util.Nb_atomic

module Intset = Nbhash_fset.Intset
module Tm = Nbhash_telemetry.Global
module Ev = Nbhash_telemetry.Event

let site_freeze = Nbhash_telemetry.Site.register "adaptive_opt/freeze"
let site_invoke = Nbhash_telemetry.Site.register "adaptive_opt/invoke"

let infinity_prio = max_int

type wop = {
  kind : Nbhash_fset.Fset_intf.kind;
  key : int;
  resp : bool Atomic.t;
  prio : int Atomic.t;
}

type opslot = Empty | Frozen | Pending of wop

(* A bucket slot holds the wait-free FSetNode inline. *)
type wslot = Uninit | N of { elems : int array; op : opslot Atomic.t }

type hnode = {
  buckets : wslot Atomic.t array;
  flags : bool Atomic.t array;  (* per-bucket freeze intent *)
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
  slots : wop Atomic.t array;
  counter : int Atomic.t;
  next_tid : int Atomic.t;
  fast_threshold : int;
  help_mask : int;
}

type handle = {
  table : t;
  tid : int;
  local : Policy.Trigger.local;
  mutable ops : int;
  mutable slow_entries : int;
}

let name = "AdaptiveOpt"

let make_op kind key ~prio =
  { kind; key; resp = Atomic.make false; prio = Atomic.make prio }

let op_is_done op = Atomic.get op.prio = infinity_prio
let fresh_node elems = N { elems; op = Atomic.make Empty }

let make_hnode ~size ~pred =
  {
    buckets = Array.init size (fun _ -> Atomic.make Uninit);
    flags = Array.init size (fun _ -> Atomic.make false);
    size;
    mask = size - 1;
    pred = Atomic.make pred;
    sweep = Sweep.make ~total:size;
  }

let create_tuned ?(policy = Policy.default) ?(max_threads = 128)
    ?(fast_threshold = 256) ?(help_period = 64) () =
  Policy.validate policy;
  if not (Nbhash_util.Bits.is_pow2 help_period) then
    invalid_arg "help_period must be a power of two";
  if fast_threshold < 1 then invalid_arg "fast_threshold < 1";
  let hn = make_hnode ~size:policy.Policy.init_buckets ~pred:None in
  Array.iter (fun b -> Atomic.set b (fresh_node [||])) hn.buckets;
  {
    head = Atomic.make hn;
    policy;
    count = Policy.Counter.make_shared ();
    grows = Atomic.make 0;
    shrinks = Atomic.make 0;
    slots =
      Array.init max_threads (fun _ ->
          Atomic.make (make_op Nbhash_fset.Fset_intf.Ins 0 ~prio:infinity_prio));
    counter = Atomic.make 0;
    next_tid = Atomic.make 0;
    fast_threshold;
    help_mask = help_period - 1;
  }

let create ?policy ?max_threads () = create_tuned ?policy ?max_threads ()

let register table =
  let tid = Atomic.fetch_and_add table.next_tid 1 in
  if tid >= Array.length table.slots then
    failwith "register: max_threads handles already registered";
  {
    table;
    tid;
    local = Policy.Trigger.make_local table.count ~seed:(0xad0 + tid);
    ops = 0;
    slow_entries = 0;
  }

let unregister h = Policy.Trigger.flush h.local
let slow_path_entries h = h.slow_entries

(* --- The cooperative wait-free FSet protocol, inlined on slots. --- *)

let help_finish slot =
  match Atomic.get slot with
  | Uninit -> ()
  | N n as cur -> (
    match Atomic.get n.op with
    | Empty | Frozen -> ()
    | Pending op ->
      let present = Intset.mem n.elems op.key in
      let resp, elems =
        match op.kind with
        | Nbhash_fset.Fset_intf.Ins ->
          (not present, if present then n.elems else Intset.add n.elems op.key)
        | Nbhash_fset.Fset_intf.Rem ->
          (present, if present then Intset.remove n.elems op.key else n.elems)
      in
      Atomic.set op.resp resp;
      Atomic.set op.prio infinity_prio;
      ignore (Atomic.compare_and_set slot cur (fresh_node elems))
      [@nbhash.cas_ok
      "helping: all helpers derive the same successor node from the same \
       frozen (node, op) pair; exactly one CAS installs it"])

let rec do_freeze slot =
  match Atomic.get slot with
  | Uninit -> assert false
  | N n -> (
    match Atomic.get n.op with
    | Frozen -> n.elems
    | Empty ->
      if Atomic.compare_and_set n.op Empty Frozen then begin
        Tm.emit Ev.Freeze;
        n.elems
      end
      else begin
        Tm.cas_retry site_freeze;
        do_freeze slot
      end
    | Pending _ ->
      help_finish slot;
      do_freeze slot)

let freeze hn i =
  Atomic.set hn.flags.(i) true;
  do_freeze hn.buckets.(i)

let rec invoke hn i op =
  if op_is_done op then true
  else begin
    let slot = hn.buckets.(i) in
    match Atomic.get slot with
    | Uninit -> assert false
    | N n -> (
      match Atomic.get n.op with
      | Frozen -> op_is_done op
      | Empty | Pending _ ->
        if Atomic.get hn.flags.(i) then begin
          ignore (do_freeze slot);
          op_is_done op
        end
        else begin
          match Atomic.get n.op with
          | Empty ->
            if op_is_done op then true
            else if Atomic.compare_and_set n.op Empty (Pending op) then begin
              help_finish slot;
              true
            end
            else begin
              Tm.cas_retry site_invoke;
              invoke hn i op
            end
          | Frozen -> op_is_done op
          | Pending _ ->
            help_finish slot;
            invoke hn i op
        end)
  end

let slot_member slot k =
  match Atomic.get slot with
  | Uninit -> assert false
  | N n -> (
    match Atomic.get n.op with
    | Pending op when op.key = k -> op.kind = Nbhash_fset.Fset_intf.Ins
    | Empty | Frozen | Pending _ -> Intset.mem n.elems k)

(* Logical contents of a slot, pending operation included. *)
let slot_elems slot =
  match Atomic.get slot with
  | Uninit -> assert false
  | N n -> (
    match Atomic.get n.op with
    | Empty | Frozen -> n.elems
    | Pending op -> (
      let present = Intset.mem n.elems op.key in
      match op.kind with
      | Nbhash_fset.Fset_intf.Ins ->
        if present then n.elems else Intset.add n.elems op.key
      | Nbhash_fset.Fset_intf.Rem ->
        if present then Intset.remove n.elems op.key else n.elems))

(* --- Table scaffolding (Figure 2), on the flattened layout. --- *)

let init_bucket hn i =
  (match (Atomic.get hn.buckets.(i), Atomic.get hn.pred) with
  | Uninit, Some s ->
    let elems =
      if hn.size = s.size * 2 then
        Intset.filter_mask (freeze s (i land s.mask)) ~mask:hn.mask ~target:i
      else
        Intset.disjoint_union (freeze s i) (freeze s (i + hn.size))
    in
    if Atomic.compare_and_set hn.buckets.(i) Uninit (fresh_node elems)
    then begin
      Tm.emit_arg Ev.Bucket_init i;
      Tm.add Ev.Keys_migrated (Array.length elems)
    end
  | (N _ | Uninit), _ -> ());
  ()

let ensure_bucket hn k =
  let i = k land hn.mask in
  (match Atomic.get hn.buckets.(i) with
  | Uninit -> init_bucket hn i
  | N _ -> ());
  i

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
    let start_ns = Tm.span_begin Ev.Resize_span in
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
    if Atomic.compare_and_set t.head hn hn' then begin
      ignore (Atomic.fetch_and_add (if grow then t.grows else t.shrinks) 1);
      Tm.emit_arg (if grow then Ev.Resize_grow else Ev.Resize_shrink) size;
      Tm.record_span Ev.Resize_span ~start_ns
    end
    else Tm.span_abort Ev.Resize_span
  end

(* --- Announce-and-help (Figure 4) and the fast path. --- *)

let drive t op =
  let continue = ref (not (op_is_done op)) in
  while !continue do
    let hn = Atomic.get t.head in
    let i = ensure_bucket hn op.key in
    if invoke hn i op then continue := false
    else continue := not (op_is_done op)
  done

let help_up_to t ~prio =
  for tid = 0 to Array.length t.slots - 1 do
    let op = Atomic.get t.slots.(tid) in
    if Atomic.get op.prio <= prio then begin
      if not (op_is_done op) then Tm.emit_arg Ev.Help_op tid;
      drive t op
    end
  done

(* Announce-array snapshot for the liveness watchdog; see
   Wf_common.announced. *)
let pending_ops t =
  let out = ref [] in
  for tid = Array.length t.slots - 1 downto 0 do
    let op = Atomic.get t.slots.(tid) in
    let p = Atomic.get op.prio in
    if p <> infinity_prio && not (op_is_done op) then out := (tid, p) :: !out
  done;
  Array.of_list !out

let help_lowest t =
  let best = ref None in
  Array.iter
    (fun slot ->
      let op = Atomic.get slot in
      let p = Atomic.get op.prio in
      if p <> infinity_prio then
        match !best with
        | Some (bp, _) when bp <= p -> ()
        | Some _ | None -> best := Some (p, op))
    t.slots;
  match !best with
  | None -> ()
  | Some (_, op) ->
    Tm.emit Ev.Help_op;
    drive t op

let slow_apply h kind k =
  let t = h.table in
  Tm.emit_arg Ev.Slowpath_entry k;
  let start_ns = Tm.span_begin Ev.Slowpath_span in
  let prio = Atomic.fetch_and_add t.counter 1 in
  let myop = make_op kind k ~prio in
  Atomic.set t.slots.(h.tid) myop;
  help_up_to t ~prio;
  let resp = Atomic.get myop.resp in
  Tm.record_span Ev.Slowpath_span ~start_ns;
  resp

let fast_apply t kind k =
  let op = make_op kind k ~prio:0 in
  let rec attempt failures =
    if failures >= t.fast_threshold then None
    else begin
      let hn = Atomic.get t.head in
      let i = ensure_bucket hn k in
      if invoke hn i op then Some (Atomic.get op.resp)
      else attempt (failures + 1)
    end
  in
  attempt 0

let apply h kind k =
  let t = h.table in
  h.ops <- h.ops + 1;
  if h.ops land t.help_mask = 0 then help_lowest t;
  Tm.emit Ev.Fastpath_entry;
  match fast_apply t kind k with
  | Some resp -> resp
  | None ->
    h.slow_entries <- h.slow_entries + 1;
    slow_apply h kind k

(* --- Policy triggers. --- *)

let slot_size slot =
  match Atomic.get slot with
  | Uninit -> 0
  | N n -> Array.length n.elems

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

(* --- Public operations. --- *)

let insert h k =
  Hashset_intf.check_key k;
  let resp = apply h Nbhash_fset.Fset_intf.Ins k in
  after_insert h k ~resp;
  resp

let remove h k =
  Hashset_intf.check_key k;
  let resp = apply h Nbhash_fset.Fset_intf.Rem k in
  after_remove h ~resp;
  resp

let contains h k =
  Hashset_intf.check_key k;
  let t = h.table in
  let hn = Atomic.get t.head in
  match Atomic.get hn.buckets.(k land hn.mask) with
  | N _ -> slot_member hn.buckets.(k land hn.mask) k
  | Uninit -> (
    Tm.emit_arg Ev.Contains_pred k;
    match Atomic.get hn.pred with
    | Some s -> slot_member s.buckets.(k land s.mask) k
    | None -> slot_member hn.buckets.(k land hn.mask) k)

let bucket_count t = (Atomic.get t.head).size

let resize_stats t =
  { Hashset_intf.grows = Atomic.get t.grows; shrinks = Atomic.get t.shrinks }

let force_resize h ~grow = resize h.table grow

let bucket_set hn i =
  match Atomic.get hn.buckets.(i) with
  | N _ -> slot_elems hn.buckets.(i)
  | Uninit -> (
    match Atomic.get hn.pred with
    | Some s ->
      if hn.size = s.size * 2 then
        Intset.filter_mask
          (slot_elems s.buckets.(i land s.mask))
          ~mask:hn.mask ~target:i
      else
        Intset.disjoint_union
          (slot_elems s.buckets.(i))
          (slot_elems s.buckets.(i + hn.size))
    | None -> slot_elems hn.buckets.(i))

let elements t =
  let hn = Atomic.get t.head in
  Array.concat (List.init hn.size (bucket_set hn))

let bucket_sizes t =
  let hn = Atomic.get t.head in
  Array.init hn.size (fun i -> Array.length (bucket_set hn i))

let cardinal t = Array.length (elements t)

(* Structural health snapshot; see Table_core.inspect_with. A slot is
   frozen when its operation field reads [Frozen] — only predecessor
   buckets freeze, so a quiescent table reports 0. *)
let inspect t =
  let hn = Atomic.get t.head in
  let sizes = Array.init hn.size (fun i -> Array.length (bucket_set hn i)) in
  let initialized = ref 0 in
  let frozen = ref 0 in
  let scan ~count_init b =
    match Atomic.get b with
    | N n -> (
      if count_init then incr initialized;
      match Atomic.get n.op with
      | Frozen -> incr frozen
      | Empty | Pending _ -> ())
    | Uninit -> ()
  in
  Array.iter (scan ~count_init:true) hn.buckets;
  let pred = Atomic.get hn.pred in
  (match pred with
  | Some s -> Array.iter (scan ~count_init:false) s.buckets
  | None -> ());
  let migrating = pred <> None in
  Hashset_intf.make_view ~sizes ~frozen_buckets:!frozen ~migrating
    ~migration_progress:
      (if migrating then float_of_int !initialized /. float_of_int hn.size
       else 1.0)
    ~announce_pending:(Array.length (pending_ops t))

let fail fmt = Format.kasprintf failwith fmt

let check_invariants t =
  let hn = Atomic.get t.head in
  (match Atomic.get hn.pred with
  | Some s ->
    if hn.size <> s.size * 2 && hn.size * 2 <> s.size then
      fail "head size %d not double or half of pred size %d" hn.size s.size;
    Array.iteri
      (fun j b ->
        match Atomic.get b with
        | Uninit -> fail "pred bucket %d is uninit" j
        | N _ -> ())
      s.buckets
  | None ->
    Array.iteri
      (fun i b ->
        match Atomic.get b with
        | Uninit -> fail "bucket %d uninit in a table without predecessor" i
        | N _ -> ())
      hn.buckets);
  Array.iteri
    (fun i b ->
      match Atomic.get b with
      | Uninit -> ()
      | N n ->
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
