(** The HNode scaffolding shared by the lock-free and wait-free hash
    sets (Figure 2 of the paper, minus APPLY): the versioned bucket
    array, lazy bucket initialization by freeze-and-migrate
    ([init_bucket], lines 38-51), the RESIZE operation (lines 19-28),
    and CONTAINS (lines 11-18).

    A table is a list of HNodes of length at most two: [head] and, while
    a resize is being absorbed, [head]'s predecessor. Bucket [i] of the
    head starts out nil and is initialized on first touch by freezing
    the corresponding predecessor bucket(s) and copying the split
    (grow) or merged (shrink) keys. Freezing first is what lets keys
    move without loss or duplication: the frozen buckets remain the
    logical truth (the refinement mapping of Figure 3) until the new
    bucket is installed by CAS, an abstract-state-preserving step. *)

module Atomic = Nbhash_util.Nb_atomic

module Make (F : Nbhash_fset.Fset_intf.CORE) = struct
  module Tm = Nbhash_telemetry.Global
  module Ev = Nbhash_telemetry.Event

  type hnode = {
    buckets : F.t option Atomic.t array;
    size : int;
    mask : int;
    pred : hnode option Atomic.t;
    sweep : Sweep.t;
        (* chunk cursor for the cooperative migration of THIS HNode's
           buckets out of [pred]; unused (and never claimed from) on
           HNodes created without a predecessor *)
  }

  type t = {
    head : hnode Atomic.t;
    policy : Policy.t;
    count : Policy.Counter.shared;  (* approximate, for Load_factor *)
    grows : int Atomic.t;
    shrinks : int Atomic.t;
  }

  let make_hnode ~size ~pred =
    {
      buckets = Array.init size (fun _ -> Atomic.make None);
      size;
      mask = size - 1;
      pred = Atomic.make pred;
      sweep = Sweep.make ~total:size;
    }

  (* Unlike the paper's one-bucket initial table, a fresh table may be
     presized; every bucket of a pred-less HNode must be non-nil
     (Invariant 11), so initialize them all. *)
  let create policy =
    Policy.validate policy;
    let hn = make_hnode ~size:policy.Policy.init_buckets ~pred:None in
    Array.iter (fun b -> Atomic.set b (Some (F.create [||]))) hn.buckets;
    {
      head = Atomic.make hn;
      policy;
      count = Policy.Counter.make_shared ();
      grows = Atomic.make 0;
      shrinks = Atomic.make 0;
    }

  (* Predecessor buckets are never nil (Invariant 12: a resize
     initializes every bucket before publishing the new HNode). *)
  let pred_bucket s j =
    match Atomic.get s.buckets.(j) with
    | Some b -> b
    | None -> assert false

  (* Initialize bucket [i] of [hn] from its predecessor bucket(s):
     freeze them, then split or merge their keys. The CAS publishes
     the new bucket; losing the race to a helping thread is fine — the
     final re-read returns whoever won. *)
  let init_bucket hn i =
    (match (Atomic.get hn.buckets.(i), Atomic.get hn.pred) with
    | None, Some s ->
      let elems =
        if hn.size = s.size * 2 then
          let m = pred_bucket s (i land s.mask) in
          Nbhash_fset.Intset.filter_mask (F.freeze m) ~mask:hn.mask ~target:i
        else begin
          let m = pred_bucket s i in
          let n = pred_bucket s (i + hn.size) in
          Nbhash_fset.Intset.disjoint_union (F.freeze m) (F.freeze n)
        end
      in
      if Atomic.compare_and_set hn.buckets.(i) None (Some (F.create elems))
      then begin
        (* Only the installing thread accounts the migration, so the
           keys_migrated total equals the table cardinality after one
           full migration even when helpers race. *)
        Tm.emit_arg Ev.Bucket_init i;
        Tm.add Ev.Keys_migrated (Array.length elems)
      end
    | (Some _ | None), _ -> ());
    match Atomic.get hn.buckets.(i) with
    | Some b -> b
    | None ->
      (* buckets.(i) = nil together with pred = nil cannot happen
         (Invariant 11): pred is cleared only after every bucket is
         initialized, and buckets never return to nil. *)
      assert false

  (* Locate (initializing if needed) the bucket of [hn] that owns key
     [k]. *)
  let bucket_for hn k =
    let i = k land hn.mask in
    match Atomic.get hn.buckets.(i) with
    | Some b -> b
    | None -> init_bucket hn i

  (* Cooperative sweep plumbing: migrating bucket [i] is exactly the
     idempotent lazy step, and completing the sweep discharges
     Invariant 11's condition for cutting the predecessor loose
     early. *)
  let sweep_migrate hn i = ignore (init_bucket hn i)
  let sweep_complete hn = Atomic.set hn.pred None

  (* One helping step on the way through a migrating table: claim (at
     most) one chunk of nil buckets of the head and migrate it. Called
     from the update-path policy hooks, so every active writer chips
     in instead of leaving the whole rehash to whoever faults on a nil
     bucket. *)
  let help_migration t hn =
    let m = t.policy.Policy.migration in
    if m.Policy.eager && Atomic.get hn.pred <> None then
      Sweep.help hn.sweep ~chunk:m.Policy.chunk
        ~max_helpers:m.Policy.max_helpers ~migrate:sweep_migrate
        ~complete:sweep_complete hn

  (* RESIZE: force full migration into the head HNode, cut the
     now-immutable predecessor loose, and install a double- or
     half-sized successor. The head CAS is the only step that changes
     which HNode is current, and it preserves the abstract set
     (Lemma 14). The resizer first drains the sweep cursor (so its
     share of the work is accounted as sweep participation), then
     falls through to the paper's index loop, which doubles as the
     catch-up pass for chunks still in flight on stalled helpers —
     never waiting on them keeps RESIZE's progress argument intact. *)
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
        Sweep.drain hn.sweep ~chunk:m.Policy.chunk
          ~migrate:sweep_migrate ~complete:sweep_complete hn;
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
        ignore
          (Atomic.fetch_and_add (if grow then t.grows else t.shrinks) 1);
        Tm.emit_arg (if grow then Ev.Resize_grow else Ev.Resize_shrink) size;
        Tm.record_span Ev.Resize_span ~start_ns
      end
      else
        (* Lost the head CAS: the migration work still happened, but
           this was not a resize — balance the trace span without an
           observation. *)
        Tm.span_abort Ev.Resize_span
    end

  (* CONTAINS: search the head bucket; if it is uninitialized, search
     through the predecessor instead — unless the predecessor vanished
     meanwhile, in which case the head bucket must have been
     initialized and is re-read (lines 14-17). *)
  let contains t k =
    let hn = Atomic.get t.head in
    match Atomic.get hn.buckets.(k land hn.mask) with
    | Some b -> F.has_member b k
    | None ->
      Tm.emit_arg Ev.Contains_pred k;
      let b =
        match Atomic.get hn.pred with
        | Some s -> pred_bucket s (k land s.mask)
        | None -> (
          match Atomic.get hn.buckets.(k land hn.mask) with
          | Some b -> b
          | None -> assert false)
      in
      F.has_member b k

  let bucket_count t = (Atomic.get t.head).size

  let resize_stats t =
    {
      Hashset_intf.grows = Atomic.get t.grows;
      shrinks = Atomic.get t.shrinks;
    }

  (* Current size of bucket [i] of [hn]; uninitialized buckets report 0
     (forcing their migration just to measure them would defeat
     laziness). *)
  let bucket_size_at hn i =
    match Atomic.get hn.buckets.(i) with None -> 0 | Some b -> F.size b

  (* Policy plumbing shared by the table implementations built on this
     core. *)
  let after_insert t local ~key ~resp =
    Policy.Trigger.note_insert local ~resp;
    let hn = Atomic.get t.head in
    help_migration t hn;
    if
      Policy.Trigger.want_grow t.policy local ~cur_buckets:hn.size
        ~migrating:(Atomic.get hn.pred <> None)
        ~inserted_bucket_size:
          (if Policy.reads_bucket_sizes t.policy then fun () ->
             bucket_size_at hn (key land hn.mask)
           else Policy.unread_size)
    then resize t true

  let after_remove t local ~resp =
    Policy.Trigger.note_remove local ~resp;
    let hn = Atomic.get t.head in
    help_migration t hn;
    if
      Policy.Trigger.want_shrink t.policy local ~cur_buckets:hn.size
        ~migrating:(Atomic.get hn.pred <> None)
        ~sample_bucket_size:
          (if Policy.reads_bucket_sizes t.policy then bucket_size_at hn
           else Policy.unread_size)
    then resize t false

  (* The refinement mapping of Figure 3, reified: BuckSet(t, i) is the
     bucket's own elements when initialized, and the split/merge of
     the predecessor's elements otherwise. Exact in quiescent
     states. *)
  let bucket_set hn i =
    match Atomic.get hn.buckets.(i) with
    | Some b -> F.elements b
    | None -> (
      match Atomic.get hn.pred with
      | Some s ->
        if hn.size = s.size * 2 then
          Nbhash_fset.Intset.filter_mask
            (F.elements (pred_bucket s (i land s.mask)))
            ~mask:hn.mask ~target:i
        else
          Nbhash_fset.Intset.disjoint_union
            (F.elements (pred_bucket s i))
            (F.elements (pred_bucket s (i + hn.size)))
      | None -> (
        match Atomic.get hn.buckets.(i) with
        | Some b -> F.elements b
        | None -> assert false))

  let elements t =
    let hn = Atomic.get t.head in
    let parts = List.init hn.size (bucket_set hn) in
    Array.concat parts

  let bucket_sizes t =
    let hn = Atomic.get t.head in
    Array.init hn.size (fun i -> Array.length (bucket_set hn i))

  let cardinal t = Array.length (elements t)

  (* Structural health snapshot. [frozen_buckets] counts frozen
     fsets reachable from the head and its predecessor; the head's own
     buckets are never frozen (only predecessors freeze), so a
     quiescent table reports 0. [migration_progress] is the fraction
     of head buckets already initialized — the same quantity the
     resizer's index loop drives to 1. Racy but safe under concurrent
     updates. *)
  let inspect_with t ~announce_pending =
    let hn = Atomic.get t.head in
    let sizes = Array.init hn.size (fun i -> Array.length (bucket_set hn i)) in
    let initialized = ref 0 in
    let frozen = ref 0 in
    Array.iter
      (fun b ->
        match Atomic.get b with
        | Some b ->
          incr initialized;
          if F.is_frozen b then incr frozen
        | None -> ())
      hn.buckets;
    let pred = Atomic.get hn.pred in
    (match pred with
    | Some s ->
      Array.iter
        (fun b ->
          match Atomic.get b with
          | Some b -> if F.is_frozen b then incr frozen
          | None -> ())
        s.buckets
    | None -> ());
    let migrating = pred <> None in
    Hashset_intf.make_view ~sizes ~frozen_buckets:!frozen ~migrating
      ~migration_progress:
        (if migrating then float_of_int !initialized /. float_of_int hn.size
         else 1.0)
      ~announce_pending

  let fail fmt = Format.kasprintf failwith fmt

  (* Structural sanity for quiescent states: key placement, the
     nil-bucket invariants (11 and 12), frozen-predecessor invariant
     (13), and duplicate freedom across the whole table. *)
  let check_invariants t =
    let hn = Atomic.get t.head in
    let pred = Atomic.get hn.pred in
    (match pred with
    | Some s ->
      if hn.size <> s.size * 2 && hn.size * 2 <> s.size then
        fail "head size %d not double or half of pred size %d" hn.size s.size;
      Array.iteri
        (fun j b ->
          if Atomic.get b = None then fail "pred bucket %d is nil" j)
        s.buckets
    | None ->
      Array.iteri
        (fun i b ->
          if Atomic.get b = None then
            fail "bucket %d nil in a table without predecessor" i)
        hn.buckets);
    Array.iteri
      (fun i b ->
        match Atomic.get b with
        | None -> ()
        | Some b ->
          Array.iter
            (fun k ->
              if k land hn.mask <> i then
                fail "key %d misplaced in bucket %d of %d" k i hn.size)
            (F.elements b);
          (match pred with
          | Some s when hn.size = s.size * 2 ->
            if not (F.is_frozen (pred_bucket s (i land s.mask))) then
              fail "predecessor of initialized bucket %d is not frozen" i
          | Some s ->
            if
              not
                (F.is_frozen (pred_bucket s i)
                && F.is_frozen (pred_bucket s (i + hn.size)))
            then fail "predecessors of initialized bucket %d are not frozen" i
          | None -> ()))
      hn.buckets;
    let all = elements t in
    let seen = Hashtbl.create (Array.length all) in
    Array.iter
      (fun k ->
        if Hashtbl.mem seen k then fail "duplicate key %d in abstract set" k;
        Hashtbl.add seen k ())
      all
end
