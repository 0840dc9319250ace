(** The HNode scaffolding shared by every resizable table in the
    repository (Figure 2 of the paper, minus APPLY): the versioned
    bucket array, lazy bucket initialization by freeze-and-migrate
    ([init_bucket], lines 38-51), the RESIZE operation (lines 19-28),
    the cooperative migration sweep (DESIGN.md System 12), the policy
    triggers, the Figure 3 refinement-mapping views and the structural
    invariant checker.

    A table is a list of HNodes of length at most two: [head] and, while
    a resize is being absorbed, [head]'s predecessor. Bucket [i] of the
    head starts out uninitialized and is initialized on first touch by
    freezing the corresponding predecessor bucket(s) and copying the
    split (grow) or merged (shrink) entries. Freezing first is what lets
    entries move without loss or duplication: the frozen buckets remain
    the logical truth (the refinement mapping of Figure 3) until the
    new bucket is installed by CAS, an abstract-state-preserving
    step.

    An HNode's buckets are one flat {!Atomic.Array} block of slot
    words, as Figure 2's one [buckets] array of FSet pointers: a new
    HNode costs one block, not a boxed [Atomic.t] per bucket (which,
    once the array is in the major heap, is a major-to-minor pointer
    per bucket for the next minor collection to remember and promote).

    The variants differ only in what a bucket slot holds — an FSet
    object, a flattened copy-on-write node, a wait-free node with its
    operation slot, with integer keys, pairs or generic keys — which is
    the {!SLOT} signature below. Each variant keeps its slot protocol
    and its per-operation hot path; the hot paths read the [hnode]
    fields directly, because a call through a functor argument is an
    indirect call that ocamlopt without flambda cannot inline. *)

module Atomic = Nbhash_util.Nb_atomic

(** The entries of a bucket: keys, or (key, value) bindings.
    Polymorphic in the value type ['v] of the maps; the sets ignore
    it. *)
module type KEYS = sig
  type 'v elt
  (** One bucket entry: a key, or a (key, value) binding. *)

  val split : 'v elt array -> mask:int -> target:int -> 'v elt array
  (** The entries whose key hash satisfies [hash land mask = target]
      (the grow half of bucket initialization). *)

  val merge : 'v elt array -> 'v elt array -> 'v elt array
  (** Union of two key-disjoint entry arrays (the shrink case). *)

  val hash : 'v elt -> int
  (** Non-negative key hash; bucket [i] of an HNode of mask [m] holds
      exactly the entries with [hash e land m = i]. *)

  val same_key : 'v elt -> 'v elt -> bool
end

(** What one bucket slot holds. *)
module type SLOT = sig
  include KEYS

  type 'v slot
  (** The value stored directly in a bucket slot. *)

  type side
  (** Per-HNode side state, built with the HNode: the freeze-intent
      flags of the flattened wait-free slots, [unit] elsewhere. *)

  val uninit : 'v slot
  (** The nil bucket. Must be an immediate (a constant constructor or
      [None]): the core recognises it by physical equality. *)

  val fresh : 'v elt array -> 'v slot
  (** A mutable, unfrozen slot holding the given entries (pairwise
      distinct keys; the array is not mutated afterwards). *)

  val make_side : int -> side
  (** [make_side size] for an HNode of [size] buckets. *)

  val freeze : side -> 'v slot Atomic.Array.t -> int -> 'v elt array
  (** [freeze side buckets j]: FREEZE bucket [j] of a predecessor
      HNode (never uninitialized) and return its final entries.
      Idempotent. *)

  val size : 'v slot -> int
  (** Entry count of an initialized slot, for the resize triggers. *)

  val contents : 'v slot -> 'v elt array
  (** Logical entries of an initialized slot, including the effect of
      a linearized but unfinished operation. *)

  val is_frozen : 'v slot -> bool
end

(** The entry operations of the integer-keyed sets, for [include] in
    their slot modules: the key is its own hash. *)
module Int_keys = struct
  type 'v elt = int

  let split = Nbhash_fset.Intset.filter_mask
  let merge = Nbhash_fset.Intset.disjoint_union
  let hash k = k
  let same_key = Int.equal
end

(** The slots of the tables over FSet objects (LFArray, LFFlat,
    WFArray, Adaptive, ...): an initialized bucket holds [Some fset]. *)
module Fset_slot (F : Nbhash_fset.Fset_intf.CORE) = struct
  include Int_keys

  type 'v slot = F.t option
  type side = unit

  let uninit = None
  let fresh elems = Some (F.create elems)
  let make_side _ = ()
  let get = function Some b -> b | None -> assert false
  let freeze () buckets j = F.freeze (get (Atomic.Array.get buckets j))
  let size s = F.size (get s)
  let contents s = F.elements (get s)
  let is_frozen s = F.is_frozen (get s)
end

module Make (S : SLOT) = struct
  module Tm = Nbhash_telemetry.Global
  module Ev = Nbhash_telemetry.Event

  type 'v hnode = {
    buckets : 'v S.slot Atomic.Array.t;
    side : S.side;
    size : int;
    mask : int;
    pred : 'v hnode option Atomic.t;
    sweep : Sweep.t;
        (* chunk cursor for the cooperative migration of THIS HNode's
           buckets out of [pred]; unused (and never claimed from) on
           HNodes created without a predecessor *)
  }

  type 'v t = {
    head : 'v hnode Atomic.t;
    policy : Policy.t;
    count : Policy.Counter.shared;  (* approximate, for Load_factor *)
    grows : int Atomic.t;
    shrinks : int Atomic.t;
    handles : int Atomic.t;  (* registrations so far *)
  }

  type 'v handle = {
    table : 'v t;
    tid : int;
        (* registration ordinal: the announce slot of the wait-free
           tables, and the seed of the trigger's sampling PRNG *)
    local : Policy.Trigger.local;
  }

  let make_hnode ~size ~pred =
    {
      buckets = Atomic.Array.make size S.uninit;
      side = S.make_side size;
      size;
      mask = size - 1;
      pred = Atomic.make pred;
      sweep = Sweep.make ~total:size;
    }

  (* Unlike the paper's one-bucket initial table, a fresh table may be
     presized; every bucket of a pred-less HNode must be initialized
     (Invariant 11), so initialize them all. *)
  let create policy =
    Policy.validate policy;
    let hn = make_hnode ~size:policy.Policy.init_buckets ~pred:None in
    for i = 0 to hn.size - 1 do
      Atomic.Array.set_private hn.buckets i (S.fresh [||])
    done;
    {
      head = Atomic.make hn;
      policy;
      count = Policy.Counter.make_shared ();
      grows = Atomic.make 0;
      shrinks = Atomic.make 0;
      handles = Atomic.make 0;
    }

  let register table =
    let tid = Atomic.fetch_and_add table.handles 1 in
    {
      table;
      tid;
      local = Policy.Trigger.make_local table.count ~seed:(0x5eed + tid);
    }

  let unregister h = Policy.Trigger.flush h.local

  (* Initialize bucket [i] of [hn] from its predecessor bucket(s):
     freeze them, then split or merge their entries. The CAS publishes
     the new bucket; losing the race to a helping thread is fine — the
     bucket is initialized either way. A no-op on an initialized
     bucket, and on a pred-less HNode (whose buckets are all
     initialized, Invariant 11). *)
  let init_bucket hn i =
    if Atomic.Array.get hn.buckets i == S.uninit then
      match Atomic.get hn.pred with
      | None -> ()
      | Some s ->
        let elems =
          if hn.size = s.size * 2 then
            S.split
              (S.freeze s.side s.buckets (i land s.mask))
              ~mask:hn.mask ~target:i
          else
            S.merge
              (S.freeze s.side s.buckets i)
              (S.freeze s.side s.buckets (i + hn.size))
        in
        if Atomic.Array.compare_and_set hn.buckets i S.uninit (S.fresh elems)
        then begin
          (* Only the installing thread accounts the migration, so the
             keys_migrated total equals the table cardinality after one
             full migration even when helpers race. *)
          Tm.emit_arg Ev.Bucket_init i;
          Tm.add Ev.Keys_migrated (Array.length elems)
        end

  (* The slot that answers a lookup of hash [h] whose head bucket was
     uninitialized: the predecessor's bucket, or — if the predecessor
     vanished meanwhile — the head bucket, which must then be
     initialized (CONTAINS, lines 14-17). Predecessor buckets are
     never uninitialized (Invariant 12: a resize initializes every
     bucket before publishing the new HNode). *)
  let lookup_slot hn h =
    Tm.emit_arg Ev.Contains_pred h;
    match Atomic.get hn.pred with
    | Some s -> Atomic.Array.get s.buckets (h land s.mask)
    | None -> Atomic.Array.get hn.buckets (h land hn.mask)

  (* Cooperative sweep plumbing: migrating bucket [i] is exactly the
     idempotent lazy step, and completing the sweep discharges
     Invariant 11's condition for cutting the predecessor loose
     early. *)
  let sweep_migrate hn i = init_bucket hn i

  let sweep_complete hn =
    Atomic.set hn.pred None
    [@nbhash.cas_ok
      "one-way Some -> None: every writer publishes the same final value \
       once the sweep is complete"]

  (* One helping step on the way through a migrating table: claim (at
     most) one chunk of uninitialized buckets of the head and migrate
     it. Called from the update-path policy hooks, so every active
     writer chips in instead of leaving the whole rehash to whoever
     faults on a nil bucket. *)
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
        init_bucket hn i
      done;
      if m.Policy.eager then Sweep.finish hn.sweep;
      sweep_complete hn;
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

  let force_resize h ~grow = resize h.table grow
  let bucket_count t = (Atomic.get t.head).size

  let resize_stats t =
    {
      Hashset_intf.grows = Atomic.get t.grows;
      shrinks = Atomic.get t.shrinks;
    }

  (* A resize is still being absorbed: the head HNode has a
     predecessor. One load per HNode, unlike [inspect]'s census. *)
  let migrating t = Atomic.get (Atomic.get t.head).pred <> None

  (* Current size of bucket [i] of [hn]; uninitialized buckets report 0
     (forcing their migration just to measure them would defeat
     laziness). *)
  let bucket_size_at hn i =
    let b = Atomic.Array.get hn.buckets i in
    if b == S.uninit then 0 else S.size b

  (* Policy plumbing run after every update: count the change, help
     the sweep, and fire a resize when the trigger asks for one. [key]
     is the updated key's hash. *)
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
     bucket's own entries when initialized, and the split/merge of
     the predecessor's entries otherwise. Exact in quiescent
     states. *)
  let bucket_set hn i =
    let b = Atomic.Array.get hn.buckets i in
    if b != S.uninit then S.contents b
    else
      match Atomic.get hn.pred with
      | Some s ->
        let pred j = S.contents (Atomic.Array.get s.buckets j) in
        if hn.size = s.size * 2 then
          S.split (pred (i land s.mask)) ~mask:hn.mask ~target:i
        else S.merge (pred i) (pred (i + hn.size))
      | None -> S.contents (Atomic.Array.get hn.buckets i)

  let elements t =
    let hn = Atomic.get t.head in
    Array.concat (List.init hn.size (bucket_set hn))

  let bucket_sizes t =
    let hn = Atomic.get t.head in
    Array.init hn.size (fun i -> Array.length (bucket_set hn i))

  let cardinal t = Array.length (elements t)

  (* The lock-free tables announce nothing: an always-empty watchdog
     source (see Hashset_intf.S.pending_ops). *)
  let pending_ops (_ : 'v t) : (int * int) array = [||]

  (* Structural health snapshot. [frozen_buckets] counts frozen slots
     reachable from the head and its predecessor; the head's own
     buckets are never frozen (only predecessors freeze), so a
     quiescent table reports 0. [migration_progress] is the fraction
     of head buckets already initialized — the same quantity the
     resizer's index loop drives to 1. Racy but safe under concurrent
     updates. *)
  let inspect t ~announce_pending =
    let hn = Atomic.get t.head in
    let sizes = Array.init hn.size (fun i -> Array.length (bucket_set hn i)) in
    let initialized = ref 0 in
    let frozen = ref 0 in
    let scan ~head h =
      for i = 0 to h.size - 1 do
        let s = Atomic.Array.get h.buckets i in
        if s != S.uninit then begin
          if head then incr initialized;
          if S.is_frozen s then incr frozen
        end
      done
    in
    scan ~head:true hn;
    let pred = Atomic.get hn.pred in
    Option.iter (scan ~head:false) pred;
    let migrating = pred <> None in
    Hashset_intf.make_view ~sizes ~frozen_buckets:!frozen ~migrating
      ~migration_progress:
        (if migrating then float_of_int !initialized /. float_of_int hn.size
         else 1.0)
      ~announce_pending

  let fail fmt = Format.kasprintf failwith fmt

  (* Structural sanity for quiescent states: entry placement, the
     nil-bucket invariants (11 and 12), the frozen-predecessor
     invariant (13), and duplicate freedom across the whole table. *)
  let check_invariants t =
    let hn = Atomic.get t.head in
    let pred = Atomic.get hn.pred in
    let slot h i = Atomic.Array.get h.buckets i in
    (match pred with
    | Some s ->
      if hn.size <> s.size * 2 && hn.size * 2 <> s.size then
        fail "head size %d not double or half of pred size %d" hn.size s.size;
      for j = 0 to s.size - 1 do
        if slot s j == S.uninit then fail "pred bucket %d is nil" j
      done
    | None ->
      for i = 0 to hn.size - 1 do
        if slot hn i == S.uninit then
          fail "bucket %d nil in a table without predecessor" i
      done);
    let frozen s j = S.is_frozen (slot s j) in
    for i = 0 to hn.size - 1 do
      let b = slot hn i in
      if b != S.uninit then begin
        Array.iter
          (fun e ->
            if S.hash e land hn.mask <> i then
              fail "key hashed to %d misplaced in bucket %d of %d" (S.hash e)
                i hn.size)
          (S.contents b);
        match pred with
        | Some s when hn.size = s.size * 2 ->
          if not (frozen s (i land s.mask)) then
            fail "predecessor of initialized bucket %d is not frozen" i
        | Some s ->
          if not (frozen s i && frozen s (i + hn.size)) then
            fail "predecessors of initialized bucket %d are not frozen" i
        | None -> ()
      end
    done;
    let all = elements t in
    let seen = Hashtbl.create (Array.length all) in
    Array.iter
      (fun e ->
        let h = S.hash e in
        if List.exists (S.same_key e) (Hashtbl.find_all seen h) then
          fail "duplicate key hashed to %d in abstract set" h;
        Hashtbl.add seen h e)
      all
end
