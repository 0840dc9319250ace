(** Announce-and-help (Figure 4), once for every wait-free table:
    WFArray, WFList, Adaptive, AdaptiveOpt and Wf_hashmap are
    instances of [Make] over their bucket slot protocol.

    Threads announce operations tagged with strictly increasing
    priorities (a fetch-and-increment counter — the doorway of
    Lamport's bakery, as the paper notes) in a slot array indexed by
    thread id, and then help every announced operation whose priority
    does not exceed their own. An operation's priority becomes
    infinity when it has been applied, which bounds every helping loop
    (section 5.2: O(T^2) FSet operations per APPLY).

    The adaptive variants (Fastpath/Slowpath, Kogan and Petrank) first
    try a private, never-announced operation and fall back to the
    announce after [fast_threshold] refusals; every [help_period]
    operations they assist the oldest announced one, which keeps
    fast-path threads from starving slow-path ones. *)

module Atomic = Nbhash_util.Nb_atomic

(** A bucket slot protocol whose operations carry the priority of the
    wait-free FSet (paper section 7). *)
module type PROTOCOL = sig
  include Table_core.SLOT

  type 'v op
  type 'v action
  type 'v result

  val infinity_prio : int
  val make_op : 'v action -> int -> prio:int -> 'v op

  val inert : unit -> 'v op
  (** An already-done operation: the placeholder of an idle slot. *)

  val op_key : 'v op -> int

  val op_prio : 'v op -> int
  (** Becomes [infinity_prio] once the operation has been applied. *)

  val op_result : 'v op -> 'v result

  val invoke : side -> 'v slot Atomic.Array.t -> int -> 'v op -> bool
  (** [invoke side buckets i op]: INVOKE on the initialized bucket [i]
      of an HNode: [true] once the operation is applied, [false] if
      the bucket froze first. *)
end

module Make (P : PROTOCOL) = struct
  module Core = Table_core.Make (P)
  module Tm = Nbhash_telemetry.Global
  module Ev = Nbhash_telemetry.Event

  type 'v t = {
    core : 'v Core.t;
    slots : 'v P.op Atomic.t array;
    counter : int Atomic.t;
    announce_writes : int array;
        (* per-slot announce counts: each slot has one writer (its
           tid), so plain increments are exact; the profiler samples
           these as a packed lane source — 8 announce slots share one
           cache line, the textbook false-sharing candidate *)
    announce_src : Nbhash_telemetry.Lanes.source;
        (* keeps the weakly-registered source alive as long as the
           table is reachable *)
    fast_threshold : int;  (* adaptive knobs; unused by the pure WF tables *)
    help_mask : int;
  }

  type 'v handle = {
    table : 'v t;
    tid : int;
    local : Policy.Trigger.local;
    mutable ops : int;  (* operation count, drives periodic helping *)
    mutable slow_entries : int;  (* adaptive diagnostics *)
  }

  let create ?(policy = Policy.default) ?(max_threads = 128)
      ?(fast_threshold = 256) ?(help_period = 64) () =
    if max_threads < 1 then invalid_arg "max_threads < 1";
    if not (Nbhash_util.Bits.is_pow2 help_period) then
      invalid_arg "help_period must be a power of two";
    if fast_threshold < 1 then invalid_arg "fast_threshold < 1";
    let announce_writes = Array.make max_threads 0 in
    {
      core = Core.create policy;
      slots = Array.init max_threads (fun _ -> Atomic.make (P.inert ()));
      counter = Atomic.make 0;
      announce_writes;
      announce_src =
        Nbhash_telemetry.Lanes.register_source ~name:"wf_announce"
          ~lanes_per_line:8 (fun () -> Array.copy announce_writes);
      fast_threshold;
      help_mask = help_period - 1;
    }

  let register table =
    let { Core.tid; local; _ } = Core.register table.core in
    if tid >= Array.length table.slots then
      failwith "register: max_threads handles already registered";
    { table; tid; local; ops = 0; slow_entries = 0 }

  (* The announce slot stays inert after teardown (its op priority is
     infinity), so only the counter deltas need releasing. The tid is
     not recycled: max_threads bounds lifetime registrations. *)
  let unregister h = Policy.Trigger.flush h.local

  let is_done op = P.op_prio op = P.infinity_prio

  (* One INVOKE of [op] on the bucket of the current head that owns
     its key, initializing that bucket first. [false] means the bucket
     was frozen, which implies the head changed. *)
  let invoke_at_head t op =
    let hn = Atomic.get t.core.Core.head in
    let i = P.op_key op land hn.Core.mask in
    Core.init_bucket hn i;
    P.invoke hn.Core.side hn.Core.buckets i op

  (* Drive one operation to completion: re-resolving the bucket after
     a refusal makes progress. Stops as soon as the operation is done
     (possibly completed by someone else). *)
  let rec drive t op =
    if (not (is_done op)) && not (invoke_at_head t op) then drive t op

  (* The helping scan of Figure 4 (lines 56-64): complete every
     announced operation whose priority is at most [prio]. *)
  let help_up_to t ~prio =
    for tid = 0 to Array.length t.slots - 1 do
      let op = Atomic.get t.slots.(tid) in
      if P.op_prio op <= prio then begin
        if not (is_done op) then Tm.emit_arg Ev.Help_op tid;
        drive t op
      end
    done

  (* Help the single oldest announced operation, if any. The scan
     keeps its best candidate in local refs, which the compiler turns
     into registers: no allocation per candidate. *)
  let help_lowest t =
    let best = ref (Atomic.get t.slots.(0)) in
    let best_prio = ref (P.op_prio !best) in
    for tid = 1 to Array.length t.slots - 1 do
      let op = Atomic.get t.slots.(tid) in
      let p = P.op_prio op in
      if p < !best_prio then begin
        best := op;
        best_prio := p
      end
    done;
    if !best_prio <> P.infinity_prio then begin
      Tm.emit Ev.Help_op;
      drive t !best
    end

  (* APPLY of Figure 4: announce, help everything at least as old,
     read own result. *)
  let slow_apply h action k =
    let t = h.table in
    Tm.emit_arg Ev.Slowpath_entry k;
    let start_ns = Tm.span_begin Ev.Slowpath_span in
    let prio = Atomic.fetch_and_add t.counter 1 in
    let myop = P.make_op action k ~prio in
    Atomic.set t.slots.(h.tid) myop;
    t.announce_writes.(h.tid) <- t.announce_writes.(h.tid) + 1
    [@nbhash.plain_ok
      "single-writer per slot (the owning tid); the false-sharing sampler \
       tolerates torn reads like every profiler lane"];
    help_up_to t ~prio;
    let result = P.op_result myop in
    Tm.record_span Ev.Slowpath_span ~start_ns;
    result

  (* Fast path: the lock-free APPLY with a private (never-announced)
     operation. It is abandoned only when it was never applied — a
     refusal means the bucket was frozen and the op not installed — so
     retrying on the slow path with a fresh op cannot double-apply. *)
  let rec fast_apply t op failures =
    failures < t.fast_threshold
    && (invoke_at_head t op || fast_apply t op (failures + 1))

  let adaptive_apply h action k =
    let t = h.table in
    h.ops <- h.ops + 1;
    if h.ops land t.help_mask = 0 then help_lowest t;
    Tm.emit Ev.Fastpath_entry;
    let op = P.make_op action k ~prio:0 in
    if fast_apply t op 0 then P.op_result op
    else begin
      h.slow_entries <- h.slow_entries + 1;
      slow_apply h action k
    end

  (* Snapshot of the announce array for the liveness watchdog: every
     announced-but-incomplete operation as (tid, priority). Each
     priority is read once, so a completed operation is never reported
     with priority infinity. Priorities are unique per operation (the
     bakery counter), so the same pair persisting across polls means
     one specific operation is stuck — exactly what the helping
     protocol is supposed to preclude. Racy by design; see Watchdog. *)
  let pending_ops t =
    let out = ref [] in
    for tid = Array.length t.slots - 1 downto 0 do
      let p = P.op_prio (Atomic.get t.slots.(tid)) in
      if p <> P.infinity_prio then out := (tid, p) :: !out
    done;
    Array.of_list !out

  (* Policy triggers, identical in shape to the lock-free table's.
     These hooks also run the cooperative migration sweep (DESIGN.md
     System 12): a wait-free update passing through a resizing table
     claims at most one bucket chunk, which does not change the
     helping bound — the chunk size is a constant of the policy. *)
  let after_insert h k ~resp =
    Core.after_insert h.table.core h.local ~key:k ~resp

  let after_remove h ~resp = Core.after_remove h.table.core h.local ~resp
  let slow_path_entries h = h.slow_entries
  let bucket_count t = Core.bucket_count t.core
  let resize_stats t = Core.resize_stats t.core
  let bucket_sizes t = Core.bucket_sizes t.core
  let force_resize h ~grow = Core.resize h.table.core grow
  let cardinal t = Core.cardinal t.core
  let elements t = Core.elements t.core
  let migrating t = Core.migrating t.core
  let check_invariants t = Core.check_invariants t.core

  let inspect t =
    Core.inspect t.core ~announce_pending:(Array.length (pending_ops t))
end

(** The tables whose buckets hold wait-free FSet objects (WFArray,
    WFList, Adaptive). *)
module Over_fset (F : Nbhash_fset.Fset_intf.WF) = struct
  module Protocol = struct
    include Table_core.Fset_slot (F)

    type 'v op = F.op
    type 'v action = Nbhash_fset.Fset_intf.kind
    type 'v result = bool

    let infinity_prio = F.infinity_prio
    let make_op = F.make_op
    let inert () = F.make_op Nbhash_fset.Fset_intf.Ins 0 ~prio:F.infinity_prio
    let op_key = F.op_key
    let op_prio = F.op_prio
    let op_result = F.get_response
    let invoke () buckets i op =
      F.invoke (get (Atomic.Array.get buckets i)) op
  end

  include Make (Protocol)

  (* CONTAINS (lines 11-18), as in the lock-free table: membership
     needs no announcement. *)
  let contains h k =
    let hn = Atomic.get h.table.core.Core.head in
    match Atomic.Array.get hn.Core.buckets (k land hn.Core.mask) with
    | Some b -> F.has_member b k
    | None -> F.has_member (Protocol.get (Core.lookup_slot hn k)) k
end

(** The tables whose bucket slots hold the Figure 6 node itself
    (AdaptiveOpt, Wf_hashmap): the LFArrayOpt flattening of section 8,
    with the per-bucket freeze-intent flags in a flat
    {!Atomic.Int_array} side block of the HNode. *)
module Over_nodes
    (K : Table_core.KEYS)
    (P : Nbhash_fset.Wf_node.PAYLOAD with type 'v elems = 'v K.elt array) =
struct
  module Node = Nbhash_fset.Wf_node.Make (P)

  module Protocol = struct
    include K

    type 'v slot = 'v Node.slot
    type side = Atomic.Int_array.t
    type 'v op = 'v Node.op
    type 'v action = 'v P.action
    type 'v result = 'v P.result

    let uninit = Node.Uninit
    let fresh = Node.fresh
    let make_side size = Atomic.Int_array.make size 0
    let freeze flags buckets i = Node.freeze ~flags buckets i

    let size = function
      | Node.N n -> Array.length n.elems
      | Node.Uninit -> assert false

    let contents = Node.contents
    let is_frozen = Node.is_frozen
    let infinity_prio = Node.infinity_prio
    let make_op = Node.make_op
    let inert = Node.inert
    let op_key (op : 'v op) = op.key
    let op_prio = Node.op_prio
    let op_result = Node.op_result
    let invoke flags buckets i op = Node.invoke ~flags buckets i op
  end

  include Make (Protocol)
end
