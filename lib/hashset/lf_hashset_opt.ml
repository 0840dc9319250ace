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

module Slot = struct
  include Table_core.Int_keys

  type 'v slot = bslot
  type side = unit

  let uninit = Uninit
  let fresh elems = Node { elems; ok = true }
  let make_side _ = ()

  (* FREEZE on a flattened bucket: CAS the ok bit off in place. *)
  let rec freeze_slot buckets i =
    match Atomic.Array.get buckets i with
    | Uninit -> assert false
    | Node n as cur ->
      if not n.ok then n.elems
      else if
        Atomic.Array.compare_and_set buckets i cur
          (Node { elems = n.elems; ok = false })
      then begin
        Tm.emit Ev.Freeze;
        n.elems
      end
      else begin
        Tm.cas_retry site_freeze;
        freeze_slot buckets i
      end

  let freeze () buckets j = freeze_slot buckets j
  let contents = function Uninit -> assert false | Node n -> n.elems
  let size s = Array.length (contents s)
  let is_frozen = function Uninit -> assert false | Node n -> not n.ok
end

module Core = Table_core.Make (Slot)

type t = unit Core.t
type handle = unit Core.handle

let name = "LFArrayOpt"

let create ?(policy = Policy.default) ?max_threads () =
  ignore max_threads;
  Core.create policy

let register = Core.register
let unregister = Core.unregister

(* APPLY with the FSet INVOKE inlined against the slot: a frozen node
   or a lost CAS means a resize intervened, so re-resolve from the
   head. Redundant operations linearize at the node read, without a
   CAS. *)
let rec run_op t kind k =
  let hn = Atomic.get t.Core.head in
  let i = k land hn.Core.mask in
  let buckets = hn.Core.buckets in
  match Atomic.Array.get buckets i with
  | Uninit ->
    Core.init_bucket hn i;
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
          Atomic.Array.compare_and_set buckets i cur
            (Node { elems = Intset.add n.elems k; ok = true })
        then true
        else begin
          Tm.cas_retry site_add;
          run_op t kind k
        end
      | Nbhash_fset.Fset_intf.Rem ->
        if not present then false
        else if
          Atomic.Array.compare_and_set buckets i cur
            (Node { elems = Intset.remove n.elems k; ok = true })
        then true
        else begin
          Tm.cas_retry site_del;
          run_op t kind k
        end
    end

let insert h k =
  Hashset_intf.check_key k;
  let t = h.Core.table in
  let resp = run_op t Nbhash_fset.Fset_intf.Ins k in
  Core.after_insert t h.Core.local ~key:k ~resp;
  resp

let remove h k =
  Hashset_intf.check_key k;
  let t = h.Core.table in
  let resp = run_op t Nbhash_fset.Fset_intf.Rem k in
  Core.after_remove t h.Core.local ~resp;
  resp

let contains h k =
  Hashset_intf.check_key k;
  let hn = Atomic.get h.Core.table.Core.head in
  match Atomic.Array.get hn.Core.buckets (k land hn.Core.mask) with
  | Node n -> Intset.mem n.elems k
  | Uninit -> Intset.mem (Slot.contents (Core.lookup_slot hn k)) k

let bucket_count = Core.bucket_count
let resize_stats = Core.resize_stats
let bucket_sizes = Core.bucket_sizes
let force_resize = Core.force_resize
let cardinal = Core.cardinal
let elements = Core.elements
let check_invariants = Core.check_invariants
let inspect t = Core.inspect t ~announce_pending:0
let pending_ops = Core.pending_ops
