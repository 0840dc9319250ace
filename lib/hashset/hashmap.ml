module Atomic = Nbhash_util.Nb_atomic
module Tm = Nbhash_telemetry.Global
module Ev = Nbhash_telemetry.Event

let site_freeze = Nbhash_telemetry.Site.register "hashmap/freeze_slot"
let site_stale = Nbhash_telemetry.Site.register "hashmap/stale_bucket"
let site_update = Nbhash_telemetry.Site.register "hashmap/update"

(* The LFArrayOpt bucket layout, with pairs. *)
type 'v bslot = Uninit | Node of { pairs : (int * 'v) array; ok : bool }

module Slot = struct
  include Pairs.Keys

  type 'v slot = 'v bslot
  type side = unit

  let uninit = Uninit
  let fresh pairs = Node { pairs; ok = true }
  let make_side _ = ()

  let rec freeze_slot buckets i =
    match Atomic.Array.get buckets i with
    | Uninit -> assert false
    | Node n as cur ->
      if not n.ok then n.pairs
      else if
        Atomic.Array.compare_and_set buckets i cur
          (Node { pairs = n.pairs; ok = false })
      then begin
        Tm.emit Ev.Freeze;
        n.pairs
      end
      else begin
        Tm.cas_retry site_freeze;
        freeze_slot buckets i
      end

  let freeze () buckets j = freeze_slot buckets j
  let contents = function Uninit -> assert false | Node n -> n.pairs
  let size s = Array.length (contents s)
  let is_frozen = function Uninit -> assert false | Node n -> not n.ok
end

module Core = Table_core.Make (Slot)

type 'v t = 'v Core.t
type 'v handle = 'v Core.handle

let create ?(policy = Policy.default) () = Core.create policy
let register = Core.register
let unregister = Core.unregister

(* Apply [step] to the current mutable node of the bucket owning [k]:
   [step pairs] returns [None] to report without writing, or the
   replacement pair array. Returns [step]'s report. Retries across
   freezes and lost CASes. *)
let rec with_bucket t k step =
  let hn = Atomic.get t.Core.head in
  let i = k land hn.Core.mask in
  let buckets = hn.Core.buckets in
  match Atomic.Array.get buckets i with
  | Uninit ->
    Core.init_bucket hn i;
    with_bucket t k step
  | Node n as cur ->
    if not n.ok then begin
      Tm.cas_retry site_stale;
      with_bucket t k step
    end
    else begin
      let report, replacement = step n.pairs in
      match replacement with
      | None -> report
      | Some pairs ->
        if
          Atomic.Array.compare_and_set buckets i cur
            (Node { pairs; ok = true })
        then report
        else begin
          Tm.cas_retry site_update;
          with_bucket t k step
        end
    end

let put h k v =
  Hashset_intf.check_key k;
  let t = h.Core.table in
  let prev =
    with_bucket t k (fun pairs ->
        let prev = Option.map snd (Pairs.find pairs k) in
        (prev, Some (Pairs.put pairs k v)))
  in
  Core.after_insert t h.Core.local ~key:k ~resp:(Option.is_none prev);
  prev

let remove h k =
  Hashset_intf.check_key k;
  let t = h.Core.table in
  let prev =
    with_bucket t k (fun pairs ->
        match Pairs.find pairs k with
        | Some (i, v) -> (Some v, Some (Pairs.remove pairs i))
        | None -> (None, None))
  in
  Core.after_remove t h.Core.local ~resp:(Option.is_some prev);
  prev

let update h k f =
  Hashset_intf.check_key k;
  let t = h.Core.table in
  let was_absent =
    with_bucket t k (fun pairs ->
        let cur = Option.map snd (Pairs.find pairs k) in
        (Option.is_none cur, Some (Pairs.put pairs k (f cur))))
  in
  Core.after_insert t h.Core.local ~key:k ~resp:was_absent

let get h k =
  Hashset_intf.check_key k;
  let hn = Atomic.get h.Core.table.Core.head in
  let pairs =
    match Atomic.Array.get hn.Core.buckets (k land hn.Core.mask) with
    | Node n -> n.pairs
    | Uninit -> Slot.contents (Core.lookup_slot hn k)
  in
  Option.map snd (Pairs.find pairs k)

let mem h k = Option.is_some (get h k)
let bindings t = Array.to_list (Core.elements t)
let cardinal = Core.cardinal
let iter f t = List.iter (fun (k, v) -> f k v) (bindings t)
let fold f t init = List.fold_left (fun acc (k, v) -> f k v acc) init (bindings t)
let bucket_count = Core.bucket_count
let force_resize = Core.force_resize
let bucket_sizes = Core.bucket_sizes
let migrating = Core.migrating
let inspect t = Core.inspect t ~announce_pending:0
let pending_ops = Core.pending_ops
let check_invariants = Core.check_invariants
