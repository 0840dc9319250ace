module Atomic = Nbhash_util.Nb_atomic
module Policy = Nbhash.Policy
module Tm = Nbhash_telemetry.Global
module Ev = Nbhash_telemetry.Event

(* File-scope so every Make instantiation shares one id per loop. *)
let site_freeze = Nbhash_telemetry.Site.register "generic_map/freeze_slot"
let site_stale = Nbhash_telemetry.Site.register "generic_map/stale_bucket"
let site_update = Nbhash_telemetry.Site.register "generic_map/update"

module Make (K : Hashtbl.HashedType) = struct
  type 'v bslot = Uninit | Node of { pairs : (K.t * 'v) array; ok : bool }

  let hash k = K.hash k land max_int

  let pairs_find pairs k =
    let n = Array.length pairs in
    let rec go i =
      if i >= n then None
      else begin
        let ki, v = pairs.(i) in
        if K.equal ki k then Some (i, v) else go (i + 1)
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

  module Slot = struct
    type 'v elt = K.t * 'v
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
    let hash ((k, _) : 'v elt) = hash k
    let same_key ((a, _) : 'v elt) ((b, _) : 'v elt) = K.equal a b

    let split pairs ~mask ~target =
      let keep p = hash p land mask = target in
      if Array.for_all keep pairs then pairs
      else Array.of_list (List.filter keep (Array.to_list pairs))

    let merge = Array.append
    let contents = function Uninit -> assert false | Node n -> n.pairs
    let size s = Array.length (contents s)
    let is_frozen = function Uninit -> assert false | Node n -> not n.ok
  end

  module Core = Nbhash.Table_core.Make (Slot)

  type 'v t = 'v Core.t
  type 'v handle = 'v Core.handle

  let create ?(policy = Policy.default) () = Core.create policy
  let register = Core.register
  let unregister = Core.unregister

  let rec with_bucket t k hk step =
    let hn = Atomic.get t.Core.head in
    let i = hk land hn.Core.mask in
    let buckets = hn.Core.buckets in
    match Atomic.Array.get buckets i with
    | Uninit ->
      Core.init_bucket hn i;
      with_bucket t k hk step
    | Node n as cur ->
      if not n.ok then begin
        Tm.cas_retry site_stale;
        with_bucket t k hk step
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
            with_bucket t k hk step
          end
      end

  let put h k v =
    let t = h.Core.table and hk = hash k in
    let prev =
      with_bucket t k hk (fun pairs ->
          let prev = Option.map snd (pairs_find pairs k) in
          (prev, Some (pairs_put pairs k v)))
    in
    Core.after_insert t h.Core.local ~key:hk ~resp:(Option.is_none prev);
    prev

  let remove h k =
    let t = h.Core.table in
    let prev =
      with_bucket t k (hash k) (fun pairs ->
          match pairs_find pairs k with
          | Some (i, v) -> (Some v, Some (pairs_remove pairs i))
          | None -> (None, None))
    in
    Core.after_remove t h.Core.local ~resp:(Option.is_some prev);
    prev

  let update h k f =
    let t = h.Core.table and hk = hash k in
    let was_absent =
      with_bucket t k hk (fun pairs ->
          let cur = Option.map snd (pairs_find pairs k) in
          (Option.is_none cur, Some (pairs_put pairs k (f cur))))
    in
    Core.after_insert t h.Core.local ~key:hk ~resp:was_absent

  let get h k =
    let hk = hash k in
    let hn = Atomic.get h.Core.table.Core.head in
    let pairs =
      match Atomic.Array.get hn.Core.buckets (hk land hn.Core.mask) with
      | Node n -> n.pairs
      | Uninit -> Slot.contents (Core.lookup_slot hn hk)
    in
    Option.map snd (pairs_find pairs k)

  let mem h k = Option.is_some (get h k)
  let bindings t = Array.to_list (Core.elements t)
  let cardinal = Core.cardinal
  let bucket_count = Core.bucket_count
  let force_resize = Core.force_resize
  let check_invariants = Core.check_invariants
end
