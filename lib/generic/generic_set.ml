module Atomic = Nbhash_util.Nb_atomic
module Policy = Nbhash.Policy
module Tm = Nbhash_telemetry.Global
module Ev = Nbhash_telemetry.Event

(* File-scope so every Make instantiation shares one id per loop. *)
let site_freeze = Nbhash_telemetry.Site.register "generic_set/freeze_slot"
let site_stale = Nbhash_telemetry.Site.register "generic_set/stale_bucket"
let site_add = Nbhash_telemetry.Site.register "generic_set/add"
let site_del = Nbhash_telemetry.Site.register "generic_set/del"

module Make (K : Hashtbl.HashedType) = struct
  type bslot = Uninit | Node of { elems : K.t array; ok : bool }

  let hash k = K.hash k land max_int

  let mem_elems elems k =
    let n = Array.length elems in
    let rec go i = i < n && (K.equal elems.(i) k || go (i + 1)) in
    go 0

  let add_elems elems k =
    let n = Array.length elems in
    let b = Array.make (n + 1) k in
    Array.blit elems 0 b 0 n;
    b

  let remove_elems elems k =
    let n = Array.length elems in
    let rec index i = if K.equal elems.(i) k then i else index (i + 1) in
    let i = index 0 in
    let b = Array.sub elems 0 (n - 1) in
    if i < n - 1 then b.(i) <- elems.(n - 1);
    b
  [@@nbhash.plain_ok
    "copy-on-write: [b] is freshly allocated here and stays private until \
     published by a bucket CAS"]

  module Slot = struct
    type 'v elt = K.t
    type 'v slot = bslot
    type side = unit

    let uninit = Uninit
    let fresh elems = Node { elems; ok = true }
    let make_side _ = ()

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

    let split elems ~mask ~target =
      let keep k = hash k land mask = target in
      if Array.for_all keep elems then elems
      else Array.of_list (List.filter keep (Array.to_list elems))

    let merge = Array.append
    let contents = function Uninit -> assert false | Node n -> n.elems
    let size s = Array.length (contents s)
    let is_frozen = function Uninit -> assert false | Node n -> not n.ok
    let hash = hash
    let same_key = K.equal
  end

  module Core = Nbhash.Table_core.Make (Slot)

  type t = unit Core.t
  type handle = unit Core.handle

  let create ?(policy = Policy.default) () = Core.create policy
  let register = Core.register
  let unregister = Core.unregister

  type kind = Add | Del

  let rec run_op t kind k h =
    let hn = Atomic.get t.Core.head in
    let i = h land hn.Core.mask in
    let buckets = hn.Core.buckets in
    match Atomic.Array.get buckets i with
    | Uninit ->
      Core.init_bucket hn i;
      run_op t kind k h
    | Node n as cur ->
      if not n.ok then begin
        Tm.cas_retry site_stale;
        run_op t kind k h
      end
      else begin
        let present = mem_elems n.elems k in
        match kind with
        | Add ->
          if present then false
          else if
            Atomic.Array.compare_and_set buckets i cur
              (Node { elems = add_elems n.elems k; ok = true })
          then true
          else begin
            Tm.cas_retry site_add;
            run_op t kind k h
          end
        | Del ->
          if not present then false
          else if
            Atomic.Array.compare_and_set buckets i cur
              (Node { elems = remove_elems n.elems k; ok = true })
          then true
          else begin
            Tm.cas_retry site_del;
            run_op t kind k h
          end
      end

  let add h k =
    let t = h.Core.table and hk = hash k in
    let resp = run_op t Add k hk in
    Core.after_insert t h.Core.local ~key:hk ~resp;
    resp

  let remove h k =
    let t = h.Core.table in
    let resp = run_op t Del k (hash k) in
    Core.after_remove t h.Core.local ~resp;
    resp

  let mem h k =
    let hk = hash k in
    let hn = Atomic.get h.Core.table.Core.head in
    match Atomic.Array.get hn.Core.buckets (hk land hn.Core.mask) with
    | Node n -> mem_elems n.elems k
    | Uninit -> mem_elems (Slot.contents (Core.lookup_slot hn hk)) k

  let elements t = Array.to_list (Core.elements t)
  let cardinal = Core.cardinal
  let bucket_count = Core.bucket_count
  let force_resize = Core.force_resize
  let check_invariants = Core.check_invariants
end
