module Atomic = Nbhash_util.Nb_atomic
module Policy = Nbhash.Policy
module Sweep = Nbhash.Sweep
module Tm = Nbhash_telemetry.Global

(* File-scope so every Make instantiation shares one id per loop. *)
let site_freeze = Nbhash_telemetry.Site.register "generic_set/freeze_slot"
let site_stale = Nbhash_telemetry.Site.register "generic_set/stale_bucket"
let site_add = Nbhash_telemetry.Site.register "generic_set/add"
let site_del = Nbhash_telemetry.Site.register "generic_set/del"

module Make (K : Hashtbl.HashedType) = struct
  type bslot = Uninit | Node of { elems : K.t array; ok : bool }

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
  }

  type handle = { table : t; local : Policy.Trigger.local }

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

  let filter_mask elems ~mask ~target =
    let keep k = hash k land mask = target in
    let count = Array.fold_left (fun c k -> if keep k then c + 1 else c) 0 elems in
    if count = Array.length elems then elems
    else begin
      let b = ref [] in
      Array.iter (fun k -> if keep k then b := k :: !b) elems;
      Array.of_list !b
    end

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
    Array.iter (fun b -> Atomic.set b (Node { elems = [||]; ok = true })) hn.buckets;
    { head = Atomic.make hn; policy; count = Policy.Counter.make_shared () }

  let seed = Atomic.make 0x9e1
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
      if not n.ok then n.elems
      else if
        Atomic.compare_and_set slot cur (Node { elems = n.elems; ok = false })
      then n.elems
      else begin
        Tm.cas_retry site_freeze;
        freeze_slot slot
      end

  let slot_elems slot =
    match Atomic.get slot with Uninit -> assert false | Node n -> n.elems

  let init_bucket hn i =
    (match (Atomic.get hn.buckets.(i), Atomic.get hn.pred) with
    | Uninit, Some s ->
      let elems =
        if hn.size = s.size * 2 then
          filter_mask (freeze_slot s.buckets.(i land s.mask)) ~mask:hn.mask
            ~target:i
        else
          Array.append
            (freeze_slot s.buckets.(i))
            (freeze_slot s.buckets.(i + hn.size))
      in
      ignore
        (Atomic.compare_and_set hn.buckets.(i) Uninit (Node { elems; ok = true }))
      [@nbhash.cas_ok
        "bucket init: racing initializers freeze the same predecessor slots \
         and build identical contents; the first CAS publishes"]
    | (Node _ | Uninit), _ -> ());
    ()

  (* Cooperative sweep hooks (see Nbhash.Sweep and Table_core). *)
  let sweep_migrate hn i = init_bucket hn i
  let sweep_complete hn =
    Atomic.set hn.pred None
    [@nbhash.cas_ok
      "one-way Some -> None: every writer publishes the same final value \
       once the sweep is complete"]

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
        Sweep.drain hn.sweep ~chunk:m.Policy.chunk
          ~migrate:sweep_migrate ~complete:sweep_complete hn;
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

  type kind = Add | Del

  let rec run_op t kind k h =
    let hn = Atomic.get t.head in
    let i = h land hn.mask in
    let slot = hn.buckets.(i) in
    match Atomic.get slot with
    | Uninit ->
      init_bucket hn i;
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
            Atomic.compare_and_set slot cur
              (Node { elems = add_elems n.elems k; ok = true })
          then true
          else begin
            Tm.cas_retry site_add;
            run_op t kind k h
          end
        | Del ->
          if not present then false
          else if
            Atomic.compare_and_set slot cur
              (Node { elems = remove_elems n.elems k; ok = true })
          then true
          else begin
            Tm.cas_retry site_del;
            run_op t kind k h
          end
      end

  let slot_size slot =
    match Atomic.get slot with
    | Uninit -> 0
    | Node n -> Array.length n.elems

  let after_add h hk ~resp =
    Policy.Trigger.note_insert h.local ~resp;
    let hn = Atomic.get h.table.head in
    help_migration h.table hn;
    if
      Policy.Trigger.want_grow h.table.policy h.local ~cur_buckets:hn.size
        ~migrating:(Atomic.get hn.pred <> None)
        ~inserted_bucket_size:
          (if Policy.reads_bucket_sizes h.table.policy then fun () ->
             slot_size hn.buckets.(hk land hn.mask)
           else Policy.unread_size)
    then resize h.table true

  let after_del h ~resp =
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

  let add h k =
    let hk = hash k in
    let resp = run_op h.table Add k hk in
    after_add h hk ~resp;
    resp

  let remove h k =
    let resp = run_op h.table Del k (hash k) in
    after_del h ~resp;
    resp

  let mem h k =
    let t = h.table in
    let hn = Atomic.get t.head in
    let i = hash k land hn.mask in
    match Atomic.get hn.buckets.(i) with
    | Node n -> mem_elems n.elems k
    | Uninit -> (
      match Atomic.get hn.pred with
      | Some s -> mem_elems (slot_elems s.buckets.(hash k land s.mask)) k
      | None -> mem_elems (slot_elems hn.buckets.(i)) k)

  let bucket_count t = (Atomic.get t.head).size
  let force_resize h ~grow = resize h.table grow

  let bucket_set hn i =
    match Atomic.get hn.buckets.(i) with
    | Node n -> n.elems
    | Uninit -> (
      match Atomic.get hn.pred with
      | Some s ->
        if hn.size = s.size * 2 then
          filter_mask
            (slot_elems s.buckets.(i land s.mask))
            ~mask:hn.mask ~target:i
        else
          Array.append
            (slot_elems s.buckets.(i))
            (slot_elems s.buckets.(i + hn.size))
      | None -> slot_elems hn.buckets.(i))

  let elements t =
    let hn = Atomic.get t.head in
    List.concat_map
      (fun i -> Array.to_list (bucket_set hn i))
      (List.init hn.size Fun.id)

  let cardinal t = List.length (elements t)

  let fail fmt = Format.kasprintf failwith fmt

  let check_invariants t =
    let hn = Atomic.get t.head in
    Array.iteri
      (fun i b ->
        match Atomic.get b with
        | Uninit -> (
          match Atomic.get hn.pred with
          | None -> fail "bucket %d uninit without predecessor" i
          | Some _ -> ())
        | Node n ->
          Array.iter
            (fun k ->
              if hash k land hn.mask <> i then
                fail "key hashed to %d misplaced in bucket %d" (hash k) i)
            n.elems)
      hn.buckets;
    let all = elements t in
    List.iteri
      (fun i k ->
        List.iteri
          (fun j k' ->
            if i < j && K.equal k k' then fail "duplicate key at %d/%d" i j)
          all)
      all
end
