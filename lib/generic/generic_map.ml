module Atomic = Nbhash_util.Nb_atomic
module Policy = Nbhash.Policy
module Sweep = Nbhash.Sweep
module Tm = Nbhash_telemetry.Global

(* File-scope so every Make instantiation shares one id per loop. *)
let site_freeze = Nbhash_telemetry.Site.register "generic_map/freeze_slot"
let site_stale = Nbhash_telemetry.Site.register "generic_map/stale_bucket"
let site_update = Nbhash_telemetry.Site.register "generic_map/update"

module Make (K : Hashtbl.HashedType) = struct
  type 'v bslot = Uninit | Node of { pairs : (K.t * 'v) array; ok : bool }

  type 'v hnode = {
    buckets : 'v bslot Atomic.t array;
    size : int;
    mask : int;
    pred : 'v hnode option Atomic.t;
    sweep : Sweep.t;
  }

  type 'v t = {
    head : 'v hnode Atomic.t;
    policy : Policy.t;
    count : Policy.Counter.shared;
  }

  type 'v handle = { table : 'v t; local : Policy.Trigger.local }

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

  let pairs_filter_mask pairs ~mask ~target =
    let keep (k, _) = hash k land mask = target in
    let count = Array.fold_left (fun c p -> if keep p then c + 1 else c) 0 pairs in
    if count = Array.length pairs then pairs
    else begin
      let b = ref [] in
      Array.iter (fun p -> if keep p then b := p :: !b) pairs;
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
    Array.iter (fun b -> Atomic.set b (Node { pairs = [||]; ok = true })) hn.buckets;
    { head = Atomic.make hn; policy; count = Policy.Counter.make_shared () }

  let seed = Atomic.make 0x6e4
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
      if not n.ok then n.pairs
      else if
        Atomic.compare_and_set slot cur (Node { pairs = n.pairs; ok = false })
      then n.pairs
      else begin
        Tm.cas_retry site_freeze;
        freeze_slot slot
      end

  let slot_pairs slot =
    match Atomic.get slot with Uninit -> assert false | Node n -> n.pairs

  let init_bucket hn i =
    (match (Atomic.get hn.buckets.(i), Atomic.get hn.pred) with
    | Uninit, Some s ->
      let pairs =
        if hn.size = s.size * 2 then
          pairs_filter_mask
            (freeze_slot s.buckets.(i land s.mask))
            ~mask:hn.mask ~target:i
        else
          Array.append
            (freeze_slot s.buckets.(i))
            (freeze_slot s.buckets.(i + hn.size))
      in
      ignore
        (Atomic.compare_and_set hn.buckets.(i) Uninit (Node { pairs; ok = true }))
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

  let rec with_bucket t k hk step =
    let hn = Atomic.get t.head in
    let i = hk land hn.mask in
    let slot = hn.buckets.(i) in
    match Atomic.get slot with
    | Uninit ->
      init_bucket hn i;
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
          if Atomic.compare_and_set slot cur (Node { pairs; ok = true }) then
            report
          else begin
            Tm.cas_retry site_update;
            with_bucket t k hk step
          end
      end

  let slot_pair_count slot =
    match Atomic.get slot with
    | Uninit -> 0
    | Node n -> Array.length n.pairs

  let after_put h hk ~grew =
    Policy.Trigger.note_insert h.local ~resp:grew;
    let hn = Atomic.get h.table.head in
    help_migration h.table hn;
    if
      Policy.Trigger.want_grow h.table.policy h.local ~cur_buckets:hn.size
        ~migrating:(Atomic.get hn.pred <> None)
        ~inserted_bucket_size:
          (if Policy.reads_bucket_sizes h.table.policy then fun () ->
             slot_pair_count hn.buckets.(hk land hn.mask)
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
             slot_pair_count hn.buckets.(i)
           else Policy.unread_size)
    then resize h.table false

  let put h k v =
    let hk = hash k in
    let prev =
      with_bucket h.table k hk (fun pairs ->
          let prev = Option.map snd (pairs_find pairs k) in
          (prev, Some (pairs_put pairs k v)))
    in
    after_put h hk ~grew:(Option.is_none prev);
    prev

  let remove h k =
    let prev =
      with_bucket h.table k (hash k) (fun pairs ->
          match pairs_find pairs k with
          | Some (i, v) -> (Some v, Some (pairs_remove pairs i))
          | None -> (None, None))
    in
    after_remove h ~resp:(Option.is_some prev);
    prev

  let update h k f =
    let hk = hash k in
    let was_absent =
      with_bucket h.table k hk (fun pairs ->
          let cur = Option.map snd (pairs_find pairs k) in
          (Option.is_none cur, Some (pairs_put pairs k (f cur))))
    in
    after_put h hk ~grew:was_absent

  let get h k =
    let t = h.table in
    let hn = Atomic.get t.head in
    let i = hash k land hn.mask in
    let lookup pairs = Option.map snd (pairs_find pairs k) in
    match Atomic.get hn.buckets.(i) with
    | Node n -> lookup n.pairs
    | Uninit -> (
      match Atomic.get hn.pred with
      | Some s -> lookup (slot_pairs s.buckets.(hash k land s.mask))
      | None -> lookup (slot_pairs hn.buckets.(i)))

  let mem h k = Option.is_some (get h k)

  let bucket_pairs hn i =
    match Atomic.get hn.buckets.(i) with
    | Node n -> n.pairs
    | Uninit -> (
      match Atomic.get hn.pred with
      | Some s ->
        if hn.size = s.size * 2 then
          pairs_filter_mask
            (slot_pairs s.buckets.(i land s.mask))
            ~mask:hn.mask ~target:i
        else
          Array.append
            (slot_pairs s.buckets.(i))
            (slot_pairs s.buckets.(i + hn.size))
      | None -> slot_pairs hn.buckets.(i))

  let bindings t =
    let hn = Atomic.get t.head in
    List.concat_map
      (fun i -> Array.to_list (bucket_pairs hn i))
      (List.init hn.size Fun.id)

  let cardinal t = List.length (bindings t)
  let bucket_count t = (Atomic.get t.head).size
  let force_resize h ~grow = resize h.table grow

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
            (fun (k, _) ->
              if hash k land hn.mask <> i then
                fail "key hashed to %d misplaced in bucket %d" (hash k) i)
            n.pairs)
      hn.buckets;
    let all = bindings t in
    List.iteri
      (fun i (k, _) ->
        List.iteri
          (fun j (k', _) ->
            if i < j && K.equal k k' then fail "duplicate key at %d/%d" i j)
          all)
      all
end
