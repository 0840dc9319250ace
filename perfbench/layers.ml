(* Single-layer timings for the traced mode, each through the layer's
   public functions on one domain: freezable sets (Nbhash_fset), the
   wire codec (Protocol), the KV store (Backend) and the hash map under
   it (Nbhash.Hashmap). *)

open Common
module X = Nbhash_util.Xoshiro
module K = Nbhash_fset.Fset_intf

(* --- freezable sets at a given bucket depth --- *)

type fset =
  | Fset : {
      name : string;
      create : int array -> 's;
      has : 's -> int -> bool;
      update : 's -> K.kind -> int -> unit;
    }
      -> fset

let lf name (module M : K.S) =
  Fset
    {
      name;
      create = M.create;
      has = M.has_member;
      update = (fun s kind k -> ignore (M.invoke s (M.make_op kind k)));
    }

let wf name (module M : K.WF) =
  let prio = ref 0 in
  Fset
    {
      name;
      create = M.create;
      has = M.has_member;
      update =
        (fun s kind k ->
          incr prio;
          ignore (M.invoke s (M.make_op kind k ~prio:!prio)));
    }

let fset_name (Fset f) = f.name

let fsets =
  [
    lf "lf-array" (module Nbhash_fset.Lf_array_fset);
    lf "lf-flat" (module Nbhash_fset.Flat_fset);
    wf "wf-array" (module Nbhash_fset.Wf_array_fset);
  ]

let sets = 1024
let queries = 100_000
let rounds = 5

(* ns per [has_member] (half hits, half misses) and per update (an
   insert of an absent key and its removal, counted as two), each the
   median of [rounds] passes over 1024 sets holding [depth] keys. *)
let time_fset ~seed ~depth (Fset f) =
  let depth = max 1 (min 64 depth) in
  let key i j = ((i * 64) + j) * 2 in
  let ss = Array.init sets (fun i -> f.create (Array.init depth (key i))) in
  let rng = X.create seed in
  let qs = Array.init queries (fun _ -> X.below rng sets) in
  let ks = Array.map (fun i -> key i (X.below rng depth) + X.below rng 2) qs in
  let pass g =
    median
      (List.init rounds (fun _ ->
           let t0 = now () in
           g ();
           float_of_int (now () - t0)))
  in
  let contains =
    pass (fun () ->
        for q = 0 to queries - 1 do
          ignore (f.has ss.(qs.(q)) ks.(q))
        done)
    /. float_of_int queries
  in
  let update =
    pass (fun () ->
        for q = 0 to queries - 1 do
          let s = ss.(qs.(q)) and k = ks.(q) lor 1 in
          f.update s K.Ins k;
          f.update s K.Rem k
        done)
    /. float_of_int (2 * queries)
  in
  (contains, update)

(* --- the wire codec --- *)

let payload k = Kvwl.value k 1

(* ns per request encode+decode and per response encode+decode, over
   the KV mix (80% GET, 15% PUT, 5% DEL; half the GETs hit). *)
let time_codec ~seed =
  let module P = Nbhash_server.Protocol in
  let rng = X.create seed in
  let n = 4096 in
  let pairs =
    Array.init n (fun _ ->
        let r = X.below rng 20 and k = X.below rng Kvwl.keys in
        if r < 16 then (P.Get k, if X.bool rng then P.Value (payload k) else P.Not_found)
        else if r < 19 then (P.Put (k, payload k), P.Ok)
        else (P.Del k, P.Ok))
  in
  let per g =
    median
      (List.init rounds (fun _ ->
           let t0 = now () in
           for _ = 1 to 25 do
             Array.iter g pairs
           done;
           float_of_int (now () - t0) /. float_of_int (25 * n)))
  in
  let req = per (fun (q, _) -> ignore (P.request_of_payload (P.request_to_payload q))) in
  let resp = per (fun (_, a) -> ignore (P.response_of_payload (P.response_to_payload a))) in
  (req, resp)

(* --- a key-value layer driven with the KV mix, every call timed --- *)

type kv_ops = {
  get : int -> bool;  (* present? *)
  put : int -> unit;
  del : int -> bool;  (* was present? *)
}

(* Prefill half the keys (the KV workloads' seeded choice), then time
   [ops] calls: histograms for get, put, del. Checks each result
   against a model of the single-threaded store. *)
let time_kv ~seed ~ops (s : kv_ops) =
  let keys = Kvwl.keys in
  let present = Bytes.make keys '\000' in
  let order = shuffled ~seed keys in
  for j = 0 to (keys / 2) - 1 do
    s.put order.(j);
    Bytes.set present order.(j) '\001'
  done;
  let hs = Array.init 3 (fun _ -> Hist.create ()) in
  let rng = X.create (seed + 17) in
  for _ = 1 to ops do
    let r = X.below rng 20 and k = X.below rng keys in
    let was = Bytes.get present k = '\001' in
    let kind = if r < 16 then 0 else if r < 19 then 1 else 2 in
    let t0 = now () in
    let got =
      match kind with
      | 0 -> s.get k
      | 1 -> s.put k; was
      | _ -> s.del k
    in
    Hist.add hs.(kind) (now () - t0);
    if kind = 1 then Bytes.set present k '\001';
    if kind = 2 then Bytes.set present k '\000';
    attempt 1;
    if got <> was then fail "in-process kv op %d on key %d: presence %b, model %b" kind k got was
  done;
  hs

(* The server's store, in process: Backend with its defaults. Also
   returns the mean bucket depth of shard 0 after the timed calls, and
   4 migration windows: each shard forced to grow and then to shrink,
   each driven to completion ([force_resize] then [drain]). [drain]
   re-reads [inspect] after every sweep step, so these windows cost
   O(buckets^2 / chunk); at 4096 buckets a window is ~0.3 s. *)
let time_backend ~seed ~ops =
  let module B = Nbhash_server.Backend in
  let b = B.create ~kind:B.Lockfree ~shards:2 ~max_threads:2 () in
  let h = B.register b in
  let hs =
    time_kv ~seed ~ops
      {
        get = (fun k -> Option.is_some (B.get h k));
        put = (fun k -> B.put h k (payload k));
        del = (fun k -> B.del h k);
      }
  in
  let depth = (B.inspect_shard b 0).Nbhash.Hashset_intf.load_factor in
  let windows = Hist.create () in
  for i = 0 to 3 do
    let t0 = now () in
    B.force_resize h ~shard:(i land 1) ~grow:(i land 2 = 0);
    B.drain h;
    Hist.add windows (now () - t0)
  done;
  B.unregister h;
  B.close b;
  (hs, depth, windows)

(* The table layer under the server: one Hashmap with the Backend's
   policy. *)
let time_hashmap ~seed ~ops =
  let module M = Nbhash.Hashmap in
  let m = M.create ~policy:Nbhash_server.Backend.default_policy () in
  let h = M.register m in
  let hs =
    time_kv ~seed ~ops
      {
        get = (fun k -> Option.is_some (M.get h k));
        put = (fun k -> ignore (M.put h k (payload k)));
        del = (fun k -> Option.is_some (M.remove h k));
      }
  in
  M.unregister h;
  hs
