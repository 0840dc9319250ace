(* The two in-process workloads: closed loops on two domains over
   tables built through Nbhash_workload.Factory with the default
   Policy. A run is a sequence of passes; a pass gives every variant
   one round, so slow drifts of the machine hit every variant alike.

   set-read   keys uniform over 2^16, each table prefilled to half, 90%
              lookups and 5%/5% inserts/removes (the paper's Fig. 7,
              L=90%). A round is 0.1 s of both domains on one table.
   set-resize each domain inserts its disjoint half of 2^17 keys, a
              barrier, then both remove them all: the grow-and-shrink
              lifecycle under the real Policy triggers. A round is one
              such cycle. *)

open Common
module F = Nbhash_workload.Factory
module Barrier = Nbhash_workload.Barrier
module X = Nbhash_util.Xoshiro

let read_variants = [ "LFArray"; "LFArrayOpt"; "LFFlat"; "WFArray"; "AdaptiveOpt" ]
let resize_variants = [ "LFArrayOpt"; "LFFlat" ]
let read_keys = 1 lsl 16
let resize_keys = 1 lsl 17
let read_round_ns = 100_000_000

(* Lookup, insert, remove: the index into per-kind histograms. *)
let kind_names = [| "look"; "ins"; "rem" |]

type variant = {
  name : string;
  tbl : F.table;
  handles : F.ops array;  (* handle [d] is only ever used by worker [d] *)
  rngs : X.t array;
  mutable inserted : int;  (* successful inserts, prefill included *)
  mutable removed : int;
}

let make_variant ~seed i name =
  let tbl = (F.by_name name) () in
  {
    name;
    tbl;
    handles = [| tbl.F.new_handle (); tbl.F.new_handle () |];
    rngs = Array.init 2 (fun d -> X.create ((seed * 7919) + (i * 31) + d));
    inserted = 0;
    removed = 0;
  }

(* What passes accumulate: latency of every timed op (per worker
   domain), the same split by kind when [traced], and each variant's
   ops/s per round. *)
type acc = {
  traced : bool;
  lat : Hist.t array;
  kinds : Hist.t array array;
  rates : float list array;
  mutable ops : int;
}

let new_acc ~traced variants =
  {
    traced;
    lat = Array.init 2 (fun _ -> Hist.create ());
    kinds = Array.init 2 (fun _ -> Array.init 3 (fun _ -> Hist.create ()));
    rates = Array.make (List.length variants) [];
    ops = 0;
  }

let note_round acc i ~ops ~rate =
  acc.rates.(i) <- rate :: acc.rates.(i);
  acc.ops <- acc.ops + ops

(* A summary of an accumulator: throughput is the geometric mean over
   the variants of each one's median round. *)
type phase = {
  throughput : float;  (* ops/s *)
  lat : Hist.t;
  kinds : Hist.t array;
  ops : int;
  per_variant : (string * float list) list;
}

let summary names (a : acc) =
  let per_variant = List.mapi (fun i n -> (n, a.rates.(i))) names in
  {
    throughput = geomean (List.map (fun (_, r) -> median r) per_variant);
    lat = Hist.merge (Array.to_list a.lat);
    kinds = Array.init 3 (fun k -> Hist.merge [ a.kinds.(0).(k); a.kinds.(1).(k) ]);
    ops = a.ops;
    per_variant;
  }

(* --- set-read --- *)

let build_read ~seed =
  let keys = shuffled ~seed read_keys in
  List.mapi
    (fun i name ->
      let v = make_variant ~seed i name in
      let h = v.handles.(0) in
      for j = 0 to (read_keys / 2) - 1 do
        if not (h.F.ins keys.(j)) then fail "%s prefill insert of %d" name keys.(j)
      done;
      attempt (read_keys / 2);
      v.inserted <- read_keys / 2;
      v)
    read_variants

(* One domain's share of a round: 1 op in 16 is timed. *)
let read_worker v (a : acc) ~barrier d =
  let h = v.handles.(d) and rng = v.rngs.(d) in
  let lat = a.lat.(d) and kinds = a.kinds.(d) in
  let ops = ref 0 and ins = ref 0 and rem = ref 0 in
  let[@inline] op () =
    let r = X.below rng 20 and k = X.below rng read_keys in
    if r < 18 then (ignore (h.F.look k); 0)
    else if r = 18 then ((if h.F.ins k then incr ins); 1)
    else ((if h.F.rem k then incr rem); 2)
  in
  Barrier.wait barrier;
  let t0 = now () in
  let deadline = t0 + read_round_ns in
  let t_end = ref t0 in
  while !t_end < deadline do
    for _ = 1 to 15 do
      ignore (op ())
    done;
    let t1 = now () in
    let kind = op () in
    let t2 = now () in
    Hist.add lat (t2 - t1);
    if a.traced then Hist.add kinds.(kind) (t2 - t1);
    ops := !ops + 16;
    t_end := t2
  done;
  (!ops, !t_end - t0, !ins, !rem)

let read_pass variants a =
  List.iteri
    (fun i v ->
      let barrier = Barrier.create 2 in
      let (o0, e0, i0, r0), (o1, e1, i1, r1) = par2 (read_worker v a ~barrier) in
      v.inserted <- v.inserted + i0 + i1;
      v.removed <- v.removed + r0 + r1;
      note_round a i ~ops:(o0 + o1) ~rate:(float_of_int (o0 + o1) /. s_of_ns (max e0 e1)))
    variants

(* The ledger: cardinal = prefill + successful inserts - successful
   removes, and the structural invariants hold. *)
let check_read variants =
  List.iter
    (fun v ->
      attempt 1;
      let want = v.inserted - v.removed and got = v.tbl.F.cardinal () in
      check (got = want) "%s cardinal %d, ledger says %d" v.name got want;
      match v.tbl.F.check_invariants () with
      | () -> ()
      | exception Failure msg -> fail "%s invariants: %s" v.name msg)
    variants

(* --- set-resize --- *)

(* Each domain's disjoint half of the keys. *)
type resize_input = { halves : int array array }

let resize_input ~seed =
  let keys = shuffled ~seed resize_keys in
  let half = resize_keys / 2 in
  { halves = [| Array.sub keys 0 half; Array.sub keys half half |] }

(* A drained table must shrink back to the policy floor. That floor
   is above [min_buckets]: the load-factor trigger reads an approximate
   count that can still hold up to [flush_threshold - 1] unflushed
   removals per handle, so a shrink is only certain while
   [shrink * buckets] exceeds that lag. *)
let floor_buckets =
  let module P = Nbhash.Policy in
  let p = P.default in
  match p.P.heuristic with
  | P.Load_factor { shrink; _ } ->
    let lag = float_of_int (2 * (P.Counter.flush_threshold - 1)) in
    let rec pow2 b = if float_of_int (2 * b) *. shrink <= lag then pow2 (2 * b) else b in
    max p.P.min_buckets (pow2 1)
  | P.Bucket_size _ -> p.P.min_buckets

(* Every op is timed. Returns the fill and drain times and how many
   inserts or removes returned [false]. *)
let resize_worker v inp (a : acc) ~barrier d =
  let h = v.handles.(d) and mine = inp.halves.(d) in
  let lat = a.lat.(d) and kinds = a.kinds.(d) in
  let bad = ref 0 in
  let timed f kind k =
    let t1 = now () in
    let ok = f k in
    let t2 = now () in
    Hist.add lat (t2 - t1);
    if a.traced then Hist.add kinds.(kind) (t2 - t1);
    if not ok then incr bad
  in
  Barrier.wait barrier;
  let t0 = now () in
  Array.iter (timed h.F.ins 1) mine;
  let fill = now () - t0 in
  Barrier.wait barrier;
  if d = 0 then begin
    attempt 1;
    let c = v.tbl.F.cardinal () in
    check (c = resize_keys) "%s cardinal %d after fill, want %d" v.name c resize_keys
  end;
  Barrier.wait barrier;
  let t1 = now () in
  Array.iter (timed h.F.rem 2) mine;
  (fill, now () - t1, !bad)

(* One cycle, checked: every insert and remove succeeded, the table is
   empty and back at its floor. Returns ops/s. *)
let resize_cycle v inp a =
  let barrier = Barrier.create 2 in
  let (f0, d0, b0), (f1, d1, b1) = par2 (resize_worker v inp a ~barrier) in
  attempt (2 * resize_keys);
  if b0 + b1 > 0 then
    fail ~n:(b0 + b1) "%s: %d inserts/removes returned false" v.name (b0 + b1);
  v.inserted <- v.inserted + resize_keys - b0 - b1;
  attempt 2;
  let c = v.tbl.F.cardinal () and b = v.tbl.F.bucket_count () in
  check (c = 0) "%s cardinal %d after drain" v.name c;
  check (b <= floor_buckets) "%s has %d buckets after drain, floor is %d" v.name b
    floor_buckets;
  float_of_int (2 * resize_keys) /. s_of_ns (max f0 f1 + max d0 d1)

(* Set-up: fresh tables plus one untimed warm-up cycle each. *)
let build_resize ~seed inp =
  let a = new_acc ~traced:false resize_variants in
  List.mapi
    (fun i name ->
      let v = make_variant ~seed i name in
      ignore (resize_cycle v inp a);
      v)
    resize_variants

let resize_pass inp variants a =
  List.iteri (fun i v -> note_round a i ~ops:(2 * resize_keys) ~rate:(resize_cycle v inp a)) variants

let check_resize variants =
  List.iter
    (fun v ->
      attempt 1;
      match v.tbl.F.check_invariants () with
      | () -> ()
      | exception Failure msg -> fail "%s invariants: %s" v.name msg)
    variants

(* set-resize performs no lookups; for the per-layer lookup timing
   (and the bucket depth the fset probe uses) fill each table once
   more, time one [look] per key from domain 0, and drain. *)
let resize_lookup_pass variants inp =
  let look = Hist.create () in
  let depths =
    List.map
      (fun v ->
        let h = v.handles.(0) in
        Array.iter (fun k -> ignore (h.F.ins k)) inp.halves.(0);
        Array.iter (fun k -> ignore (h.F.ins k)) inp.halves.(1);
        let view = v.tbl.F.inspect () in
        Array.iter
          (fun k ->
            let t1 = now () in
            let ok = h.F.look k in
            Hist.add look (now () - t1);
            attempt 1;
            if not ok then fail "%s lost key %d" v.name k)
          inp.halves.(0);
        Array.iter (fun k -> ignore (h.F.rem k)) inp.halves.(0);
        Array.iter (fun k -> ignore (h.F.rem k)) inp.halves.(1);
        view.Nbhash.Hashset_intf.load_factor)
      variants
  in
  (look, depths)
