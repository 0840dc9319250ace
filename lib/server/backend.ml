(* The server's pluggable store: an array of shard tables, each a
   whole dynamic-sized nonblocking hash map ({!Nbhash.Hashmap} or
   {!Nbhash.Wf_hashmap}), with keys routed to shards by a mixed hash.
   One shard ([--shards 1]) is the single-shared-table ablation; more
   shards bound both contention and the scope of any one migration (a
   resize freezes and copies one shard, not the whole key space).

   Each shard registers through Factory.attach: the same seven
   nbhash_table_* gauge families a Factory table gets (labels
   table=<backend>, instance=<seq>/<shard>, shard=<shard>) plus a
   liveness-watchdog source over its announce array, so a
   running server is observable with the existing /metrics + watchdog
   + `nbhash_cli top` stack unchanged. [close] unregisters them.

   Handles are per-domain (the wait-free map's announce slots require
   it): every server worker domain calls [register] once and keeps the
   bundle for its lifetime. *)

module Atomic = Nbhash_util.Nb_atomic

type kind = Lockfree | Waitfree

let kind_name = function Lockfree -> "lockfree" | Waitfree -> "waitfree"

let kind_of_string = function
  | "lockfree" | "lf" -> Some Lockfree
  | "waitfree" | "wf" -> Some Waitfree
  | _ -> None

type shard =
  | LF of string Nbhash.Hashmap.t
  | WF of string Nbhash.Wf_hashmap.t

type t = {
  kind : kind;
  shards : shard array;
  close_registrations : unit -> unit;
}

type shard_handle =
  | HLF of string Nbhash.Hashmap.handle
  | HWF of string Nbhash.Wf_hashmap.handle

type handle = { backend : t; hs : shard_handle array }

let shard_count t = Array.length t.shards
let kind t = t.kind

(* Distinguishes backends that coexist (tests, restarts) in gauge
   label sets, like Factory's instance counter. *)
let instance_seq = Atomic.make 0

let inspect_shard t i =
  match t.shards.(i) with
  | LF m -> Nbhash.Hashmap.inspect m
  | WF m -> Nbhash.Wf_hashmap.inspect m

let pending_shard t i =
  match t.shards.(i) with
  | LF m -> Nbhash.Hashmap.pending_ops m
  | WF m -> Nbhash.Wf_hashmap.pending_ops m

(* Each shard registers through [Factory.attach], instance
   [<seq>/<shard>] plus a [shard] label. *)
let attach t =
  let name = "kv-" ^ kind_name t.kind in
  let seq = Atomic.fetch_and_add instance_seq 1 in
  let regs =
    List.init (Array.length t.shards) (fun i ->
        Nbhash_workload.Factory.attach
          ~instance:(Printf.sprintf "%d/%d" seq i)
          ~labels:[ ("shard", string_of_int i) ]
          ~name
          ~inspect:(fun () -> inspect_shard t i)
          ~pending:(fun () -> pending_shard t i)
          ())
  in
  fun () -> List.iter (fun f -> f ()) regs

let default_policy = { Nbhash.Policy.default with init_buckets = 64 }

let create ?(policy = default_policy) ~kind ~shards ~max_threads () =
  if shards < 1 then invalid_arg "Backend.create: shards < 1";
  let mk _ =
    match kind with
    | Lockfree -> LF (Nbhash.Hashmap.create ~policy ())
    | Waitfree -> WF (Nbhash.Wf_hashmap.create ~policy ~max_threads ())
  in
  let t =
    { kind; shards = Array.init shards mk; close_registrations = Fun.id }
  in
  let close = attach t in
  { t with close_registrations = close }

let close t = t.close_registrations ()

let register t =
  {
    backend = t;
    hs =
      Array.map
        (function
          | LF m -> HLF (Nbhash.Hashmap.register m)
          | WF m -> HWF (Nbhash.Wf_hashmap.register m))
        t.shards;
  }

let unregister h =
  Array.iter
    (function
      | HLF m -> Nbhash.Hashmap.unregister m
      | HWF m -> Nbhash.Wf_hashmap.unregister m)
    h.hs

(* Key-to-shard routing: a multiplicative mix so adjacent keys spread
   across shards, folded positive before the modulus. *)
let[@inline] shard_of_key t k =
  let n = Array.length t.shards in
  if n = 1 then 0 else k * 0x9E3779B97F4A7C1 land max_int mod n

let get h k =
  match h.hs.(shard_of_key h.backend k) with
  | HLF m -> Nbhash.Hashmap.get m k
  | HWF m -> Nbhash.Wf_hashmap.get m k

let put h k v =
  match h.hs.(shard_of_key h.backend k) with
  | HLF m -> ignore (Nbhash.Hashmap.put m k v)
  | HWF m -> ignore (Nbhash.Wf_hashmap.put m k v)

let del h k =
  match h.hs.(shard_of_key h.backend k) with
  | HLF m -> Option.is_some (Nbhash.Hashmap.remove m k)
  | HWF m -> Option.is_some (Nbhash.Wf_hashmap.remove m k)

let cardinal t =
  Array.fold_left
    (fun acc -> function
      | LF m -> acc + Nbhash.Hashmap.cardinal m
      | WF m -> acc + Nbhash.Wf_hashmap.cardinal m)
    0 t.shards

let check_invariants t =
  Array.iter
    (function
      | LF m -> Nbhash.Hashmap.check_invariants m
      | WF m -> Nbhash.Wf_hashmap.check_invariants m)
    t.shards

let force_resize h ~shard ~grow =
  match h.hs.(shard) with
  | HLF m -> Nbhash.Hashmap.force_resize m ~grow
  | HWF m -> Nbhash.Wf_hashmap.force_resize m ~grow

let migrating_shard t i =
  match t.shards.(i) with
  | LF m -> Nbhash.Hashmap.migrating m
  | WF m -> Nbhash.Wf_hashmap.migrating m

(* Drive every shard's in-flight migration to completion: updates on
   reserved keys (at and above Protocol.max_key, which the wire
   protocol rejects from clients) participate in the cooperative sweep
   until the window closes. Each step re-checks the shard's
   constant-time [migrating] flag, not a full [inspect] census. The
   budget bounds a pathological spin; a shard that will not drain
   within it is a bug the caller's [migration_progress] assertion
   catches. *)
let drain h =
  Array.iteri
    (fun i sh ->
      let probe = Protocol.max_key + 1 + i in
      let budget = ref 2_000_000 in
      while migrating_shard h.backend i && !budget > 0 do
        (match sh with
        | HLF m ->
          ignore (Nbhash.Hashmap.put m probe "");
          ignore (Nbhash.Hashmap.remove m probe)
        | HWF m ->
          ignore (Nbhash.Wf_hashmap.put m probe "");
          ignore (Nbhash.Wf_hashmap.remove m probe));
        decr budget
      done)
    h.hs
