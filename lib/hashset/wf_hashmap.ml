module Atomic = Nbhash_util.Nb_atomic

type 'v action = Put of 'v | Del | Upd of ('v option -> 'v)

(* A bucket is the Figure 6 node over an immutable pair array; an
   operation's result is the key's previous binding. *)
module A =
  Announce.Over_nodes
    (Pairs.Keys)
    (struct
      type 'v elems = (int * 'v) array
      type nonrec 'v action = 'v action
      type 'v result = 'v option

      let prefix = "wf_hashmap"
      let placeholder = Del
      let absent = None

      let find pairs k =
        match Pairs.find pairs k with Some (_, v) -> Some v | None -> None

      let apply pairs k action ~prev =
        match action with
        | Put v -> Pairs.put pairs k v
        | Del -> (
          match Pairs.find pairs k with
          | Some (i, _) -> Pairs.remove pairs i
          | None -> pairs)
        | Upd f -> Pairs.put pairs k (f prev)
    end)

module Node = A.Node

type 'v t = 'v A.t
type 'v handle = 'v A.handle

let create ?policy ?max_threads () = A.create ?policy ?max_threads ()
let register = A.register
let unregister = A.unregister

let put h k v =
  Hashset_intf.check_key k;
  let prev = A.slow_apply h (Put v) k in
  A.after_insert h k ~resp:(Option.is_none prev);
  prev

let remove h k =
  Hashset_intf.check_key k;
  let prev = A.slow_apply h Del k in
  A.after_remove h ~resp:(Option.is_some prev);
  prev

let update h k f =
  Hashset_intf.check_key k;
  let prev = A.slow_apply h (Upd f) k in
  A.after_insert h k ~resp:(Option.is_none prev)

(* The lookup hot path reads the node in place, as in AdaptiveOpt. *)
let get h k =
  Hashset_intf.check_key k;
  let hn = Atomic.get h.A.table.A.core.A.Core.head in
  let s =
    match Atomic.Array.get hn.A.Core.buckets (k land hn.A.Core.mask) with
    | Node.Uninit -> A.Core.lookup_slot hn k
    | s -> s
  in
  match s with
  | Node.N n -> (
    match Atomic.get n.op with
    | Node.Pending op when op.key = k -> Node.member s k
    | Node.Empty | Node.Frozen | Node.Pending _ -> (
      match Pairs.find n.elems k with Some (_, v) -> Some v | None -> None))
  | Node.Uninit -> assert false

let mem h k = Option.is_some (get h k)
let bindings t = Array.to_list (A.elements t)
let cardinal = A.cardinal
let bucket_count = A.bucket_count
let resize_stats = A.resize_stats
let force_resize = A.force_resize
let bucket_sizes = A.bucket_sizes
let migrating = A.migrating
let pending_ops = A.pending_ops
let inspect = A.inspect
let check_invariants = A.check_invariants
