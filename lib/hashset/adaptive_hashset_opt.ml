module Atomic = Nbhash_util.Nb_atomic
module Fset_intf = Nbhash_fset.Fset_intf

(* The buckets hold the Figure 6 node over int arrays; an operation's
   result is the key's previous membership. *)
module A =
  Announce.Over_nodes
    (Table_core.Int_keys)
    (struct
      include Nbhash_fset.Wf_node.Set_ops (Nbhash_fset.Elems.Array_rep)

      let prefix = "adaptive_opt"
    end)

module Node = A.Node

type t = unit A.t
type handle = unit A.handle

let name = "AdaptiveOpt"
let create_tuned = A.create
let create ?policy ?max_threads () = A.create ?policy ?max_threads ()
let register = A.register
let unregister = A.unregister
let slow_path_entries = A.slow_path_entries

let insert h k =
  Hashset_intf.check_key k;
  let resp = not (A.adaptive_apply h Fset_intf.Ins k) in
  A.after_insert h k ~resp;
  resp

let remove h k =
  Hashset_intf.check_key k;
  let resp = A.adaptive_apply h Fset_intf.Rem k in
  A.after_remove h ~resp;
  resp

(* The lookup hot path reads the node in place: the scan of its
   entries is a direct [Intset.mem], not a call through the node
   functor's payload. *)
let contains h k =
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
    | Node.Empty | Node.Frozen | Node.Pending _ ->
      Nbhash_fset.Intset.mem n.elems k)
  | Node.Uninit -> assert false

let bucket_count = A.bucket_count
let resize_stats = A.resize_stats
let bucket_sizes = A.bucket_sizes
let force_resize = A.force_resize
let cardinal = A.cardinal
let elements = A.elements
let check_invariants = A.check_invariants
let inspect = A.inspect
let pending_ops = A.pending_ops
