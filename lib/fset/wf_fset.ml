module Atomic = Nbhash_util.Nb_atomic

module Make (E : Elems.S) : Fset_intf.WF = struct
  module Node = Wf_node.Make (struct
    include Wf_node.Set_ops (E)

    let prefix = "wf_fset(" ^ E.id ^ ")"
  end)

  type op = unit Node.op
  (* The node and its freeze-intent flag, each in a 1-slot array: the
     cell layout of the tables' HNodes, so one node protocol serves
     both. *)
  type t = {
    node : unit Node.slot Atomic.Array.t;
    flag : Atomic.Int_array.t;
  }

  let id = "wf-" ^ E.id
  let infinity_prio = Node.infinity_prio

  let create elems =
    {
      node = Atomic.Array.make 1 (Node.fresh (E.of_array elems));
      flag = Atomic.Int_array.make 1 0;
    }

  let make_op = Node.make_op
  let op_kind (op : op) = op.action
  let op_key (op : op) = op.key
  let op_prio = Node.op_prio
  let op_is_done = Node.op_is_done

  (* The op's result is the key's previous membership. *)
  let get_response (op : op) =
    let prev = Node.op_result op in
    match op.action with Fset_intf.Ins -> not prev | Fset_intf.Rem -> prev

  let invoke t op = Node.invoke ~flags:t.flag t.node 0 op
  let freeze t = E.to_array (Node.freeze ~flags:t.flag t.node 0)
  let has_member t k = Node.member (Atomic.Array.get t.node 0) k
  let elements t = E.to_array (Node.contents (Atomic.Array.get t.node 0))

  let size t =
    match Atomic.Array.get t.node 0 with
    | Node.N n -> E.length n.elems
    | Node.Uninit -> assert false

  let is_frozen t = Node.is_frozen (Atomic.Array.get t.node 0)
end
