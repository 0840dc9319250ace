(** The cooperative wait-free FSetNode of Figure 6, once for every
    wait-free bucket: the immutable entries plus an operation word
    [Empty | Frozen | Pending op], completed by any thread
    ([help_finish]), frozen behind a per-set intent flag ([freeze]),
    and entered by INVOKE.

    An operation is installed into the word by CAS (its linearization
    point); then any thread completes it by computing the successor
    entries, publishing the result, marking the operation done
    (priority becomes infinity, the abstract [done := true]) and
    swinging the node pointer. A node whose word is [Frozen] can never
    be replaced (replacement requires a completed [Pending]), so a
    freeze is permanent.

    A node lives in slot [i] of a flat {!Atomic.Array} of cells, its
    freeze-intent flag in slot [i] of an {!Atomic.Int_array} (0 down,
    1 raised): a table's HNode keeps every bucket's node and flag in
    two such blocks, and a standalone FSet holds 1-slot arrays.

    The functor is parameterised only by the payload: what a node
    holds and how an operation transforms it. Its types are
    transparent, so a table's lookup hot path can match [N n] and
    scan [n.elems] directly instead of calling through the functor
    argument (no flambda: such a call is never inlined). *)

module Atomic = Nbhash_util.Nb_atomic

module type PAYLOAD = sig
  type 'v elems
  (** The immutable entries of one node. ['v] is the value type of
      the maps; the sets ignore it. *)

  type 'v action
  type 'v result

  val prefix : string
  (** Names the two CAS-retry sites: [prefix ^ "/freeze"] and
      [prefix ^ "/invoke"]. *)

  val placeholder : 'v action
  (** The action of the inert (already done) operation that fills an
      empty announce slot; never applied. *)

  val absent : 'v result
  (** [find] of a key on no entries; the result before completion. *)

  val find : 'v elems -> int -> 'v result
  (** What the entries hold for a key: an operation's result is
      [find] on the entries it was applied to. *)

  val apply : 'v elems -> int -> 'v action -> prev:'v result -> 'v elems
  (** The successor entries, given [prev = find elems key]. Must be
      deterministic: every helper computes the same successor from the
      same (node, operation) pair. *)
end

(** The set payload over an element representation: the result of an
    insert or remove is whether the key was present before. *)
module Set_ops (E : Elems.S) = struct
  type 'v elems = E.t
  type 'v action = Fset_intf.kind
  type 'v result = bool

  let placeholder = Fset_intf.Ins
  let absent = false
  let find = E.mem

  let apply elems k kind ~prev =
    match kind with
    | Fset_intf.Ins -> if prev then elems else E.add elems k
    | Fset_intf.Rem -> if prev then E.remove elems k else elems
end

module Make (P : PAYLOAD) = struct
  module Tm = Nbhash_telemetry.Global
  module Ev = Nbhash_telemetry.Event

  let site_freeze = Nbhash_telemetry.Site.register (P.prefix ^ "/freeze")
  let site_invoke = Nbhash_telemetry.Site.register (P.prefix ^ "/invoke")
  let infinity_prio = max_int

  type 'v op = {
    key : int;
    action : 'v P.action;
    result : 'v P.result Atomic.t;
    prio : int Atomic.t;
  }

  type 'v word = Empty | Frozen | Pending of 'v op

  (* What a node cell holds. [Uninit] is the nil bucket of the
     tables; an FSet object's own cell never holds it. *)
  type 'v slot = Uninit | N of { elems : 'v P.elems; op : 'v word Atomic.t }

  let make_op action key ~prio =
    { key; action; result = Atomic.make P.absent; prio = Atomic.make prio }

  (* An already-done operation: the placeholder of an idle announce
     slot. *)
  let inert () = make_op P.placeholder 0 ~prio:infinity_prio
  let op_prio op = Atomic.get op.prio
  let op_result op = Atomic.get op.result
  let op_is_done op = op_prio op = infinity_prio
  let fresh elems = N { elems; op = Atomic.make Empty }

  (* Complete the pending operation of the node in cell [i], if any. All
     helpers compute the same (result, entries) from the same
     immutable (node, op) pair, so the racy writes below are
     idempotent; the node CAS succeeds for exactly one helper. *)
  let help_finish cells i =
    match Atomic.Array.get cells i with
    | Uninit -> ()
    | N n as cur -> (
      match Atomic.get n.op with
      | Empty | Frozen -> ()
      | Pending op ->
        let prev = P.find n.elems op.key in
        let elems = P.apply n.elems op.key op.action ~prev in
        Atomic.set op.result prev;
        Atomic.set op.prio infinity_prio;
        ignore (Atomic.Array.compare_and_set cells i cur (fresh elems))
        [@nbhash.cas_ok
          "helping: all helpers derive the same successor node from the \
           same immutable (node, op) pair; exactly one CAS installs it"])

  let rec do_freeze cells i =
    match Atomic.Array.get cells i with
    | Uninit -> assert false
    | N n -> (
      match Atomic.get n.op with
      | Frozen -> n.elems
      | Empty ->
        if Atomic.compare_and_set n.op Empty Frozen then begin
          Tm.emit Ev.Freeze;
          n.elems
        end
        else begin
          Tm.cas_retry site_freeze;
          do_freeze cells i
        end
      | Pending _ ->
        help_finish cells i;
        do_freeze cells i)

  (* FREEZE: raise the intent flag so in-flight invokers stand down,
     then latch [Frozen]; returns the final entries. *)
  let freeze ~flags cells i =
    ignore (Atomic.Int_array.compare_and_set flags i 0 1)
    [@nbhash.cas_ok
      "one-way 0 -> 1: a lost CAS means another freezer already raised \
       the flag"];
    do_freeze cells i

  (* INVOKE: [true] once [op] is applied (by anyone); [false] when the
     node froze first and [op] was not applied. A raised [flag] makes
     a pending freeze win over new operations. *)
  let rec invoke ~flags cells i op =
    if op_is_done op then true
    else begin
      match Atomic.Array.get cells i with
      | Uninit -> assert false
      | N n -> (
        match Atomic.get n.op with
        | Frozen -> op_is_done op
        | Empty | Pending _ ->
          if Atomic.Int_array.get flags i <> 0 then begin
            ignore (do_freeze cells i);
            op_is_done op
          end
          else begin
            match Atomic.get n.op with
            | Empty ->
              if op_is_done op then true
              else if Atomic.compare_and_set n.op Empty (Pending op) then begin
                help_finish cells i;
                true
              end
              else begin
                Tm.cas_retry site_invoke;
                invoke ~flags cells i op
              end
            | Frozen -> op_is_done op
            | Pending _ ->
              help_finish cells i;
              invoke ~flags cells i op
          end)
    end

  (* Logical entries of a node: an installed (hence linearized)
     pending operation is included. *)
  let contents = function
    | Uninit -> assert false
    | N n -> (
      match Atomic.get n.op with
      | Empty | Frozen -> n.elems
      | Pending op ->
        P.apply n.elems op.key op.action ~prev:(P.find n.elems op.key))

  (* The member check (HASMEMBER): [find] on the logical entries,
     computed without building them unless the pending operation is
     on [k]. *)
  let member s k =
    match s with
    | Uninit -> assert false
    | N n -> (
      match Atomic.get n.op with
      | Pending op when op.key = k ->
        P.find (P.apply n.elems k op.action ~prev:(P.find n.elems k)) k
      | Empty | Frozen | Pending _ -> P.find n.elems k)

  let is_frozen = function
    | Uninit -> assert false
    | N n -> (
      match Atomic.get n.op with Frozen -> true | Empty | Pending _ -> false)
end
