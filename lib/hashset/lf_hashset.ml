module Atomic = Nbhash_util.Nb_atomic

module Make (F : Nbhash_fset.Fset_intf.S) : Hashset_intf.S = struct
  module Slot = Table_core.Fset_slot (F)
  module Core = Table_core.Make (Slot)
  module Tm = Nbhash_telemetry.Global

  type t = unit Core.t
  type handle = unit Core.handle

  let name = "LF" ^ String.capitalize_ascii F.id
  let site_apply = Nbhash_telemetry.Site.register ("lf_hashset(" ^ F.id ^ ")/apply")

  let create ?(policy = Policy.default) ?max_threads () =
    ignore max_threads;
    Core.create policy

  let register = Core.register
  let unregister = Core.unregister

  (* APPLY (lines 29-37): retry against the current head until the
     operation lands in a mutable bucket. Each retry implies a resize
     completed in the interim. *)
  let rec apply t op k =
    let hn = Atomic.get t.Core.head in
    let i = k land hn.Core.mask in
    match Atomic.Array.get hn.Core.buckets i with
    | None ->
      Core.init_bucket hn i;
      apply t op k
    | Some b ->
      if F.invoke b op then F.get_response op
      else begin
        (* The bucket froze under us: a resize is being absorbed. *)
        Tm.cas_retry site_apply;
        apply t op k
      end

  let insert h k =
    Hashset_intf.check_key k;
    let t = h.Core.table in
    let resp = apply t (F.make_op Nbhash_fset.Fset_intf.Ins k) k in
    Core.after_insert t h.Core.local ~key:k ~resp;
    resp

  let remove h k =
    Hashset_intf.check_key k;
    let t = h.Core.table in
    let resp = apply t (F.make_op Nbhash_fset.Fset_intf.Rem k) k in
    Core.after_remove t h.Core.local ~resp;
    resp

  (* CONTAINS (lines 11-18): search the head bucket, or the bucket
     that answers for it while it is uninitialized. *)
  let contains h k =
    Hashset_intf.check_key k;
    let hn = Atomic.get h.Core.table.Core.head in
    match Atomic.Array.get hn.Core.buckets (k land hn.Core.mask) with
    | Some b -> F.has_member b k
    | None -> F.has_member (Slot.get (Core.lookup_slot hn k)) k

  let bucket_count = Core.bucket_count
  let resize_stats = Core.resize_stats
  let bucket_sizes = Core.bucket_sizes
  let force_resize = Core.force_resize
  let cardinal = Core.cardinal
  let elements = Core.elements
  let check_invariants = Core.check_invariants
  let inspect t = Core.inspect t ~announce_pending:0
  let pending_ops = Core.pending_ops
end
