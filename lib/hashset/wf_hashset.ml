module Make (F : Nbhash_fset.Fset_intf.WF) : Hashset_intf.S = struct
  module A = Announce.Over_fset (F)

  type t = unit A.t
  type handle = unit A.handle

  let name =
    "WF"
    ^ String.capitalize_ascii
        (* F.id is "wf-array" / "wf-list"; strip the prefix. *)
        (match String.index_opt F.id '-' with
        | Some i -> String.sub F.id (i + 1) (String.length F.id - i - 1)
        | None -> F.id)

  let create ?policy ?max_threads () = A.create ?policy ?max_threads ()
  let register = A.register
  let unregister = A.unregister

  let insert h k =
    Hashset_intf.check_key k;
    let resp = A.slow_apply h Nbhash_fset.Fset_intf.Ins k in
    A.after_insert h k ~resp;
    resp

  let remove h k =
    Hashset_intf.check_key k;
    let resp = A.slow_apply h Nbhash_fset.Fset_intf.Rem k in
    A.after_remove h ~resp;
    resp

  let contains h k =
    Hashset_intf.check_key k;
    A.contains h k

  let bucket_count = A.bucket_count
  let resize_stats = A.resize_stats
  let bucket_sizes = A.bucket_sizes
  let force_resize = A.force_resize
  let cardinal = A.cardinal
  let elements = A.elements
  let check_invariants = A.check_invariants
  let inspect = A.inspect
  let pending_ops = A.pending_ops
end
