module Make (F : Nbhash_fset.Fset_intf.WF) = struct
  module A = Announce.Over_fset (F)

  type t = unit A.t
  type handle = unit A.handle

  let name =
    "Adaptive"
    ^
    match String.index_opt F.id '-' with
    | Some i ->
      let rep = String.sub F.id (i + 1) (String.length F.id - i - 1) in
      if rep = "array" then "" else "-" ^ rep
    | None -> "-" ^ F.id

  let create_tuned = A.create
  let create ?policy ?max_threads () = A.create ?policy ?max_threads ()
  let register = A.register
  let unregister = A.unregister
  let slow_path_entries = A.slow_path_entries

  let insert h k =
    Hashset_intf.check_key k;
    let resp = A.adaptive_apply h Nbhash_fset.Fset_intf.Ins k in
    A.after_insert h k ~resp;
    resp

  let remove h k =
    Hashset_intf.check_key k;
    let resp = A.adaptive_apply h Nbhash_fset.Fset_intf.Rem k in
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
