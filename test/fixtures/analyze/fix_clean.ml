(* Positive control: shim-pointed atomics, CAS retry loops (on a cell
   and on a slot of the flat int array), and a reasoned allowlist
   attribute. The analyzer must report nothing. *)
module Atomic = Nbhash_util.Nb_atomic

let counter = Atomic.make 0

let rec add_loop delta =
  let cur = Atomic.get counter in
  if not (Atomic.compare_and_set counter cur (cur + delta)) then
    add_loop delta

let slots = Atomic.Int_array.make 4 0

let rec slot_add i delta =
  let cur = Atomic.Int_array.get slots i in
  if not (Atomic.Int_array.compare_and_set slots i cur (cur + delta)) then
    slot_add i delta

type stats = {
  mutable local_hits : int
      [@nbhash.plain_ok "per-domain scratch record, never published"];
}

let fresh_stats () = { local_hits = 0 }
