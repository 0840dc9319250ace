(* Seeded violation: the 4-argument compare_and_set of the shim's flat
   int array (array, index, old, new), result discarded with no retry
   branch and no [@nbhash.cas_ok]. *)
module Atomic = Nbhash_util.Nb_atomic

let slots = Atomic.Int_array.make 8 0
let claim i = ignore (Atomic.Int_array.compare_and_set slots i 0 1)

let claim2 i =
  let _ = Atomic.Int_array.compare_and_set slots i 1 2 in
  ()
