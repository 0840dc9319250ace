(* Seeded violation: the 4-argument compare_and_set of the shim's flat
   value array (array, index, old, new), result discarded with no
   retry branch and no [@nbhash.cas_ok]. *)
module Atomic = Nbhash_util.Nb_atomic

let slots = Atomic.Array.make 8 None
let claim i = ignore (Atomic.Array.compare_and_set slots i None (Some i))
