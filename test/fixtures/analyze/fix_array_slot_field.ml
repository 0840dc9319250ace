(* Seeded violation: a plain mutable field of a record that is
   reachable only through a slot of the shim's flat value array
   ([Atomic.Array]), written without [@nbhash.plain_ok]. A slot of the
   array is as domain-shared as the payload of an [Atomic.t]. *)
module Atomic = Nbhash_util.Nb_atomic

type cell = { mutable hits : int }

let bump (slots : cell Atomic.Array.t) i =
  let c = Atomic.Array.get slots i in
  c.hits <- c.hits + 1
