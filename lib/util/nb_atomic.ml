(* The atomics shim of the nonblocking libraries.

   Every module in lib/fset, lib/hashset, lib/splitorder, lib/michael
   and lib/telemetry re-points its [Atomic] at this module
   (`module Atomic = Nbhash_util.Nb_atomic`); a lint (`dune build
   @lint`) rejects direct [Stdlib.Atomic] there. In production the
   shim is a pass-through: one load of [tracing] and a predictable
   branch per operation. Under the model checker ([Nbhash_check]) the
   flag is raised and every operation first performs the [Step]
   effect, yielding to a single-domain cooperative scheduler that
   decides which "thread" runs next — the same compiled code then
   executes deterministically under an explored schedule. *)

type 'a t = 'a Stdlib.Atomic.t

(* One word per slot, immediates only; see nb_atomic_stubs.c. *)
type int_array = int array

(* One word per slot, any value; a tag-0 block even for floats. *)
type 'a atomic_array = 'a array

module type INT_ARRAY = sig
  type t = int_array

  val make : int -> int -> t
  val length : t -> int
  val get : t -> int -> int
  val compare_and_set : t -> int -> int -> int -> bool
  val fetch_and_add : t -> int -> int -> int
  val set_private : t -> int -> int -> unit
end

module type ARRAY = sig
  type 'a t = 'a atomic_array

  val make : int -> 'a -> 'a t
  val length : 'a t -> int
  val get : 'a t -> int -> 'a
  val compare_and_set : 'a t -> int -> 'a -> 'a -> bool
  val set_private : 'a t -> int -> 'a -> unit
end

module type ATOMIC = sig
  type 'a t = 'a Stdlib.Atomic.t

  val make : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val exchange : 'a t -> 'a -> 'a
  val compare_and_set : 'a t -> 'a -> 'a -> bool
  val fetch_and_add : int t -> int -> int
  val incr : int t -> unit
  val decr : int t -> unit

  module Int_array : INT_ARRAY
  module Array : ARRAY
end

(* Operation labels, carried by the [Step] effect so counterexample
   traces can say what each scheduled step was about to do. *)
type label = Get | Set | Exchange | Cas | Fetch_and_add

let label_to_string = function
  | Get -> "get"
  | Set -> "set"
  | Exchange -> "exchange"
  | Cas -> "compare_and_set"
  | Fetch_and_add -> "fetch_and_add"

type _ Effect.t += Step : label -> unit Effect.t

(* Raised only by the model checker, single-domain, around each
   explored execution; never written while real domains run, so the
   plain ref is race-free in production. *)
let tracing = ref false

(* The slot stubs of the two flat arrays (nb_atomic_stubs.c). One
   seq_cst load serves both: it reads a word, whatever the word holds.
   The CASes differ: an int slot never holds a pointer, so its CAS
   (and its fetch-and-add) skips the write barrier that a value
   slot's CAS must take. *)
external slot_get : 'a array -> int -> 'a = "nbhash_int_array_get"
[@@noalloc]

external int_array_cas : int array -> int -> int -> int -> bool
  = "nbhash_int_array_cas"
[@@noalloc]

external int_array_fetch_add : int array -> int -> int -> int
  = "nbhash_int_array_fetch_add"
[@@noalloc]

external value_array_cas : 'a array -> int -> 'a -> 'a -> bool
  = "nbhash_value_array_cas"
[@@noalloc]

external value_array_make : int -> 'a -> 'a array = "nbhash_value_array_make"

(* The scaffolding both flat arrays share: the bounds check, the
   checker's [Step] before each load and CAS, and the backend switch,
   as a guard each access runs before its stub. A guard, not a
   wrapper taking the stub as an argument: without flambda a stub
   passed as a function value is called through [caml_apply], where
   after the guard it is a direct call. *)
module Slots = struct
  let[@inline] check_index a i =
    if i < 0 || i >= Array.length a then
      invalid_arg "Nb_atomic: slot index out of bounds"

  let[@inline] traced_guard label a i =
    check_index a i;
    Effect.perform (Step label)

  let[@inline] guard label a i =
    if !tracing then traced_guard label a i else check_index a i
end

(* The backend-independent halves: allocation, length, and the plain
   store a builder makes while no other thread can see the array. The
   store is not a scheduling point: nothing can observe a private
   array, so the checker need not interleave its set-up. An int
   slot's store needs no write barrier; a value slot's does
   ([caml_modify], the generic array store on a tag-0 block): the
   array may already be in the major heap when a builder fills it
   with fresh minor blocks. *)
module Int_array_base = struct
  type t = int_array

  let make n v = Array.make n v
  let length = Array.length

  let set_private a i v =
    Slots.check_index a i;
    Array.unsafe_set a i (v : int)
end

module Array_base = struct
  type 'a t = 'a atomic_array

  let make = value_array_make
  let length = Array.length

  let set_private a i v =
    Slots.check_index a i;
    Array.unsafe_set a i v
end

(* The production backend: [Stdlib.Atomic] verbatim. *)
module Real : ATOMIC = struct
  type 'a t = 'a Stdlib.Atomic.t

  let make = Stdlib.Atomic.make
  let get = Stdlib.Atomic.get
  let set = Stdlib.Atomic.set
  let exchange = Stdlib.Atomic.exchange
  let compare_and_set = Stdlib.Atomic.compare_and_set
  let fetch_and_add = Stdlib.Atomic.fetch_and_add
  let incr = Stdlib.Atomic.incr
  let decr = Stdlib.Atomic.decr

  module Int_array = struct
    include Int_array_base

    let get a i =
      Slots.check_index a i;
      slot_get a i

    let compare_and_set a i old nw =
      Slots.check_index a i;
      int_array_cas a i old nw

    let fetch_and_add a i n =
      Slots.check_index a i;
      int_array_fetch_add a i n
  end

  module Array = struct
    include Array_base

    let get a i =
      Slots.check_index a i;
      slot_get a i

    let compare_and_set a i old nw =
      Slots.check_index a i;
      value_array_cas a i old nw
  end
end

(* The checker backend: announce the operation as a scheduling point,
   then execute it for real once the scheduler resumes us. Because the
   scheduler is cooperative and single-domain, nothing can run between
   the resumption and the operation itself, so the yield-before-op
   protocol gives each atomic operation an exact place in the explored
   schedule. *)
module Traced : ATOMIC = struct
  type 'a t = 'a Stdlib.Atomic.t

  let make v = Stdlib.Atomic.make v

  let get r =
    Effect.perform (Step Get);
    Stdlib.Atomic.get r

  let set r v =
    Effect.perform (Step Set);
    Stdlib.Atomic.set r v

  let exchange r v =
    Effect.perform (Step Exchange);
    Stdlib.Atomic.exchange r v

  let compare_and_set r old nw =
    Effect.perform (Step Cas);
    Stdlib.Atomic.compare_and_set r old nw

  let fetch_and_add r n =
    Effect.perform (Step Fetch_and_add);
    Stdlib.Atomic.fetch_and_add r n

  let incr r =
    Effect.perform (Step Fetch_and_add);
    Stdlib.Atomic.incr r

  let decr r =
    Effect.perform (Step Fetch_and_add);
    Stdlib.Atomic.decr r

  module Int_array = struct
    include Int_array_base

    let get a i =
      Slots.traced_guard Get a i;
      slot_get a i

    let compare_and_set a i old nw =
      Slots.traced_guard Cas a i;
      int_array_cas a i old nw

    let fetch_and_add a i n =
      Slots.traced_guard Fetch_and_add a i;
      int_array_fetch_add a i n
  end

  module Array = struct
    include Array_base

    let get a i =
      Slots.traced_guard Get a i;
      slot_get a i

    let compare_and_set a i old nw =
      Slots.traced_guard Cas a i;
      value_array_cas a i old nw
  end
end

let[@inline] make v = Stdlib.Atomic.make v
let[@inline] get r = if !tracing then Traced.get r else Stdlib.Atomic.get r
let[@inline] set r v = if !tracing then Traced.set r v else Stdlib.Atomic.set r v

let[@inline] exchange r v =
  if !tracing then Traced.exchange r v else Stdlib.Atomic.exchange r v

let[@inline] compare_and_set r old nw =
  if !tracing then Traced.compare_and_set r old nw
  else Stdlib.Atomic.compare_and_set r old nw

let[@inline] fetch_and_add r n =
  if !tracing then Traced.fetch_and_add r n else Stdlib.Atomic.fetch_and_add r n

let[@inline] incr r = if !tracing then Traced.incr r else Stdlib.Atomic.incr r
let[@inline] decr r = if !tracing then Traced.decr r else Stdlib.Atomic.decr r

module Int_array = struct
  include Int_array_base

  let[@inline] get a i =
    Slots.guard Get a i;
    slot_get a i

  let[@inline] compare_and_set a i old nw =
    Slots.guard Cas a i;
    int_array_cas a i old nw

  let[@inline] fetch_and_add a i n =
    Slots.guard Fetch_and_add a i;
    int_array_fetch_add a i n
end

module Array = struct
  include Array_base

  let[@inline] get a i =
    Slots.guard Get a i;
    slot_get a i

  let[@inline] compare_and_set a i old nw =
    Slots.guard Cas a i;
    value_array_cas a i old nw
end
