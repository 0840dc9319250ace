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

module type INT_ARRAY = sig
  type t = int_array

  val make : int -> int -> t
  val length : t -> int
  val get : t -> int -> int
  val compare_and_set : t -> int -> int -> int -> bool
  val set_private : t -> int -> int -> unit
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

external int_array_get : int array -> int -> int = "nbhash_int_array_get"
[@@noalloc]

external int_array_cas : int array -> int -> int -> int -> bool
  = "nbhash_int_array_cas"
[@@noalloc]

let[@inline] check_index a i =
  if i < 0 || i >= Array.length a then
    invalid_arg "Nb_atomic.Int_array: index out of bounds"

(* The backend-independent half of Int_array: allocation, length, and
   the plain store a node's builder makes while no other thread can
   see it. The store is not a scheduling point: nothing can observe a
   private node, so the checker need not interleave its set-up. *)
module Int_array_base = struct
  type t = int_array

  let make n v = Array.make n v
  let length = Array.length

  let set_private a i v =
    check_index a i;
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

    let[@inline] get a i =
      check_index a i;
      int_array_get a i

    let[@inline] compare_and_set a i old nw =
      check_index a i;
      int_array_cas a i old nw
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
      check_index a i;
      Effect.perform (Step Get);
      int_array_get a i

    let compare_and_set a i old nw =
      check_index a i;
      Effect.perform (Step Cas);
      int_array_cas a i old nw
  end
end

(* Raised only by the model checker, single-domain, around each
   explored execution; never written while real domains run, so the
   plain ref is race-free in production. *)
let tracing = ref false

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
    if !tracing then Traced.Int_array.get a i
    else begin
      check_index a i;
      int_array_get a i
    end

  let[@inline] compare_and_set a i old nw =
    if !tracing then Traced.Int_array.compare_and_set a i old nw
    else begin
      check_index a i;
      int_array_cas a i old nw
    end
end
