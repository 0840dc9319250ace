(** Atomics shim of the nonblocking libraries.

    The lock-free and wait-free code never touches [Stdlib.Atomic]
    directly (enforced by [dune build @lint]); it goes through this
    module, re-pointed per file as [module Atomic =
    Nbhash_util.Nb_atomic]. With {!tracing} false — the production
    default — every operation is [Stdlib.Atomic] behind one load and
    branch. With {!tracing} true, operations first perform the {!Step}
    effect, handing control to the cooperative scheduler of
    [Nbhash_check.Explore], which replays the same compiled code under
    chosen interleavings.

    [type 'a t] is a transparent alias of ['a Stdlib.Atomic.t], so
    values flow freely between shimmed and unshimmed code. *)

type 'a t = 'a Stdlib.Atomic.t

type int_array
(** A fixed-length array of atomic ints stored flat: one word per
    slot in one heap block, where an [int t array] costs a separate
    boxed [Atomic.t] per slot. Loads, CASes and fetch-and-adds are
    sequentially consistent, like the [Atomic.t] operations (C stubs;
    OCaml 5.1 has no atomic array-field primitive). Slots hold
    immediates only, so no write takes a write barrier. *)

type 'a atomic_array
(** A fixed-length array of atomic values stored flat: one word per
    slot in one heap block, where an ['a t array] costs a separate
    2-word [Atomic.t] box per slot (and, for an array in the major
    heap, one major-to-minor pointer per box that the next minor
    collection must remember and promote). Loads are the same seq_cst
    stub as {!int_array}'s; a CAS is the runtime's
    [caml_atomic_cas_field], the same call and write barrier as
    [Atomic.compare_and_set]. Always a tag-0 block, never a flat
    float array, whatever the element type. The table HNodes keep
    their buckets in one. *)

(** Operations on {!int_array}. Indices are bounds-checked; an index
    outside [\[0, length)] raises [Invalid_argument]. *)
module type INT_ARRAY = sig
  type t = int_array

  val make : int -> int -> t
  (** [make n v]: [n] slots, all [v]. *)

  val length : t -> int
  val get : t -> int -> int

  val compare_and_set : t -> int -> int -> int -> bool
  (** [compare_and_set a i old nw] sets slot [i] to [nw] iff it holds
      [old], and says whether it did. *)

  val fetch_and_add : t -> int -> int -> int
  (** [fetch_and_add a i n] adds [n] to slot [i] and returns the
      value the slot held before. *)

  val set_private : t -> int -> int -> unit
  (** A plain store, only for initializing an array no other thread
      can reach yet; publishing it through an atomic then carries the
      store. Not a scheduling point of the checker. *)
end

(** Operations on {!atomic_array}; the same contract as
    {!INT_ARRAY}, over any element type. Indices are bounds-checked;
    an index outside [\[0, length)] raises [Invalid_argument]. *)
module type ARRAY = sig
  type 'a t = 'a atomic_array

  val make : int -> 'a -> 'a t
  (** [make n v]: [n] slots, all [v]. A tag-0 block even when [v] is a
      float (where [Array.make] would build a flat float array). *)

  val length : 'a t -> int
  val get : 'a t -> int -> 'a

  val compare_and_set : 'a t -> int -> 'a -> 'a -> bool
  (** [compare_and_set a i old nw] sets slot [i] to [nw] iff it holds
      [old] (physical equality, as [Atomic.compare_and_set]), and says
      whether it did. *)

  val set_private : 'a t -> int -> 'a -> unit
  (** As {!INT_ARRAY.set_private}, but with the write barrier
      ([caml_modify]): the array may already be in the major heap
      when its builder fills it with fresh blocks. *)
end

(** The operations the nonblocking libraries are allowed to use; both
    backends satisfy it over the same representation. *)
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

(** What kind of atomic operation a scheduling point is about to run;
    shown in counterexample traces. *)
type label = Get | Set | Exchange | Cas | Fetch_and_add

val label_to_string : label -> string

type _ Effect.t += Step : label -> unit Effect.t
      (** Performed before each atomic operation when {!tracing} is
          on. The handler (the checker's scheduler) resumes the
          continuation when this thread is next scheduled; the
          operation then executes immediately, atomically with the
          resumption. *)

module Real : ATOMIC
(** Pass-through [Stdlib.Atomic], no flag check. *)

module Traced : ATOMIC
(** Always yields {!Step} first (also before each [Int_array] and
    [Array] get and CAS and each [Int_array] fetch-and-add, but not
    their [set_private]); only usable under a handler. *)

val tracing : bool ref
(** Model-checker hook. Only [Nbhash_check] should flip this, around a
    single-domain explored execution; it must be false whenever more
    than one domain is running. *)

(** The flag-switched default used by the libraries. *)

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
