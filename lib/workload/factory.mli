(** Uniform, first-class access to every hash-set implementation, for
    benchmarks and cross-implementation tests.

    A {!table} packages one live structure behind closures so harness
    code can drive any implementation without functor plumbing; the
    per-operation indirect call taxes all implementations equally. *)

type ops = {
  ins : int -> bool;
  rem : int -> bool;
  look : int -> bool;
  force_resize : grow:bool -> unit;
  detach : unit -> unit;
      (** Release the handle ({!Nbhash.Hashset_intf.S.unregister}):
          flushes pending approximate-count deltas. Call when the
          thread is done with the bundle. *)
}
(** Per-thread operation bundle (wraps a registered handle). *)

type table = {
  name : string;
  new_handle : unit -> ops;
  bucket_count : unit -> int;
  cardinal : unit -> int;
  elements : unit -> int array;
  check_invariants : unit -> unit;
  resize_stats : unit -> Nbhash.Hashset_intf.resize_stats;
  bucket_sizes : unit -> int array;
  pending : unit -> (int * int) array;
      (** {!Nbhash.Hashset_intf.S.pending_ops}: the announce-array
          snapshot a {!Nbhash_telemetry.Watchdog} source samples. *)
  inspect : unit -> Nbhash.Hashset_intf.table_view;
      (** {!Nbhash.Hashset_intf.S.inspect}: the structural health
          snapshot behind the table's registered gauges. *)
  close : unit -> unit;
      (** Unregister the health gauges and watchdog source this table
          auto-registered at creation. Call when the table is retired;
          idempotent only in effect (a second call is a no-op because
          the registrations are already gone). A table dropped without
          [close] leaves stale gauges that keep it alive. *)
}

type maker = ?policy:Nbhash.Policy.t -> ?max_threads:int -> unit -> table

val attach :
  ?instance:string ->
  ?labels:(string * string) list ->
  name:string ->
  inspect:(unit -> Nbhash.Hashset_intf.table_view) ->
  pending:(unit -> (int * int) array) ->
  unit ->
  unit ->
  unit
(** Register a table's seven [nbhash_table_*] health gauges and its
    liveness-watchdog source; returns the thunk that unregisters them.
    Gauges are labeled [table=name], [instance] (a fresh sequence
    number unless given), then [labels]; the watchdog source is named
    [name#instance]. Every maker below calls it; the KV server calls
    it once per shard. *)

val of_module : (module Nbhash.Hashset_intf.S) -> maker

val adaptive_tuned : fast_threshold:int -> maker
(** The Adaptive (array) table with a custom Fastpath/Slowpath
    threshold, for the threshold ablation. *)

val all_eight : (string * maker) list
(** The eight algorithms of the paper's evaluation, in its order:
    SplitOrder, LFArray, LFArrayOpt, LFList, WFArray, WFList,
    Adaptive, AdaptiveOpt. *)

val all_nine : (string * maker) list
(** {!all_eight} plus LFFlat, the flat open-addressing variant added
    after the paper's evaluation (DESIGN.md System 17). *)

val with_michael : (string * maker) list
(** {!all_nine} plus the reference points outside the paper's
    evaluation: the fixed-size Michael table and the single-lock
    strawman. *)

val by_name : string -> maker
(** Raises [Not_found] for unknown names. *)
