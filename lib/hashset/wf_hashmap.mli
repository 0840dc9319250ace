(** A wait-free dynamic-sized hash map: the {!Hashmap} extension with
    the announce-and-help protocol of the paper's section 5 applied to
    map operations.

    Buckets are cooperative wait-free FSetNodes over immutable
    (key, value) pair arrays — the Figure 6 protocol with the set
    payload generalized — and every [put]/[remove]/[update] is
    announced with a fetch-and-increment priority and helped by
    younger operations, so each completes in a bounded number of steps
    even under continuous resizing. [update]'s function may be run by
    helping threads and possibly more than once against the same
    state; it must be pure.

    Keys are non-negative ints below [2^61]; values arbitrary. Handles
    must not be shared between domains. *)

type 'v t
type 'v handle

val create : ?policy:Policy.t -> ?max_threads:int -> unit -> 'v t
val register : 'v t -> 'v handle

val unregister : 'v handle -> unit
(** Flush pending approximate-count deltas; the handle must not be
    used afterwards. *)

val put : 'v handle -> int -> 'v -> 'v option
(** Bind the key; returns the previous binding. *)

val get : 'v handle -> int -> 'v option
val mem : 'v handle -> int -> bool

val remove : 'v handle -> int -> 'v option
(** Unbind the key; returns the removed binding. *)

val update : 'v handle -> int -> ('v option -> 'v) -> unit
(** Atomically bind the key to [f] of its current binding. [f] must be
    pure (it may be evaluated several times, including by helpers). *)

val cardinal : 'v t -> int
val bucket_count : 'v t -> int
val resize_stats : 'v t -> Hashset_intf.resize_stats
val force_resize : 'v handle -> grow:bool -> unit

val bucket_sizes : 'v t -> int array
(** Per-bucket binding counts. Exact only in quiescent states. *)

val inspect : 'v t -> Hashset_intf.table_view
(** Structural health snapshot; see {!Hashset_intf.S.inspect}. *)

val migrating : 'v t -> bool
(** A resize is still being absorbed (the head has a predecessor):
    [(inspect t).migrating] in constant time. *)

val pending_ops : 'v t -> (int * int) array
(** Announced-but-incomplete operations as [(tid, priority)] pairs:
    the snapshot a {!Nbhash_telemetry.Watchdog} source samples; see
    {!Hashset_intf.S.pending_ops}. *)

val bindings : 'v t -> (int * 'v) list
(** Exact only in quiescent states. *)

val check_invariants : 'v t -> unit
