(** Resize heuristics.

    The paper leaves the resize policy unspecified ("the choice of
    policy is orthogonal to the algorithm", section 4.1) and suggests
    per-bucket heuristics: grow when an insert finds its bucket larger
    than a threshold; shrink when the sizes of a few randomly sampled
    buckets all fall below a threshold. That heuristic is implemented
    as {!Bucket_size} — but it has no hysteresis: at steady state the
    occupancy tail always contains buckets above any fixed threshold,
    and resize storms can swamp useful work. The default is therefore
    {!Load_factor}: an approximate element counter (per-handle deltas
    flushed in batches, so it is not a synchronization bottleneck)
    compared against grow/shrink loads spaced far enough apart that a
    resize moves the load strictly inside the band. The A1 benchmark
    quantifies the difference. *)

module Atomic = Nbhash_util.Nb_atomic

type heuristic =
  | Bucket_size of {
      grow_threshold : int;
          (** an insert whose bucket reaches this size triggers a
              grow *)
      shrink_threshold : int;
          (** a shrink requires every sampled bucket to be strictly
              smaller than this *)
      shrink_samples : int;
      shrink_period : int;
          (** a shrink check runs once per this many removes (per
              thread); a power of two *)
    }
  | Load_factor of {
      grow : float;  (** grow when count > grow * buckets *)
      shrink : float;  (** shrink when count < shrink * buckets *)
    }

(** How the bucket migration that follows a resize is spread across
    threads. The paper migrates purely lazily: bucket [i] of the new
    HNode is initialized by whichever operation touches it first, so
    the whole rehash cost lands on the threads that happen to hit
    uninitialized buckets. With [eager = true] (the default), update
    operations passing through a table whose head still has a
    predecessor additionally claim one contiguous chunk of [chunk]
    bucket indices from a shared cursor and migrate it — cooperative
    work stealing in the style of DHash — with lazy [init_bucket]
    retained untouched as the correctness backstop. [max_helpers]
    bounds how many threads sweep concurrently (the resizing thread's
    final drain is exempt: it must always be able to finish alone).
    [eager = false] restores the paper-faithful behaviour exactly. *)
type migration = {
  eager : bool;  (** sweep cooperatively; [false] = paper-faithful lazy *)
  chunk : int;  (** bucket indices claimed per cursor fetch; >= 1 *)
  max_helpers : int;  (** concurrent sweeping threads bound; >= 1 *)
}

let default_migration = { eager = true; chunk = 8; max_helpers = 4 }

type t = {
  enabled : bool;  (** when [false], the table never resizes on its own *)
  heuristic : heuristic;
  min_buckets : int;  (** never shrink below this many buckets *)
  max_buckets : int;  (** never grow above this many buckets *)
  init_buckets : int;  (** initial bucket-array size; a power of two *)
  migration : migration;
}

let default =
  {
    enabled = true;
    heuristic = Load_factor { grow = 6.0; shrink = 1.5 };
    min_buckets = 1;
    max_buckets = 1 lsl 22;
    init_buckets = 1;
    migration = default_migration;
  }

(* The paper's per-bucket heuristic, with its suggested shape. *)
let bucket_size_default =
  {
    default with
    heuristic =
      Bucket_size
        {
          grow_threshold = 12;
          shrink_threshold = 3;
          shrink_samples = 4;
          shrink_period = 64;
        };
  }

(* The paper's throughput evaluation runs "in the absence of resizing
   operations": tables are presized and the policy disabled. *)
let presized buckets =
  {
    default with
    enabled = false;
    init_buckets = Nbhash_util.Bits.next_pow2 buckets;
  }

(* Eager growing and shrinking through the paper's heuristic;
   exercises the resize machinery hard in tests. *)
let aggressive =
  {
    enabled = true;
    heuristic =
      Bucket_size
        {
          grow_threshold = 3;
          shrink_threshold = 2;
          shrink_samples = 2;
          shrink_period = 4;
        };
    min_buckets = 1;
    max_buckets = 1 lsl 22;
    init_buckets = 1;
    migration = default_migration;
  }

(* The paper's migration discipline, unchanged: every bucket waits for
   its first toucher. Useful as the baseline arm of migration
   benchmarks and differential tests. *)
let lazy_migration p =
  { p with migration = { p.migration with eager = false } }

let validate p =
  if not (Nbhash_util.Bits.is_pow2 p.init_buckets) then
    invalid_arg "Policy: init_buckets must be a power of two";
  if p.min_buckets < 1 || p.max_buckets < p.min_buckets then
    invalid_arg "Policy: bucket bounds out of order";
  if p.init_buckets < p.min_buckets || p.init_buckets > p.max_buckets then
    invalid_arg "Policy: init_buckets outside [min_buckets, max_buckets]";
  if p.migration.chunk < 1 then invalid_arg "Policy: migration chunk < 1";
  if p.migration.max_helpers < 1 then
    invalid_arg "Policy: migration max_helpers < 1";
  match p.heuristic with
  | Bucket_size { shrink_samples; shrink_period; _ } ->
    if not (Nbhash_util.Bits.is_pow2 shrink_period) then
      invalid_arg "Policy: shrink_period must be a power of two";
    if shrink_samples < 1 then invalid_arg "Policy: shrink_samples < 1"
  | Load_factor { grow; shrink } ->
    if not (grow > 0. && shrink >= 0. && shrink < grow) then
      invalid_arg "Policy: need 0 <= shrink < grow";
    (* A grow at load [grow] lands at [grow/2]; a shrink at load
       [shrink] lands at [2*shrink]; both must stay inside the open
       band or the policy ping-pongs. *)
    if grow /. 2. <= shrink then
      invalid_arg "Policy: grow/shrink band too narrow (needs grow > 2*shrink)"

(* Whether the heuristic reads bucket sizes at all. Tables build the
   bucket-size callbacks of [Trigger.want_grow]/[want_shrink] only when
   it does and pass [unread_size] otherwise, so the default
   Load_factor update path allocates no closure. *)
let reads_bucket_sizes p =
  match p.heuristic with Bucket_size _ -> true | Load_factor _ -> false

let unread_size _ = 0

(* Approximate element counting: per-handle deltas are folded into the
   shared cell in batches, so hot paths touch no shared state on most
   operations and the count is only ever off by a small bounded
   amount. *)
module Counter = struct
  type shared = int Atomic.t
  type local = { shared : shared; mutable pending : int }

  let flush_threshold = 8

  let make_shared () = Atomic.make 0
  let make_local shared = { shared; pending = 0 }

  (* Fold any pending delta into the shared cell now. Without this, a
     handle that stops short of the ±threshold loses its deltas
     forever, and the approximate count drifts low under many
     short-lived handles; table handle teardown ([unregister]) calls
     it. *)
  let flush l =
    if l.pending <> 0 then begin
      ignore (Atomic.fetch_and_add l.shared l.pending);
      l.pending <- 0;
      Nbhash_telemetry.Global.emit Nbhash_telemetry.Event.Counter_flush
    end

  let note l delta =
    l.pending <- l.pending + delta;
    if abs l.pending >= flush_threshold then begin
      ignore (Atomic.fetch_and_add l.shared l.pending);
      l.pending <- 0;
      Nbhash_telemetry.Global.emit Nbhash_telemetry.Event.Counter_flush
    end

  let approx (s : shared) = Atomic.get s
end

(* The decision logic shared by every table implementation. Tables
   supply two callbacks: the size of the bucket an insert just landed
   in (for Bucket_size grows) and the size of the i-th bucket (for
   Bucket_size shrink sampling). *)
module Trigger = struct
  type local = {
    counter : Counter.local;
    rng : Nbhash_util.Xoshiro.t;
    mutable removes : int;
  }

  let make_local shared ~seed =
    {
      counter = Counter.make_local shared;
      rng = Nbhash_util.Xoshiro.create seed;
      removes = 0;
    }

  let note_insert l ~resp = if resp then Counter.note l.counter 1
  let note_remove l ~resp = if resp then Counter.note l.counter (-1)

  (* Handle teardown: push any pending count deltas to the shared
     cell so the load-factor heuristic keeps seeing them. *)
  let flush l = Counter.flush l.counter

  (* While a resize is still being absorbed (the head HNode has a
     predecessor), the shared count can lag behind reality by up to
     [flush_threshold - 1] per handle: the resize that just fired was
     decided on a count including this handle's deltas, but the deltas
     that arrived since remain pending. Evaluating the trigger on that
     stale estimate can re-arm it and fire a second resize sized for a
     table the first resize has already replaced. So when [migrating]
     the caller's pending deltas are flushed before the load factor is
     read; outside a migration the normal batching (and its bounded
     error) is kept — that is the whole point of the approximate
     counter. *)
  let want_grow p l ~cur_buckets ~migrating ~inserted_bucket_size =
    p.enabled
    && cur_buckets * 2 <= p.max_buckets
    && begin
         if migrating then Counter.flush l.counter;
         match p.heuristic with
         | Load_factor { grow; _ } ->
           Float.of_int (Counter.approx l.counter.Counter.shared)
           > grow *. Float.of_int cur_buckets
         | Bucket_size { grow_threshold; _ } ->
           inserted_bucket_size () >= grow_threshold
       end

  let want_shrink p l ~cur_buckets ~migrating ~sample_bucket_size =
    p.enabled && cur_buckets > 1
    && cur_buckets / 2 >= p.min_buckets
    && begin
         if migrating then Counter.flush l.counter;
         match p.heuristic with
         | Load_factor { shrink; _ } ->
           Float.of_int (Counter.approx l.counter.Counter.shared)
           < shrink *. Float.of_int cur_buckets
         | Bucket_size { shrink_threshold; shrink_samples; shrink_period; _ }
           ->
           l.removes <- (l.removes + 1) land (shrink_period - 1);
           l.removes = 0
           &&
           let all_small = ref true in
           for _ = 1 to shrink_samples do
             let i = Nbhash_util.Xoshiro.below l.rng cur_buckets in
             if sample_bucket_size i >= shrink_threshold then
               all_small := false
           done;
           !all_small
       end
end
