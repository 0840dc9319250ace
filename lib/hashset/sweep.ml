(** The cooperative migration sweep (System 12 in DESIGN.md).

    A resize installs a new HNode whose buckets are all nil; the paper
    migrates them lazily, one [init_bucket] per first touch. This
    module spreads that work: each HNode carries a sweep state, and
    while the HNode still has a predecessor, update operations passing
    through the table claim contiguous chunks of bucket indices from
    the shared [cursor] and migrate them eagerly, work-stealing style.
    The lazy path is untouched and remains the correctness backstop —
    a chunk claim only ever replays the same idempotent
    freeze-then-CAS [init_bucket] step, so racing a claimed chunk
    against a lazy toucher (or another chunk) is benign: the CAS
    admits exactly one installer per bucket.

    Progress: the claimer of a chunk may stall indefinitely without
    blocking anyone. The cursor hands each index out once, but the
    resizing thread never waits for outstanding chunks — after
    draining the cursor it re-runs the idempotent migration loop over
    every index itself, so full migration completes without any help
    (the nonblocking progress argument of the paper's RESIZE is
    unchanged).

    Invariants, numbered continuing the paper's:
    - claim-then-freeze ordering: an index is frozen/migrated only
      after the cursor fetch that hands it out (or by the lazy/drain
      backstop); the cursor never retreats, so no index is claimed
      twice.
    - idempotent chunk replay: re-migrating an index already handled
      by the lazy path (or a racing chunk) is a no-op, because
      [init_bucket] re-checks nil before its install CAS.
    - early predecessor cut: when [processed] reaches [total], every
      bucket of the HNode is initialized, so clearing [pred] is
      exactly the Invariant 11 condition — the completing claimer may
      do it without waiting for the next resize. *)

module Atomic = Nbhash_util.Nb_atomic
module Tm = Nbhash_telemetry.Global
module Ev = Nbhash_telemetry.Event

type t = {
  cursor : int Atomic.t;  (** next unclaimed bucket index *)
  total : int;  (** bucket count of the HNode being migrated into *)
  active : int Atomic.t;  (** helpers currently inside a chunk *)
  processed : int Atomic.t;  (** indices whose chunk finished migrating *)
  claimers : int Atomic.t;
      (** bitmask of (domain id mod 62) over the domains that claimed
          at least one chunk — the participation measure *)
  completed : bool Atomic.t;  (** participation observed / pred cut done *)
}

let make ~total =
  {
    cursor = Atomic.make 0;
    total;
    active = Atomic.make 0;
    processed = Atomic.make 0;
    claimers = Atomic.make 0;
    completed = Atomic.make false;
  }

let exhausted t = Atomic.get t.cursor >= t.total

let note_claimer t =
  let bit = 1 lsl ((Domain.self () :> int) mod 62) in
  let rec set () =
    let cur = Atomic.get t.claimers in
    if cur land bit = 0 && not (Atomic.compare_and_set t.claimers cur (cur lor bit))
    then set ()
  in
  set ()

let popcount =
  let rec go acc v = if v = 0 then acc else go (acc + (v land 1)) (v lsr 1) in
  go 0

(* Number of distinct domains that have claimed at least one chunk so
   far (modulo the 62-bit fold, which only ever under-counts). *)
let claimant_count t = popcount (Atomic.get t.claimers)

(* First caller wins; records how many distinct domains took part.
   Claimed-chunk completion and the resizer's drain both race here, so
   participation is observed exactly once per migration. *)
let observe_participation t =
  if
    Atomic.get t.claimers <> 0
    && Atomic.compare_and_set t.completed false true
  then Tm.observe Ev.Sweep_helpers (claimant_count t)

(* Claim one chunk of [chunk] indices and migrate it with the
   idempotent per-index [migrate ctx i]. Returns [false] iff the cursor
   was already exhausted. [complete ctx] fires on the call that
   processes the last outstanding index — every bucket is then
   initialized, so the caller may cut the predecessor loose early.

   The context-passing shape is for the hot path: the table passes its
   HNode as [ctx] and two top-level functions as [migrate] and
   [complete], so a call allocates nothing, where closures over the
   HNode would be built by every update passing through. *)
let claim_chunk t ~chunk ~migrate ~complete ctx =
  let start = Atomic.fetch_and_add t.cursor chunk in
  if start >= t.total then false
  else begin
    let stop = min t.total (start + chunk) in
    Tm.emit_arg Ev.Sweep_chunk_claimed start;
    note_claimer t;
    let start_ns = Tm.span_begin Ev.Sweep_span in
    for i = start to stop - 1 do
      migrate ctx i
    done;
    Tm.add Ev.Sweep_buckets_migrated (stop - start);
    Tm.record_span Ev.Sweep_span ~start_ns;
    (* Attribute this chunk's duration to the claiming domain so the
       KV server can charge migration help to the request that did it
       (server_help_ns). [start_ns] is 0 iff no probe is recording, in
       which case nothing was timed and nothing is attributed. *)
    if start_ns <> 0 then
      Nbhash_telemetry.Helptime.add (Nbhash_util.Clock.now_ns () - start_ns);
    let processed = stop - start in
    if Atomic.fetch_and_add t.processed processed + processed = t.total
    then begin
      complete ctx;
      observe_participation t
    end;
    true
  end

(* One helping step, called from operations passing through a
   migrating table: claim at most one chunk, bounded to [max_helpers]
   concurrent sweepers. Over- then under-counting [active] around the
   capacity check is the standard optimistic pattern: a burst may
   momentarily read over the cap and simply decline to help. *)
let help t ~chunk ~max_helpers ~migrate ~complete ctx =
  if not (exhausted t) then begin
    let n = Atomic.fetch_and_add t.active 1 in
    if n < max_helpers then
      ignore (claim_chunk t ~chunk ~migrate ~complete ctx);
    ignore (Atomic.fetch_and_add t.active (-1))
  end

(* The resizing thread's share: claim everything still on the cursor.
   Not subject to [max_helpers] — the resizer must be able to finish
   the migration alone. In-flight chunks of stalled helpers are NOT
   waited for; the caller must follow with its own idempotent
   full-table migration loop. *)
let drain t ~chunk ~migrate ~complete ctx =
  while claim_chunk t ~chunk ~migrate ~complete ctx do
    ()
  done

(* Resizer epilogue, after its catch-up loop: make sure participation
   is observed even when a stalled helper still holds the last chunk
   (its own completion attempt will then lose the [completed] CAS). *)
let finish t = observe_participation t
