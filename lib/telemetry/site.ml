(* The static registry of instrumented retry points: one small-int id
   per textual CAS-loop/retry site, registered at module
   initialisation exactly like [Event] codes are fixed at compile
   time. The id is what hot paths carry — the probe's per-site retry
   cell and the profiler's gap-histogram index, the trace-record
   argument of every [Event.Cas_retry] instant, and the
   [site] label value of the exported per-site metric families all
   agree on it.

   Ids are never recycled and the table is append-only, so a reader
   holding an id can always resolve its name; registration is
   idempotent on the name, which makes functor bodies safe to
   instantiate more than once (the second instantiation finds the
   first one's id). Id 0 is the pre-registered "unknown" site: the
   destination of any emission that has not been re-pointed yet, which
   is exactly what the CI validator asserts stays at zero retries. *)

module Atomic = Nbhash_util.Nb_atomic

type t = int

(* Generous headroom over the current taxonomy (~25 sites); the
   probe's retry lanes and the [Profile] arrays are sized by this, so
   it is a capacity, not a count. Registration past the cap degrades
   to [unknown] instead of raising: an un-nameable site is an
   observability bug, not a correctness one. *)
let max_sites = 64

let unknown = 0

let names = Array.make max_sites ""

let () =
  (names.(0) <- "unknown")
  [@nbhash.plain_ok
    "module initialisation, before any domain can observe the table"]

(* Number of assigned ids (including [unknown]). Ids are reserved by
   fetch-and-add, and the name store that follows is a plain write:
   registration happens at module-init time, before worker domains
   exist, so a reader racing the name store is not a supported
   schedule. *)
let next = Atomic.make 1

let registered () = min (Atomic.get next) max_sites

let find name =
  let n = registered () in
  let rec go i =
    if i >= n then None else if names.(i) = name then Some i else go (i + 1)
  in
  go 0

let register name =
  if name = "" then unknown
  else
    match find name with
    | Some id -> id
    | None ->
      let id = Atomic.fetch_and_add next 1 in
      if id >= max_sites then unknown
      else begin
        (names.(id) <- name)
        [@nbhash.plain_ok
          "registration runs at module initialisation, before worker domains \
           spawn; the id is published to callers only after the name store"];
        id
      end

(* The slot an emission counts under: its own id, or [unknown] for an
   id outside the table (a stray value must not hit a neighbour). *)
let[@inline] clamp id = if id >= 0 && id < max_sites then id else unknown

let name id = if id >= 0 && id < registered () then names.(id) else "unknown"

(* Registered (id, name) pairs in id order. *)
let all () =
  let n = registered () in
  List.init n (fun i -> (i, names.(i)))
