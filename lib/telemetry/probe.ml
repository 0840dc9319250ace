(* The sink interface of the telemetry layer. Call sites hold a
   [Probe.t] (in practice the ambient one from [Global]) and emit
   unconditionally; with the default [Noop] every entry point below is
   a single pattern match that falls through to [()] — no atomic
   write, no clock read, no allocation — so instrumentation can stay
   in the hot paths permanently. [Recording] routes counters into
   domain-sharded lanes and spans into sharded log2 histograms.

   CAS retries are counted once, per site: [retries] is a lane set
   with one cell per [Site.t], and the [cas_retry] total that
   snapshots and scrapes report is its sum, computed at read time. A
   bare [emit Event.Cas_retry] (no site) counts under [Site.unknown].

   Every entry point also forwards to the flight recorder ([Trace])
   before consulting the probe, so the same instrumentation sites feed
   both the aggregate view (this module) and the temporal one, and
   each can be switched on independently. With neither active, a site
   costs two loads and two branches. *)

type recorder = {
  counters : Counters.t;  (* every event but [Cas_retry] *)
  retries : Lanes.t;  (* per-site retry counts, indexed by [Site.t] *)
  spans : Histogram.t array;  (* indexed by Event.span_index *)
}

type t = Noop | Recording of recorder

let noop = Noop

let recording ?shards () =
  Recording
    {
      counters = Counters.make ?shards ();
      retries =
        Lanes.make ~name:"profile_retries" ?lanes:shards ~width:Site.max_sites ();
      spans =
        Array.init Event.span_count (fun i ->
            Histogram.make
              ~name:(Event.span_to_string (Event.span_of_index i))
              ?shards ());
    }

let is_recording = function Noop -> false | Recording _ -> true

let[@inline] count r ev n =
  match (ev : Event.t) with
  | Cas_retry -> Lanes.add r.retries Site.unknown n
  | _ -> Counters.add r.counters ev n

let[@inline] emit p ev =
  Trace.instant ev 0;
  match p with Noop -> () | Recording r -> count r ev 1

(* [emit] with an event-specific argument for the trace record (a key,
   an index); the counter side is identical. *)
let[@inline] emit_arg p ev arg =
  Trace.instant ev arg;
  match p with Noop -> () | Recording r -> count r ev 1

(* The site-attributed retry emission every CAS loop uses: the trace
   record's argument is the [Site.t] (so trace args decode uniformly
   as site ids), the profiler — when installed — observes the gap
   since this domain's previous retry at the site, and the probe
   counts the retry under its site. Disabled path: three loads, three
   branches, no allocation. *)
let[@inline] cas_retry p site =
  Trace.instant Event.Cas_retry site;
  Profile.on_retry site;
  match p with Noop -> () | Recording r -> Lanes.add r.retries (Site.clamp site) 1

let[@inline] add p ev n =
  Trace.instant ev n;
  match p with Noop -> () | Recording r -> count r ev n

(* The repo-wide clock (Nbhash_util.Clock): probe spans, trace records
   and the bench's latency samples all share its origin and units. *)
let clock_ns = Nbhash_util.Clock.now_ns

let[@inline] now_ns p = match p with Noop -> 0 | Recording _ -> clock_ns ()

(* Open a duration span: a trace Begin record plus, when recording,
   the histogram start timestamp (0 otherwise — [record_span] with a
   Noop probe ignores it). Must be closed by [record_span] or
   [span_abort] on the same domain. *)
let[@inline] span_begin p s =
  Trace.span_begin s;
  match p with Noop -> 0 | Recording _ -> clock_ns ()

let[@inline] record_span p s ~start_ns =
  Trace.span_end s;
  match p with
  | Noop -> ()
  | Recording r ->
    Histogram.observe r.spans.(Event.span_index s) (clock_ns () - start_ns)

(* Close a span without a histogram observation: the bracketed attempt
   did not run to completion (e.g. a resize whose head CAS lost), so
   its duration would pollute the distribution, but the trace Begin
   still needs balancing. *)
let[@inline] span_abort s = Trace.span_end s

(* Raw-value histogram observation, for span-typed events that are not
   durations (e.g. [Event.Sweep_helpers] participation counts). *)
let[@inline] observe p s v =
  match p with
  | Noop -> ()
  | Recording r -> Histogram.observe r.spans.(Event.span_index s) v

(* Per-site retry counts indexed by [Site.t]; all zero without a
   recording probe. *)
let site_retries = function
  | Noop -> Array.make Site.max_sites 0
  | Recording r -> Array.init Site.max_sites (Lanes.sum r.retries)

(* An event's total; [Cas_retry]'s is the sum over sites. *)
let total p ev =
  match (p, (ev : Event.t)) with
  | Noop, _ -> 0
  | Recording r, Cas_retry -> Lanes.total r.retries
  | Recording r, _ -> Counters.read r.counters ev

let snapshot = function
  | Noop -> Snapshot.zero
  | Recording r as p ->
    {
      Snapshot.counters =
        List.map (fun ev -> (Event.to_string ev, total p ev)) Event.all;
      spans =
        List.filter_map
          (fun s ->
            Option.map
              (fun summary -> (Event.span_to_string s, summary))
              (Histogram.summary r.spans.(Event.span_index s)))
          Event.all_spans;
    }

let reset = function
  | Noop -> ()
  | Recording r ->
    Counters.reset r.counters;
    Lanes.reset r.retries;
    Array.iter Histogram.reset r.spans
