(* OpenMetrics/Prometheus text rendering of the ambient probe plus the
   gauge, labeled-histogram and profiler registries: one counter
   family per Event, one histogram family per span, one gauge family
   per registered gauge name. The body ends with "# EOF" as the
   OpenMetrics 1.0 spec requires.

   Counters must be monotone from a scraper's point of view, but the
   probe is not: Runner.run resets it at every trial's measurement
   barrier, and the bench clears the flight recorder between sections.
   The accumulators below detect a reset (a raw reading below the
   previous one) and fold the pre-reset total into a base, so the
   exported series only ever grows; with no probe or trace installed
   the readings are zero, which folds the same way. They are plain
   mutable arrays: rendering is assumed single-scraper (the metrics
   server serializes scrapes on its own domain), which is the
   standard Prometheus deployment shape. The profiler's gap
   histograms and allocation words are never reset, nor are labeled
   families, so those render raw. *)

module Json = Nbhash_util.Json

let histogram_buckets = Histogram.buckets

type accumulator = { base : int array; last : int array }

let accumulator n = { base = Array.make n 0; last = Array.make n 0 }

let ctr = accumulator Event.count
let hbk = accumulator (Event.span_count * histogram_buckets)
let site_ctr = accumulator Site.max_sites

(* Flight-recorder loss: slot 0 overwritten, 1 torn. *)
let trc = accumulator 2

let monotone acc i raw =
  if raw < acc.last.(i) then acc.base.(i) <- acc.base.(i) + acc.last.(i);
  acc.last.(i) <- raw;
  acc.base.(i) + raw
[@@nbhash.plain_ok
  "the accumulators are owned by the single scraping thread; workers only \
   ever touch their own probe cells"]

(* For tests: forget accumulated bases so a fresh probe reads from
   zero again. Not part of the scrape path. *)
let reset_accumulators () =
  List.iter
    (fun acc ->
      Array.fill acc.base 0 (Array.length acc.base) 0;
      Array.fill acc.last 0 (Array.length acc.last) 0)
    [ ctr; hbk; site_ctr; trc ]
[@@nbhash.plain_ok
  "test-only reset, called while no scraper is running; the accumulators \
   are owned by the single scraping thread"]

let escape_help s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let escape_label_value s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let label_set labels =
  match labels with
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
           labels)
    ^ "}"

let counter_help ev =
  match (ev : Event.t) with
  | Cas_retry -> "Operations that re-ran a CAS loop (lost CAS or frozen node)"
  | Bucket_init -> "Lazy bucket migrations that installed a new head bucket"
  | Keys_migrated -> "Keys copied into freshly initialized buckets"
  | Freeze -> "Buckets transitioned to the frozen (immutable) state"
  | Resize_grow -> "Head HNode replacements by a double-sized one"
  | Resize_shrink -> "Head HNode replacements by a half-sized one"
  | Help_op -> "Announced operations driven by the helping scan"
  | Slowpath_entry -> "Operations that entered the announce-and-help slow path"
  | Fastpath_entry -> "Adaptive operations that entered the lock-free fast path"
  | Counter_flush -> "Per-handle approximate-count delta batches flushed"
  | Contains_pred -> "CONTAINS lookups that fell back to a predecessor bucket"
  | Sweep_chunk_claimed -> "Bucket chunks claimed from the sweep cursor"
  | Sweep_buckets_migrated -> "Buckets processed by cooperative sweep chunks"
  | Server_conn -> "Client connections accepted by the KV server"
  | Server_request -> "Request frames answered by the KV server"
  | Server_error -> "Protocol errors answered by the KV server"
  | Server_slow -> "Requests captured into the slow-request log"

let span_help s =
  match (s : Event.span) with
  | Resize_span -> "RESIZE duration, nanoseconds"
  | Slowpath_span -> "Announce-and-help slow path duration, nanoseconds"
  | Sweep_span -> "Sweep chunk migration duration, nanoseconds"
  | Sweep_helpers -> "Distinct domains that claimed chunks during one migration"
  | Server_span -> "KV server request service time (read to reply), nanoseconds"
  | Probe_len -> "Linear-probe distances at flat-FSet insert/remove linearization"
  | Server_read_span -> "KV server frame-read stage, nanoseconds"
  | Server_decode_span -> "KV server request-decode stage, nanoseconds"
  | Server_shard_span -> "KV server shard-operation stage, nanoseconds"
  | Server_help_span -> "Migration help performed inside one request, nanoseconds"
  | Server_write_span -> "KV server reply-write stage, nanoseconds"

let family_header b ~kind family help =
  Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" family kind);
  if help <> "" then
    Buffer.add_string b
      (Printf.sprintf "# HELP %s %s\n" family (escape_help help))

(* One histogram series: cumulative buckets up to the last non-empty
   one, then +Inf, sum and count. [labels] identify the series within
   its family; the [le] bound goes last, after them, which is also
   what keeps bucket lines distinct across the series of a family. *)
let histogram_series b family labels counts =
  let last_nonempty = ref (-1) in
  Array.iteri (fun i c -> if c > 0 then last_nonempty := i) counts;
  let bucket le cum =
    Buffer.add_string b
      (Printf.sprintf "%s_bucket%s %d\n" family
         (label_set (labels @ [ ("le", le) ]))
         cum)
  in
  let cum = ref 0 in
  let sum = ref 0. in
  for i = 0 to !last_nonempty do
    cum := !cum + counts.(i);
    sum := !sum +. (float_of_int counts.(i) *. Histogram.representative i);
    bucket (Json.number (Float.ldexp 1. (i + 1))) !cum
  done;
  bucket "+Inf" !cum;
  let labels = label_set labels in
  Buffer.add_string b
    (Printf.sprintf "%s_sum%s %s\n" family labels (Json.number !sum));
  Buffer.add_string b (Printf.sprintf "%s_count%s %d\n" family labels !cum)

let render_counters b probe =
  let sites = Probe.site_retries probe in
  List.iter
    (fun ev ->
      let i = Event.index ev in
      let v = monotone ctr i (Probe.total probe ev) in
      let family = "nbhash_" ^ Event.to_string ev in
      family_header b ~kind:"counter" family (counter_help ev);
      Buffer.add_string b (Printf.sprintf "%s_total %d\n" family v);
      (* The site-labeled breakdown of the retry counter lives inside
         the same family block: the unlabeled series is the total, the
         labeled ones its per-site terms. *)
      if ev = Event.Cas_retry then
        List.iter
          (fun (id, name) ->
            let v = monotone site_ctr id sites.(id) in
            if v > 0 then
              Buffer.add_string b
                (Printf.sprintf "%s_total{site=\"%s\"} %d\n" family
                   (escape_label_value name) v))
          (Site.all ()))
    Event.all

(* Per-site retry-gap histograms and allocation words, the profiler's
   labeled families. The family headers render whether or not a
   profiler is installed; sites that never recorded anything are
   skipped, so the document only grows when sites become active. *)
let render_profile b =
  let each_site f =
    Option.iter (fun p -> List.iter (f p) (Site.all ())) (Profile.active ())
  in
  let gap_family = "nbhash_retry_ns" in
  family_header b ~kind:"histogram" gap_family
    "Gap between consecutive CAS retries at one site on one domain, \
     nanoseconds";
  each_site (fun p (id, name) ->
      let counts = Profile.gap_counts p id in
      if Array.exists (fun c -> c > 0) counts then
        histogram_series b gap_family [ ("site", name) ] counts);
  let aw_family = "nbhash_alloc_words" in
  family_header b ~kind:"counter" aw_family
    "Estimated words allocated near a site (Gc.Memprof sampling)";
  each_site (fun p (id, name) ->
      let v = Profile.alloc_words p id in
      if v > 0 then
        Buffer.add_string b
          (Printf.sprintf "%s_total{site=\"%s\"} %d\n" aw_family
             (escape_label_value name) v))

let render_histograms b probe =
  List.iter
    (fun s ->
      let si = Event.span_index s in
      let raw =
        match (probe : Probe.t) with
        | Noop -> Array.make histogram_buckets 0
        | Recording r -> Histogram.counts r.spans.(si)
      in
      let counts =
        Array.init histogram_buckets (fun i ->
            monotone hbk ((si * histogram_buckets) + i) raw.(i))
      in
      let family = "nbhash_" ^ Event.span_to_string s in
      family_header b ~kind:"histogram" family (span_help s);
      histogram_series b family [] counts)
    Event.all_spans

(* Labeled histogram families (the per-opcode server stage series). *)
let render_labeled b =
  List.iter
    (fun (family, group) ->
      (match group with
      | (e : Labeled.entry) :: _ -> family_header b ~kind:"histogram" family e.help
      | [] -> ());
      List.iter
        (fun (e : Labeled.entry) ->
          histogram_series b family e.labels (Histogram.counts e.hist))
        group)
    (Registry.group_by (fun (e : Labeled.entry) -> e.family) (Labeled.read_all ()))

(* Flight-recorder loss: records lost to ring wrap-around and records
   that failed to decode, as one labeled counter family. *)
let render_trace_drops b =
  let d =
    match Trace.active () with
    | None -> { Trace.overwritten = 0; torn = 0 }
    | Some tr -> Trace.drops tr
  in
  let family = "nbhash_trace_dropped" in
  family_header b ~kind:"counter" family
    "Flight-recorder records lost to overwrite or torn writes";
  Buffer.add_string b
    (Printf.sprintf "%s_total{reason=\"overwritten\"} %d\n" family
       (monotone trc 0 d.Trace.overwritten));
  Buffer.add_string b
    (Printf.sprintf "%s_total{reason=\"torn\"} %d\n" family
       (monotone trc 1 d.Trace.torn))

let render_gauges b =
  List.iter
    (fun (family, group) ->
      (match group with
      | (s : Gauge.sample) :: _ -> family_header b ~kind:"gauge" family s.help
      | [] -> ());
      List.iter
        (fun (s : Gauge.sample) ->
          Buffer.add_string b
            (Printf.sprintf "%s%s %s\n" s.name (label_set s.labels)
               (Json.number s.value)))
        group)
    (Registry.group_by (fun (s : Gauge.sample) -> s.name) (Gauge.read_all ()))

let render () =
  let b = Buffer.create 4096 in
  let probe = Global.get () in
  render_counters b probe;
  render_histograms b probe;
  render_profile b;
  render_labeled b;
  render_trace_drops b;
  render_gauges b;
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

let content_type =
  "application/openmetrics-text; version=1.0.0; charset=utf-8"
