(* The contention & allocation profiler. Three instruments share one
   ambient switch, mirroring [Trace]'s install/uninstall discipline so
   each can be flipped independently of the probe:

   - retry-gap histograms: every [Event.Cas_retry] emission carries a
     [Site.t]; when a profiler is installed the *gap* since the same
     domain's previous retry at that site is observed into a per-site
     log2 histogram. Short gaps mean a loop spinning against live
     contention; long gaps mean isolated collisions. This measures
     retry pressure without threading loop-begin timestamps through
     every call site. The per-site retry *counts* are not kept here:
     the recording probe counts each emission once, per site, and the
     documents below take those counts from it ([Probe.site_retries]).

   - a false-sharing detector: every per-lane array written on hot
     paths registers itself as a [Lanes] source (the probe's counters
     and retry lanes, histograms, help time, the wait-free tables'
     announce write counts), and can be sampled twice and scored per
     64-byte cache line: score = write rate x (excess writers on the
     line). A line written fast by one domain is hot-but-private
     (score 0); the same rate split across writers is the ping-pong
     the ROADMAP's hot-path sweep needs to find.

   - allocation attribution via [Gc.Memprof] sampling: sampled
     allocations are credited to the allocating domain's most recent
     retry site (the "nearest site" heuristic — exact scoping would
     need per-op brackets on every fast path). Off by default;
     OCaml 5.1's multicore runtime rejects [Gc.Memprof.start] at run
     time, which [start_alloc] reports as [`Unavailable] rather than
     raising, so the same build serves 5.1 (counts stay zero) and 5.2
     (statmemprof returned).

   The disabled path of the hot hook is one [Atomic.Real] load and a
   branch — no allocation, Gc-asserted by the test suite exactly like
   the trace and probe disabled paths. Reads ([Atomic.Real], plain
   stores into the gap scratch arrays) bypass the model-check shim for
   the same reason [Trace] does: the profiler is observation, not
   algorithm, and must not add scheduling points to the CAS loops it
   watches. *)

module Atomic = Nbhash_util.Nb_atomic
module Json = Nbhash_util.Json

let max_sites = Site.max_sites

(* Gap timestamps and current-site tags are plain arrays indexed by a
   domain lane mask, like the trace rings. *)
let ts_lanes = 64
let seen_slots = 256

type alloc_state = Alloc_off | Alloc_sampling of float | Alloc_unavailable of string

type t = {
  gaps : Lanes.t;
      (* one lane of [max_sites] log2 histograms, [Histogram.buckets]
         cells each; observations are retry-rate bounded *)
  last_ns : int array;  (* ts_lanes x max_sites: last retry timestamp *)
  cur_site : int array;  (* ts_lanes: the domain's most recent retry site *)
  seen : int array;  (* domain-id capture for the writer estimator; 0 = empty *)
  alloc_words : int Atomic.t array;  (* per site, estimated words *)
  alloc_samples : int Atomic.t array;  (* per site, raw Memprof samples *)
  mutable alloc : alloc_state
      [@nbhash.plain_ok
        "written only by the single orchestrating thread that starts/stops \
         Memprof sampling (Memprof itself rejects concurrent start); readers \
         render a stale state at worst"];
}

let create () =
  {
    gaps =
      Lanes.make ~name:"retry_gaps" ~lanes:1
        ~width:(max_sites * Histogram.buckets) ();
    last_ns = Array.make (ts_lanes * max_sites) 0;
    cur_site = Array.make ts_lanes 0;
    seen = Array.make seen_slots 0;
    alloc_words = Array.init max_sites (fun _ -> Atomic.make 0);
    alloc_samples = Array.init max_sites (fun _ -> Atomic.make 0);
    alloc = Alloc_off;
  }

let current : t option Atomic.t = Atomic.make None

let install t = Atomic.Real.set current (Some t)
let uninstall () = Atomic.Real.set current None
let active () = Atomic.Real.get current
let is_active () = Atomic.Real.get current <> None

let record p site =
  let site = Site.clamp site in
  let d = (Domain.self () :> int) in
  let lane = d land (ts_lanes - 1) in
  let now = Nbhash_util.Clock.now_ns () in
  let idx = (lane * max_sites) + site in
  let prev = p.last_ns.(idx) in
  if prev > 0 && now > prev then
    Lanes.add p.gaps
      ((site * Histogram.buckets) + Histogram.bucket_of (now - prev))
      1;
  p.last_ns.(idx) <- now;
  p.cur_site.(lane) <- site;
  p.seen.(d land (seen_slots - 1)) <- d + 1
[@@nbhash.plain_ok
  "profiler lanes are racy by design, like the trace rings: gap timestamps \
   and site tags are per-domain-lane scratch whose readers tolerate torn \
   values; the gap histograms themselves are atomic"]

let[@inline] on_retry site =
  match Atomic.Real.get current with None -> () | Some p -> record p site

(* --- Reads (snapshot/scrape side) --- *)

let gap_counts p site =
  Array.init Histogram.buckets (fun b ->
      Lanes.sum p.gaps ((site * Histogram.buckets) + b))

let gap_summary p site = Histogram.summary_of_counts (gap_counts p site)
let alloc_words p site = Atomic.get p.alloc_words.(site)
let alloc_samples p site = Atomic.get p.alloc_samples.(site)

(* Distinct-domain estimate per lane of an [lanes]-lane sharded array,
   from the domains the retry hook has seen: domain d writes lane
   [d land (lanes-1)]. *)
let writers_by_lane p ~lanes =
  let w = Array.make lanes 0 in
  Array.iter
    (fun v -> if v > 0 then w.((v - 1) land (lanes - 1)) <- w.((v - 1) land (lanes - 1)) + 1)
    p.seen;
  w
[@@nbhash.plain_ok
  "w is a function-local scratch array consumed before escaping; p.seen is \
   only read here"]

(* --- Allocation attribution (Gc.Memprof) --- *)

let alloc_state p = p.alloc

(* Credit one sampled allocation to the allocating domain's most
   recent retry site. Estimated words per sample = n_samples /
   sampling_rate: each sample stands for ~1/rate allocated words,
   which keeps the exported number an unbiased estimate of words
   allocated near the site regardless of block sizes. *)
let attribute p ~rate (a : Gc.Memprof.allocation) =
  let d = (Domain.self () :> int) in
  let site = p.cur_site.(d land (ts_lanes - 1)) in
  let site = Site.clamp site in
  let words =
    int_of_float (float_of_int a.Gc.Memprof.n_samples /. rate +. 0.5)
  in
  ignore (Atomic.fetch_and_add p.alloc_samples.(site) a.Gc.Memprof.n_samples);
  ignore (Atomic.fetch_and_add p.alloc_words.(site) words)

let start_alloc ?(sampling_rate = 1e-4) p =
  match p.alloc with
  | Alloc_sampling _ -> Ok ()
  | Alloc_unavailable reason -> Error reason
  | Alloc_off -> (
    let tracker =
      {
        Gc.Memprof.null_tracker with
        alloc_minor =
          (fun a ->
            attribute p ~rate:sampling_rate a;
            None);
        alloc_major =
          (fun a ->
            attribute p ~rate:sampling_rate a;
            None);
      }
    in
    (* 5.1 multicore raises Failure here; 5.2 (statmemprof restored)
       returns a handle on success. [ignore] absorbs both the 5.1
       [unit] and the 5.2 [Gc.Memprof.t] return type. *)
    try
      ignore (Gc.Memprof.start ~sampling_rate ~callstack_size:0 tracker);
      p.alloc <- Alloc_sampling sampling_rate;
      Ok ()
    with Failure reason ->
      p.alloc <- Alloc_unavailable reason;
      Error reason)

let stop_alloc p =
  match p.alloc with
  | Alloc_sampling _ ->
    (try Gc.Memprof.stop () with Failure _ -> ());
    p.alloc <- Alloc_off
  | Alloc_off | Alloc_unavailable _ -> ()

(* --- False-sharing detector --- *)

type line_score = {
  line : int;
  writes_per_s : float;
  writers : int;
  score : float;  (* writes_per_s x excess writers; 0 = private line *)
}

type source_report = {
  source : string;
  lines : line_score list;  (* active lines only *)
  max_score : float;
}

(* Score one source from two cumulative samples [dt_ns] apart.
   [writers] (per-lane distinct-writer counts, for strided arrays)
   defaults to "one writer per active lane", the right reading for
   packed single-writer-per-slot arrays. *)
let score_source ~name ~lanes_per_line ?writers ~dt_ns c0 c1 =
  let lanes = min (Array.length c0) (Array.length c1) in
  let dt_s = float_of_int (max 1 dt_ns) /. 1e9 in
  let nlines = (lanes + lanes_per_line - 1) / lanes_per_line in
  let out = ref [] in
  let max_score = ref 0. in
  for line = 0 to nlines - 1 do
    let lo = line * lanes_per_line in
    let hi = min lanes (lo + lanes_per_line) in
    let delta = ref 0 in
    let w = ref 0 in
    for i = lo to hi - 1 do
      let d = max 0 (c1.(i) - c0.(i)) in
      delta := !delta + d;
      match writers with
      | Some ws -> if ws.(i) > 0 then w := !w + ws.(i)
      | None -> if d > 0 then incr w
    done;
    if !delta > 0 then begin
      let rate = float_of_int !delta /. dt_s in
      let score = rate *. float_of_int (max 0 (!w - 1)) in
      if score > !max_score then max_score := score;
      out := { line; writes_per_s = rate; writers = !w; score } :: !out
    end
  done;
  { source = name; lines = List.rev !out; max_score = !max_score }

(* Sample every live [Lanes] source twice, [interval_s] apart, and
   score them. *)
let false_sharing ?(interval_s = 0.02) p =
  let srcs = Lanes.live_sources () in
  let t0 = Nbhash_util.Clock.now_ns () in
  let s0 = List.map (fun (s : Lanes.source) -> s.read ()) srcs in
  Unix.sleepf interval_s;
  let s1 = List.map (fun (s : Lanes.source) -> s.read ()) srcs in
  let dt_ns = Nbhash_util.Clock.now_ns () - t0 in
  List.map2
    (fun (s : Lanes.source) (c0, c1) ->
      let writers =
        (* Padded lane sets are written by every domain hashing to the
           lane; packed arrays are single-writer per slot. *)
        if s.lanes_per_line = 1 then
          Some (writers_by_lane p ~lanes:(Array.length c0))
        else None
      in
      score_source ~name:s.name ~lanes_per_line:s.lanes_per_line ?writers
        ~dt_ns c0 c1)
    srcs
    (List.combine s0 s1)

(* --- Registered table views (/profile.json "views" block) --- *)

(* Subsystems that can describe their shard layout (the KV server's
   per-shard backends) publish a ready-made JSON thunk here. *)

type view = { view_name : string; render : unit -> string }
type view_registration = Registry.handle

let views : view Registry.t = Registry.create ()

let register_view ~name render =
  Registry.register views { view_name = name; render }

let unregister_view = Registry.unregister views

(* --- JSON --- *)

(* [retries] is the probe's per-site retry count array
   ([Probe.site_retries]), indexed by [Site.t]. *)

let site_json p retries (id, name) =
  let gap =
    match gap_summary p id with
    | None -> "null"
    | Some s -> Snapshot.json_summary s
  in
  Printf.sprintf
    "{\"id\":%d,\"name\":\"%s\",\"retries\":%d,\"gap_ns\":%s,\"alloc_words\":%d,\"alloc_samples\":%d}"
    id (Json.escape name) retries.(id) gap (alloc_words p id)
    (alloc_samples p id)

let sites_json p retries =
  let ranked =
    List.sort
      (fun (a, _) (b, _) -> compare (retries.(b), a) (retries.(a), b))
      (Site.all ())
  in
  "[" ^ String.concat "," (List.map (site_json p retries) ranked) ^ "]"

let report_json r =
  let line l =
    Printf.sprintf
      "{\"line\":%d,\"writes_per_s\":%s,\"writers\":%d,\"ping_pong\":%s}"
      l.line (Json.number l.writes_per_s) l.writers (Json.number l.score)
  in
  Printf.sprintf
    "{\"source\":\"%s\",\"max_ping_pong\":%s,\"lines\":[%s]}"
    (Json.escape r.source) (Json.number r.max_score)
    (String.concat "," (List.map line r.lines))

let memprof_json p =
  match p.alloc with
  | Alloc_off -> "{\"state\":\"off\"}"
  | Alloc_sampling rate ->
    Printf.sprintf "{\"state\":\"sampling\",\"sampling_rate\":%s}"
      (Json.number rate)
  | Alloc_unavailable reason ->
    Printf.sprintf "{\"state\":\"unavailable\",\"reason\":\"%s\"}"
      (Json.escape reason)

let views_json () =
  let entries =
    List.map
      (fun v ->
        let body = try v.render () with _ -> "null" in
        Printf.sprintf "{\"name\":\"%s\",\"view\":%s}"
          (Json.escape v.view_name) body)
      (Registry.to_list views)
  in
  "[" ^ String.concat "," entries ^ "]"

let total retries = Array.fold_left ( + ) 0 retries

(* The /profile.json document. *)
let json_body ?interval_s ~retries p =
  let reports = false_sharing ?interval_s p in
  Printf.sprintf
    "{\"active\":true,\"total_retries\":%d,\"sites\":%s,\"false_sharing\":[%s],\"memprof\":%s,\"views\":%s}"
    (total retries) (sites_json p retries)
    (String.concat "," (List.map report_json reports))
    (memprof_json p) (views_json ())

(* Compact per-site block for /snapshot.json: nonzero sites only. *)
let snapshot_block ~retries () =
  match active () with
  | None -> "{\"active\":false}"
  | Some p ->
    let sites =
      List.filter_map
        (fun (id, name) ->
          let n = retries.(id) in
          if n = 0 && alloc_words p id = 0 then None
          else
            Some
              (Printf.sprintf
                 "{\"id\":%d,\"name\":\"%s\",\"retries\":%d,\"alloc_words\":%d}"
                 id (Json.escape name) n (alloc_words p id)))
        (Site.all ())
    in
    Printf.sprintf
      "{\"active\":true,\"total_retries\":%d,\"sites\":[%s]}"
      (total retries)
      (String.concat "," sites)
