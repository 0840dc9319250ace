(* Tail-sampled slow-request capture: every attributed request is
   [note]d with its stage breakdown; the ones whose total exceeds the
   threshold are captured into a bounded lock-free ring with the
   context an outlier investigation needs attached — the stage split,
   the owning shard's [table_view] at capture time, and the flight
   recorder's merged tail. Exported as JSON via /slow.json (a
   registered metrics route), optionally appended as JSON lines to a
   file, and surfaced by `nbhash_cli slow`.

   The threshold is either fixed ([slow_threshold_ns] in the server
   config; [Some 0] captures everything, which the stage-sum tests
   use) or rolling: a p999 estimate recomputed from this log's own
   total-latency histogram every 1024 noted requests, armed only after
   1000 observations so a cold server does not capture its warmup.

   Concurrency: [note]'s non-capturing path is one histogram observe
   plus one fetch-and-add and a compare — no allocation, no locks
   (Mutex is banned in lib/). Captures claim a slot by fetch-and-add
   on [next] and publish the finished entry with an atomic set;
   readers see each slot either empty or whole. The JSONL file write
   is a single [write] of one line, which POSIX keeps atomic enough
   for line-oriented consumers at these sizes. *)

module Atomic = Nbhash_util.Nb_atomic
module Tm = Nbhash_telemetry.Global
module Ev = Nbhash_telemetry.Event
module Histogram = Nbhash_telemetry.Histogram
module Trace = Nbhash_telemetry.Trace
module V = Nbhash.Hashset_intf

type entry = {
  seq : int;  (* capture ordinal, process-global per log *)
  ts_ns : int;  (* capture timestamp, monotonic clock *)
  op : string;
  key : int;  (* -1 for non-keyed requests *)
  shard : int;  (* -1 when no shard owns the request *)
  total_ns : int;
  read_ns : int;
  decode_ns : int;
  shard_ns : int;
  help_ns : int;
  write_ns : int;
  threshold_ns : int;  (* effective threshold at capture time *)
  view : V.table_view option;  (* owning shard's structural state *)
  trace_tail : string option;  (* merged flight-recorder tail *)
}

type t = {
  capacity : int;
  entries : entry option Atomic.t array;
  next : int Atomic.t;  (* total captures; slot = next mod capacity *)
  seen : int Atomic.t;  (* total noted requests *)
  fixed : int option;  (* None = rolling threshold *)
  rolling : int Atomic.t;  (* cached rolling threshold, ns *)
  totals : Histogram.t;  (* all noted totals, feeds the rolling p999 *)
  inspect : int -> V.table_view option;
  log_fd : Unix.file_descr option;
}

let create ?(capacity = 64) ?threshold_ns ?log ~inspect () =
  if capacity < 1 then invalid_arg "Slowlog.create: capacity < 1";
  let log_fd =
    Option.map
      (fun path ->
        Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644)
      log
  in
  {
    capacity;
    entries = Array.init capacity (fun _ -> Atomic.make None);
    next = Atomic.make 0;
    seen = Atomic.make 0;
    fixed = threshold_ns;
    rolling = Atomic.make max_int;
    totals = Histogram.make ();
    inspect;
    log_fd;
  }

let close t =
  match t.log_fd with
  | None -> ()
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())

let threshold_ns t =
  match t.fixed with Some n -> n | None -> Atomic.get t.rolling

let captured t = Atomic.get t.next

(* --- JSON --- *)

let view_json (v : V.table_view) =
  Printf.sprintf
    "{\"buckets\":%d,\"cardinal\":%d,\"load_factor\":%.4f,\"max_depth\":%d,\"frozen_buckets\":%d,\"migrating\":%b,\"migration_progress\":%.4f,\"announce_pending\":%d}"
    v.V.buckets v.V.cardinal v.V.load_factor v.V.max_depth v.V.frozen_buckets
    v.V.migrating v.V.migration_progress v.V.announce_pending

let entry_json e =
  Printf.sprintf
    "{\"seq\":%d,\"ts_ns\":%d,\"op\":\"%s\",\"key\":%d,\"shard\":%d,\"total_ns\":%d,\"read_ns\":%d,\"decode_ns\":%d,\"shard_ns\":%d,\"help_ns\":%d,\"write_ns\":%d,\"threshold_ns\":%d,\"view\":%s,\"trace_tail\":%s}"
    e.seq e.ts_ns (Nbhash_util.Json.escape e.op) e.key e.shard e.total_ns e.read_ns
    e.decode_ns e.shard_ns e.help_ns e.write_ns e.threshold_ns
    (match e.view with None -> "null" | Some v -> view_json v)
    (match e.trace_tail with
    | None -> "null"
    | Some s -> Printf.sprintf "\"%s\"" (Nbhash_util.Json.escape s))

(* Surviving entries, oldest first. *)
let entries t =
  let total = Atomic.get t.next in
  let n = min total t.capacity in
  let first = total - n in
  List.filter_map
    (fun i -> Atomic.get t.entries.((first + i) mod t.capacity))
    (List.init n (fun i -> i))

let to_json t =
  let thr = threshold_ns t in
  Printf.sprintf
    "{\"threshold_ns\":%s,\"captured\":%d,\"capacity\":%d,\"entries\":[%s]}"
    (if thr = max_int then "null" else string_of_int thr)
    (captured t) t.capacity
    (String.concat "," (List.map entry_json (entries t)))

(* --- capture --- *)

let capture t ~op ~key ~shard ~total_ns ~read_ns ~decode_ns ~shard_ns ~help_ns
    ~write_ns ~threshold =
  Tm.emit Ev.Server_slow;
  let view = try t.inspect shard with _ -> None in
  let trace_tail =
    match Trace.active () with
    | None -> None
    | Some tr -> Some (Format.asprintf "%a" (Trace.dump_tail ~n:50) tr)
  in
  let i = Atomic.fetch_and_add t.next 1 in
  let e =
    {
      seq = i;
      ts_ns = Nbhash_util.Clock.now_ns ();
      op;
      key;
      shard;
      total_ns;
      read_ns;
      decode_ns;
      shard_ns;
      help_ns;
      write_ns;
      threshold_ns = threshold;
      view;
      trace_tail;
    }
  in
  Atomic.set t.entries.(i mod t.capacity) (Some e);
  match t.log_fd with
  | None -> ()
  | Some fd -> (
    let line = entry_json e ^ "\n" in
    try ignore (Unix.write_substring fd line 0 (String.length line))
    with Unix.Unix_error _ -> ())

let note t ~op ~key ~shard ~total_ns ~read_ns ~decode_ns ~shard_ns ~help_ns
    ~write_ns =
  Histogram.observe t.totals total_ns;
  let seen = Atomic.fetch_and_add t.seen 1 + 1 in
  (match t.fixed with
  | Some _ -> ()
  | None ->
    if seen land 1023 = 0 then begin
      let counts = Histogram.counts t.totals in
      let n = Array.fold_left ( + ) 0 counts in
      if n >= 1000 then
        Atomic.set t.rolling
          (int_of_float (Histogram.percentile_of_counts counts n 99.9))
    end);
  let threshold = threshold_ns t in
  if total_ns > threshold then
    capture t ~op ~key ~shard ~total_ns ~read_ns ~decode_ns ~shard_ns ~help_ns
      ~write_ns ~threshold
