(* The repository's benchmark. One run of one workload:

     bench.exe --workload W --seed N --seconds S --trace 0|1 --cli PATH --tmp DIR

   --trace 0 prints the end-to-end metrics: setup_s, peak_rss_mib,
   throughput, p50_us, p99_us. --trace 1 alternates untraced and traced
   passes for 0.8 S, reports the difference as the tracing overhead,
   and adds the single-layer timings (Layers), the program's own
   counters and spans (Global.snapshot, resize_stats, inspect), and the
   socket path from a side session with the server binary [--cli]
   (STAT, /snapshot.json). The last line of stdout is one JSON object;
   the exit code is 1 if any correctness check failed.
   perfbench/README.md lists every metric with the layer it measures
   and the end-to-end metric it should move. *)

open Common
module Tm = Nbhash_telemetry
module Snap = Nbhash_telemetry.Snapshot
module J = Nbhash_util.Json

let workloads = [ "set-read"; "set-resize"; "kv-inproc" ]
let setups = 5

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  cli : string;
  tmp : string;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload (set-read|set-resize|kv-inproc) --seed N \
     --seconds S --trace 0|1 --cli PATH --tmp DIR";
  exit 2

let parse_args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let num conv k = match conv (get k) with Some v -> v | None -> usage () in
  let a =
    {
      workload = get "workload";
      seed = num int_of_string_opt "seed";
      seconds = num float_of_string_opt "seconds";
      trace = num int_of_string_opt "trace" = 1;
      cli = get "cli";
      tmp = get "tmp";
    }
  in
  if not (List.mem a.workload workloads) || a.seconds <= 0. then usage ();
  a

(* --- output --- *)

let us ns = ns /. 1e3
let per a b = if b = 0. then 0. else a /. b

let print_result () =
  let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0" in
  let ms =
    List.rev_map
      (fun (name, v, unit) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_num v) unit)
      !metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) (max 1 !attempted) !failed (String.concat ", " ms)

let say_hist what unit scale h =
  say "  %-22s n=%-9d p50=%.3f p99=%.3f p999=%.3f max=%.3f mean=%.3f %s" what (Hist.count h)
    (Hist.percentile h 50. /. scale) (Hist.percentile h 99. /. scale)
    (Hist.percentile h 99.9 /. scale) (float_of_int h.Hist.max /. scale) (Hist.mean h /. scale) unit

(* What an end-to-end phase measured, whatever the workload. *)
type e2e = { throughput : float; lat : Hist.t; ops : int }

let e2e_metrics ~setup_s ~rss (p : e2e) =
  metric "setup_s" "s" setup_s;
  metric "peak_rss_mib" "MiB" rss;
  metric "throughput" "ops/s" p.throughput;
  metric "p50_us" "us" (us (Hist.percentile p.lat 50.));
  metric "p99_us" "us" (us (Hist.percentile p.lat 99.))

let say_e2e what (p : e2e) =
  say "%s: throughput %.1f ops/s over %d ops" what p.throughput p.ops;
  say_hist "latency" "us" 1e3 p.lat

(* Positive when tracing costs: lower throughput, higher latency. *)
let overhead (u : e2e) (t : e2e) =
  let pct f = 100. *. per (f t -. f u) (f u) in
  metric "trace.overhead_throughput_pct" "%" (100. *. per (u.throughput -. t.throughput) u.throughput);
  metric "trace.overhead_p50_pct" "%" (pct (fun p -> Hist.percentile p.lat 50.));
  metric "trace.overhead_p99_pct" "%" (pct (fun p -> Hist.percentile p.lat 99.));
  metric "op.p999_us" "us" (us (Hist.percentile t.lat 99.9));
  metric "op.samples" "count" (float_of_int (Hist.count t.lat))

let kind_metrics (hs : Hist.t array) =
  Array.iteri
    (fun i name ->
      metric (Printf.sprintf "table.%s_p50_ns" name) "ns" (Hist.percentile hs.(i) 50.);
      metric (Printf.sprintf "table.%s_p99_ns" name) "ns" (Hist.percentile hs.(i) 99.);
      say_hist ("table." ^ name) "ns" 1. hs.(i))
    Setwl.kind_names

(* Layers every traced run reports, whatever the workload: the
   Backend, freezable sets at the workload's mean bucket depth (the
   Backend's when [depth] is not given), the codec, and the machine's
   own wake-up lateness on the 2 kHz schedule. Returns the Backend's
   migration windows. *)
let common_layers ~seed ?depth () =
  let hs, backend_depth, windows = Layers.time_backend ~seed ~ops:200_000 in
  List.iteri
    (fun i name ->
      metric (Printf.sprintf "backend.%s_p50_ns" name) "ns" (Hist.percentile hs.(i) 50.);
      metric (Printf.sprintf "backend.%s_p99_ns" name) "ns" (Hist.percentile hs.(i) 99.);
      say_hist ("backend." ^ name) "ns" 1. hs.(i))
    [ "get"; "put"; "del" ];
  let d = max 1 (int_of_float (Float.round (Option.value depth ~default:backend_depth))) in
  metric "fset.depth" "keys" (float_of_int d);
  List.iter
    (fun f ->
      let c, u = Layers.time_fset ~seed ~depth:d f in
      metric ("fset.contains_ns." ^ Layers.fset_name f) "ns" c;
      metric ("fset.update_ns." ^ Layers.fset_name f) "ns" u)
    Layers.fsets;
  let req, resp = Layers.time_codec ~seed in
  metric "codec.req_ns" "ns" req;
  metric "codec.resp_ns" "ns" resp;
  let sl = Kvwl.sleep_schedule ~seconds:1.0 in
  say_hist "env.sleep_late" "us" 1e3 sl;
  metric "env.sleep_late_p99_us" "us" (us (Hist.percentile sl 99.));
  windows

let contention_metrics ~cas ~help ~ops =
  metric "table.cas_retry_per_kop" "count" (1000. *. per (float_of_int cas) ops);
  metric "table.help_op_per_kop" "count" (1000. *. per (float_of_int help) ops)

(* Migration numbers from a probe snapshot; [inserts] are the inserts
   the snapshot's counters cover; [window] is the mean and p99 of the
   migration windows in ns. *)
let migration_metrics (s : Snap.t) ~inserts ~resizes ~window:(mean, p99) ~final_buckets =
  let c name = float_of_int (Snap.counter s name) in
  let span name f = match List.assoc_opt name s.Snap.spans with Some x -> us (f x) | None -> 0. in
  metric "resize.count" "count" (float_of_int resizes);
  metric "resize.window_mean_us" "us" (us mean);
  metric "resize.window_p99_us" "us" (us p99);
  metric "resize.sweep_chunk_p99_us" "us" (span "sweep_chunk_ns" (fun x -> x.Nbhash_util.Stats.p99));
  metric "resize.keys_migrated_per_insert" "count" (per (c "keys_migrated") (float_of_int inserts));
  let swept = c "sweep_buckets_migrated" in
  metric "resize.sweep_share" "ratio" (per swept (swept +. c "bucket_init"));
  metric "resize.final_buckets" "count" (float_of_int final_buckets)

let gc_metrics ~minor_words ~majors ~ops =
  metric "gc.minor_words_per_op" "words" (per minor_words ops);
  metric "gc.major_collections" "count" (float_of_int majors)

(* --- the KV stack, read from a running server --- *)

(* The mean of each span in the server's /snapshot.json, in us (0 for
   a span that saw nothing). *)
let server_span_mean_us (s : Kvwl.session) =
  let body =
    match Tm.Metrics_server.http_get ~port:s.Kvwl.srv.Kvwl.mport "/snapshot.json" with
    | Ok (200, b) -> J.parse_exn b
    | _ -> failwith "server /snapshot.json unavailable"
  in
  fun name ->
    List.fold_left (fun j k -> Option.bind j (J.member k)) (Some body) [ "spans"; name; "mean" ]
    |> Fun.flip Option.bind J.to_num |> Option.fold ~none:0. ~some:us

(* Drive a session for [seconds] after a 0.5 s warm-up that is not
   recorded. A closed loop's throughput is the median over 0.5 s
   rounds; an open loop's counts the replies to requests due in the
   window over the time until the last of them arrived. *)
let kv_phase (s : Kvwl.session) ~closed ~seconds =
  let start = now () in
  let from = start + 500_000_000 in
  let until = from + int_of_float (seconds *. 1e9) in
  let r = Kvwl.recorder ~from ~until in
  if closed then Kvwl.run_closed s.Kvwl.conns ~until r
  else Kvwl.run_open s.Kvwl.conns ~from:start ~until r;
  let throughput =
    if closed then
      median (Array.to_list (Array.map float_of_int r.Kvwl.rounds)) /. s_of_ns Kvwl.round_ns
    else float_of_int r.Kvwl.done_in_window /. s_of_ns (r.Kvwl.last_done - from)
  in
  ({ throughput; lat = r.Kvwl.lat; ops = r.Kvwl.done_in_window }, r)

(* The open-loop tail: 2 s at 2000 req/s on a session, the client's
   own lateness, and the server's stages from /snapshot.json (means
   over the server's life). *)
let open_loop_layers (s : Kvwl.session) =
  let e, r = kv_phase s ~closed:false ~seconds:2.0 in
  say_e2e "kv open loop, 2000 req/s" e;
  metric "kv.open_p50_us" "us" (us (Hist.percentile e.lat 50.));
  metric "kv.open_p99_us" "us" (us (Hist.percentile e.lat 99.));
  metric "kv.open_p999_us" "us" (us (Hist.percentile e.lat 99.9));
  say_hist "client.service" "us" 1e3 r.Kvwl.service;
  say_hist "client.late" "us" 1e3 r.Kvwl.late;
  metric "client.late_p50_us" "us" (us (Hist.percentile r.Kvwl.late 50.));
  metric "client.late_p99_us" "us" (us (Hist.percentile r.Kvwl.late 99.));
  metric "client.service_p99_us" "us" (us (Hist.percentile r.Kvwl.service 99.));
  let stage = server_span_mean_us s in
  List.iter
    (fun st -> metric (Printf.sprintf "server.%s_mean_us" st) "us" (stage ("server_" ^ st ^ "_ns")))
    [ "read"; "decode"; "shard"; "help"; "write" ];
  let total = stage "server_request_ns" in
  metric "server.total_mean_us" "us" total;
  metric "kv.unattributed_mean_us" "us" (us (Hist.mean r.Kvwl.service) -. total)

(* The socket path, for every traced run: a side session with a 2 s
   closed loop, then the open loop. *)
let socket_layers ~cli ~tmp ~seed =
  let s = Kvwl.start ~cli ~tmp ~seed in
  let e, r = kv_phase s ~closed:true ~seconds:2.0 in
  say_e2e "kv closed loop" e;
  say_hist "client.turnaround" "us" 1e3 r.Kvwl.late;
  metric "kv.closed_rps" "1/s" e.throughput;
  metric "kv.closed_p50_us" "us" (us (Hist.percentile e.lat 50.));
  metric "kv.closed_p99_us" "us" (us (Hist.percentile e.lat 99.));
  open_loop_layers s;
  Kvwl.check_cardinal s;
  Kvwl.finish s

(* --- workloads --- *)

let timed f =
  let t0 = now () in
  let r = f () in
  (r, s_of_ns (now () - t0))

(* Set up [setups] times, keeping the last; setup_s is the median. *)
let repeated_setup ~discard build =
  let rec go i acc =
    let v, dt = timed build in
    if i = setups then (v, median (dt :: acc))
    else begin
      discard v;
      go (i + 1) (dt :: acc)
    end
  in
  go 1 []

let to_e2e (p : Setwl.phase) = { throughput = p.Setwl.throughput; lat = p.Setwl.lat; ops = p.Setwl.ops }

let say_variants (p : Setwl.phase) =
  List.iter
    (fun (n, rs) ->
      let s = Array.of_list (List.sort compare rs) in
      let q f = s.(int_of_float (f *. float_of_int (Array.length s - 1))) /. 1e6 in
      say "  %-12s %.3f Mops/s, median of %d rounds (min %.3f, q1 %.3f, q3 %.3f, max %.3f)" n
        (median rs /. 1e6) (Array.length s) (q 0.) (q 0.25) (q 0.75) (q 1.))
    p.Setwl.per_variant

module Fy = Nbhash_workload.Factory

(* An in-process workload: set-up, one pass (a round of every
   variant), the correctness ledger, and what the traced mode reads
   from it after the passes. *)
type 'w workload = {
  names : string list;
  build : unit -> 'w;
  pass : 'w -> Setwl.acc -> unit;
  check : 'w -> unit;
  close : 'w -> unit;
  inserted : 'w -> int;  (* successful inserts so far *)
  resizes : 'w -> int;
  final_buckets : 'w -> int;
  table_layer : 'w -> Setwl.phase -> Hist.t array * float option;
      (* look/ins/rem timings and the mean bucket depth, if not the
         Backend's *)
  kv_windows : bool;  (* migration windows from the Backend *)
}

let tables_workload ~seed ~resize =
  let inp = Setwl.resize_input ~seed in
  let sum f variants = List.fold_left (fun acc v -> acc + f v.Setwl.tbl) 0 variants in
  {
    names = (if resize then Setwl.resize_variants else Setwl.read_variants);
    build = (fun () -> if resize then Setwl.build_resize ~seed inp else Setwl.build_read ~seed);
    pass = (if resize then Setwl.resize_pass inp else Setwl.read_pass);
    check = (if resize then Setwl.check_resize else Setwl.check_read);
    close = List.iter (fun v -> v.Setwl.tbl.Fy.close ());
    inserted = List.fold_left (fun acc v -> acc + v.Setwl.inserted) 0;
    resizes =
      sum (fun t ->
          let r = t.Fy.resize_stats () in
          r.Nbhash.Hashset_intf.grows + r.Nbhash.Hashset_intf.shrinks);
    final_buckets = sum (fun t -> t.Fy.bucket_count ());
    table_layer =
      (fun variants t ->
        let look, depths =
          if resize then Setwl.resize_lookup_pass variants inp
          else
            ( t.Setwl.kinds.(0),
              List.map (fun v -> (v.Setwl.tbl.Fy.inspect ()).Nbhash.Hashset_intf.load_factor) variants )
        in
        ( [| look; t.Setwl.kinds.(1); t.Setwl.kinds.(2) |],
          Some (List.fold_left ( +. ) 0. depths /. float_of_int (List.length depths)) ));
    kv_windows = false;
  }

let kv_workload ~seed =
  {
    names = [ "kv-inproc" ];
    build = (fun () -> Kvinproc.build ~seed);
    pass = Kvinproc.pass;
    check = Kvinproc.check;
    close = Kvinproc.close;
    (* The Backend's Hashmap counts neither inserts nor resizes. *)
    inserted = (fun _ -> 0);
    resizes = (fun _ -> 0);
    final_buckets = Kvinproc.buckets;
    table_layer = (fun _ _ -> (Layers.time_hashmap ~seed ~ops:200_000, None));
    kv_windows = true;
  }

let run a (w : _ workload) =
  let close v =
    w.close v;
    (* Free a discarded set-up before the next one, so peak RSS counts
       one of them. *)
    Gc.full_major ()
  in
  let until seconds = now () + int_of_float (seconds *. 1e9) in
  if not a.trace then begin
    let v, setup_s = repeated_setup ~discard:close w.build in
    let acc = Setwl.new_acc ~traced:false w.names in
    let stop = until a.seconds in
    while now () < stop do
      w.pass v acc
    done;
    w.check v;
    let p = Setwl.summary w.names acc in
    say_variants p;
    say_e2e a.workload (to_e2e p);
    e2e_metrics ~setup_s ~rss:(peak_rss_mib ()) (to_e2e p);
    close v
  end
  else begin
    (* The probe records the build and the traced passes, which
       alternate with untraced ones so both see the same machine. *)
    let probe = Tm.Probe.recording () in
    Tm.Global.install probe;
    let v = w.build () in
    Tm.Global.install Tm.Probe.noop;
    let s0 = Tm.Probe.snapshot probe in
    let minor_words = ref 0. and majors = ref 0 and untraced_inserts = ref 0 in
    let u = Setwl.new_acc ~traced:false w.names and t = Setwl.new_acc ~traced:true w.names in
    let stop = until (0.8 *. a.seconds) in
    while now () < stop do
      let i0 = w.inserted v in
      w.pass v u;
      untraced_inserts := !untraced_inserts + w.inserted v - i0;
      Tm.Global.install probe;
      let (), mw, mj = with_gc (fun () -> w.pass v t) in
      Tm.Global.install Tm.Probe.noop;
      minor_words := !minor_words +. mw;
      majors := !majors + mj
    done;
    let s1 = Tm.Probe.snapshot probe in
    w.check v;
    let u = Setwl.summary w.names u and t = Setwl.summary w.names t in
    say_variants t;
    say_e2e "untraced" (to_e2e u);
    say_e2e "traced" (to_e2e t);
    overhead (to_e2e u) (to_e2e t);
    let ops = float_of_int t.Setwl.ops in
    let delta name = Snap.counter s1 name - Snap.counter s0 name in
    contention_metrics ~cas:(delta "cas_retry") ~help:(delta "help_op") ~ops;
    gc_metrics ~minor_words:!minor_words ~majors:!majors ~ops;
    let kinds, depth = w.table_layer v t in
    kind_metrics kinds;
    let resizes = w.resizes v and final_buckets = w.final_buckets v in
    let inserts = w.inserted v - !untraced_inserts in
    close v;
    let windows = common_layers ~seed:a.seed ?depth () in
    let window =
      match Snap.span s1 Nbhash_telemetry.Event.Resize_span with
      | Some x when not w.kv_windows -> (x.Nbhash_util.Stats.mean, x.Nbhash_util.Stats.p99)
      | _ when w.kv_windows -> (Hist.mean windows, Hist.percentile windows 99.)
      | _ -> (0., 0.)
    in
    migration_metrics s1 ~inserts ~resizes ~window ~final_buckets;
    socket_layers ~cli:a.cli ~tmp:a.tmp ~seed:a.seed
  end

let () =
  let a = parse_args () in
  match
    match a.workload with
    | "set-read" -> run a (tables_workload ~seed:a.seed ~resize:false)
    | "set-resize" -> run a (tables_workload ~seed:a.seed ~resize:true)
    | _ -> run a (kv_workload ~seed:a.seed)
  with
  | () ->
    Helper.stop ();
    say "fail_ratio %d/%d" !failed (max 1 !attempted);
    print_result ();
    exit (if !failed = 0 then 0 else 1)
  | exception e ->
    Kvwl.kill_all ();
    Printf.eprintf "benchmark aborted: %s\n%!" (Printexc.to_string e);
    exit 2
