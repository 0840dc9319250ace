(* Command-line driver for ad-hoc experiments on the hash tables:

     nbhash_cli run   --table LFArray --threads 4 --range 16 --lookup 0.9
     nbhash_cli sweep --threads 1,2,4 --range 16 --lookup 0.34
     nbhash_cli stats --table WFArray --threads 2
     nbhash_cli trace --table WFArray --threads 2 -o trace.json
     nbhash_cli top   --port 9464
     nbhash_cli list

   `run` measures one configuration; `sweep` prints one row per
   implementation across a list of thread counts; `stats` runs one
   configuration under a recording telemetry probe and prints the
   event counters (or pretty-prints a saved snapshot with --from);
   `trace` runs one configuration under the flight recorder and writes
   a Perfetto-loadable Chrome trace (or summarizes a saved one with
   --from); `top` polls a /metrics endpoint (bench --serve) and
   renders per-table gauges with counter rates plus the most contended
   retry sites; `profile` fetches a server's /profile.json contention
   report; `list` names the available implementations. *)

open Cmdliner
module Factory = Nbhash_workload.Factory
module Runner = Nbhash_workload.Runner
module Workload = Nbhash_workload.Workload
module Report = Nbhash_workload.Report
module Policy = Nbhash.Policy

let table_names = List.map fst Factory.with_michael

let policy_of ~presized ~key_range name =
  if presized || name = "SplitOrder" || name = "Michael" then
    Policy.presized (max 64 (key_range / 2))
  else { Policy.default with init_buckets = 64 }

let range_arg =
  let doc = "Key range exponent: keys are drawn from [0, 2^$(docv))." in
  Arg.(value & opt int 16 & info [ "range" ] ~docv:"BITS" ~doc)

let lookup_arg =
  let doc = "Lookup ratio in [0,1]; inserts and removes split the rest." in
  Arg.(value & opt float 0.34 & info [ "lookup" ] ~docv:"L" ~doc)

let duration_arg =
  let doc = "Seconds per measurement." in
  Arg.(value & opt float 1.0 & info [ "duration" ] ~docv:"SEC" ~doc)

let trials_arg =
  let doc = "Trials per configuration (median-of reported)." in
  Arg.(value & opt int 3 & info [ "trials" ] ~docv:"N" ~doc)

let presized_arg =
  let doc = "Disable dynamic resizing and presize every table." in
  Arg.(value & flag & info [ "presized" ] ~doc)

let seed_arg =
  let doc = "Base PRNG seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let threads_list_arg =
  let doc = "Comma-separated thread counts." in
  Arg.(value & opt (list int) [ 1; 2; 4 ] & info [ "threads" ] ~docv:"T,..." ~doc)

let table_arg =
  let doc =
    Printf.sprintf "Implementation to drive; one of %s."
      (String.concat ", " table_names)
  in
  Arg.(value & opt string "LFArray" & info [ "table" ] ~docv:"NAME" ~doc)

let validate_table name =
  if not (List.mem name table_names) then begin
    Printf.eprintf "unknown table %S; known: %s\n" name
      (String.concat ", " table_names);
    exit 1
  end

let measure name ~threads ~range_bits ~lookup ~duration ~trials ~presized
    ~seed =
  let key_range = 1 lsl range_bits in
  let spec = Workload.spec ~lookup_ratio:lookup ~key_range () in
  let make () =
    (Factory.by_name name)
      ~policy:(policy_of ~presized ~key_range name)
      ~max_threads:(threads + 2) ()
  in
  ignore seed;
  Runner.run_trials make ~threads ~spec ~duration ~trials

let run_cmd =
  let run table threads_list range_bits lookup duration trials presized seed =
    validate_table table;
    List.iter
      (fun threads ->
        let last, summary =
          measure table ~threads ~range_bits ~lookup ~duration ~trials
            ~presized ~seed
        in
        Printf.printf
          "%s T=%d range=2^%d L=%.0f%%: %.3f ops/usec (median %.3f, sd %.3f) \
           buckets=%d cardinal=%d\n"
          table threads range_bits (lookup *. 100.)
          summary.Nbhash_util.Stats.mean summary.Nbhash_util.Stats.median
          summary.Nbhash_util.Stats.stddev last.Runner.final_buckets
          last.Runner.final_cardinal)
      threads_list
  in
  let term =
    Term.(
      const run $ table_arg $ threads_list_arg $ range_arg $ lookup_arg
      $ duration_arg $ trials_arg $ presized_arg $ seed_arg)
  in
  Cmd.v (Cmd.info "run" ~doc:"Measure one implementation.") term

let sweep_cmd =
  let sweep threads_list range_bits lookup duration trials presized seed =
    let header =
      "algorithm" :: List.map (Printf.sprintf "T=%d") threads_list
    in
    let rows =
      List.map
        (fun name ->
          name
          :: List.map
               (fun threads ->
                 let _, summary =
                   measure name ~threads ~range_bits ~lookup ~duration ~trials
                     ~presized ~seed
                 in
                 Report.ops_per_usec summary.Nbhash_util.Stats.median)
               threads_list)
        table_names
    in
    Printf.printf "range=2^%d L=%.0f%% [ops/usec, median of %d]\n" range_bits
      (lookup *. 100.) trials;
    Report.print_table ~header ~rows
  in
  let term =
    Term.(
      const sweep $ threads_list_arg $ range_arg $ lookup_arg $ duration_arg
      $ trials_arg $ presized_arg $ seed_arg)
  in
  Cmd.v (Cmd.info "sweep" ~doc:"Compare all implementations.") term

let hist_cmd =
  (* Populate one table and print its bucket-occupancy histogram: how
     well the policy is spreading keys. *)
  let hist table range_bits lookup presized seed =
    validate_table table;
    let key_range = 1 lsl range_bits in
    let spec = Workload.spec ~lookup_ratio:lookup ~key_range () in
    let t =
      (Factory.by_name table)
        ~policy:(policy_of ~presized ~key_range table)
        ~max_threads:4 ()
    in
    Runner.prepopulate t spec ~seed;
    let occupancy = Hashtbl.create 16 in
    Array.iter
      (fun n ->
        Hashtbl.replace occupancy n
          (1 + Option.value ~default:0 (Hashtbl.find_opt occupancy n)))
      (t.Factory.bucket_sizes ());
    Printf.printf "%s: %d elements in %d buckets\n" table
      (t.Factory.cardinal ())
      (t.Factory.bucket_count ());
    let keys =
      Hashtbl.fold (fun k _ acc -> k :: acc) occupancy [] |> List.sort compare
    in
    List.iter
      (fun n ->
        let c = Hashtbl.find occupancy n in
        Printf.printf "%3d elems: %6d buckets %s\n" n c
          (String.make (min 60 (60 * c / max 1 (t.Factory.bucket_count ()))) '#'))
      keys
  in
  let term =
    Term.(
      const hist $ table_arg $ range_arg $ lookup_arg $ presized_arg
      $ seed_arg)
  in
  Cmd.v (Cmd.info "hist" ~doc:"Bucket occupancy histogram.") term

(* Load a JSON input file for stats/trace --from; a missing or
   unreadable path is an ordinary user error, reported on stderr with
   a non-zero exit instead of an exception trace. *)
let load_json_or_die path =
  match Nbhash_util.Json.parse_file path with
  | Ok doc -> doc
  | Error msg ->
    Printf.eprintf "error: cannot read %s\n" msg;
    exit 1

(* Pretty-print a previously scraped /snapshot.json (or stats --json
   output): the meta block, then the non-zero counters, then span
   summaries. *)
let print_snapshot_file path =
  let module J = Nbhash_util.Json in
  let doc = load_json_or_die path in
  (match J.member "meta" doc with
  | Some (J.Obj fields) ->
    List.iter
      (fun (k, v) ->
        match v with
        | J.Str s -> Printf.printf "meta.%-10s %s\n" k s
        | J.Num n -> Printf.printf "meta.%-10s %g\n" k n
        | _ -> ())
      fields
  | Some _ | None -> ());
  (match J.member "counters" doc with
  | Some (J.Obj fields) ->
    List.iter
      (fun (k, v) ->
        match J.to_num v with
        | Some n when n <> 0. -> Printf.printf "%-24s %.0f\n" k n
        | _ -> ())
      fields
  | Some _ | None ->
    Printf.eprintf "error: %s: no \"counters\" object — not a snapshot file\n"
      path;
    exit 1);
  match J.member "spans" doc with
  | Some (J.Obj fields) ->
    List.iter
      (fun (k, v) ->
        let f name =
          match Option.bind (J.member name v) J.to_num with
          | Some n -> n
          | None -> Float.nan
        in
        Printf.printf "%-24s n=%.0f p50=%.0f p99=%.0f max=%.0f\n" k (f "n")
          (f "p50") (f "p99") (f "max"))
      fields
  | Some _ | None -> ()

let stats_cmd =
  (* One measured run under a recording probe; the snapshot covers the
     measurement window only (the Runner resets at the barrier). *)
  let stats table threads_list range_bits lookup duration presized seed json
      from =
    match from with
    | Some path -> print_snapshot_file path
    | None ->
      validate_table table;
      Nbhash_telemetry.Global.install (Nbhash_telemetry.Probe.recording ());
      List.iter
        (fun threads ->
          let last, _ =
            measure table ~threads ~range_bits ~lookup ~duration ~trials:1
              ~presized ~seed
          in
          Printf.printf "%s T=%d range=2^%d L=%.0f%%: %.3f ops/usec\n" table
            threads range_bits (lookup *. 100.) last.Runner.throughput;
          match last.Runner.telemetry with
          | None -> print_endline "(no recording probe installed)"
          | Some snap ->
            if json then
              print_endline
                (Nbhash_telemetry.Snapshot.to_json
                   ~meta:(Nbhash_telemetry.Meta.json ())
                   snap)
            else print_string (Nbhash_telemetry.Snapshot.to_string snap))
        threads_list
  in
  let json_arg =
    let doc = "Print the snapshot as JSON instead of a table." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let from_arg =
    let doc =
      "Pretty-print a saved snapshot JSON file (a /snapshot.json scrape or \
       stats --json output) instead of running a workload."
    in
    Arg.(
      value & opt (some string) None & info [ "from" ] ~docv:"FILE" ~doc)
  in
  let term =
    Term.(
      const stats $ table_arg $ threads_list_arg $ range_arg $ lookup_arg
      $ duration_arg $ presized_arg $ seed_arg $ json_arg $ from_arg)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Measure one implementation with telemetry.")
    term

(* Summarize a previously written Chrome trace JSON file: event count
   and per-name tallies. Accepts both the {"traceEvents":[...]}
   wrapper and a bare event array. *)
let print_trace_file path =
  let module J = Nbhash_util.Json in
  let doc = load_json_or_die path in
  let events =
    match J.member "traceEvents" doc with
    | Some arr -> J.to_list arr
    | None -> J.to_list doc
  in
  match events with
  | None ->
    Printf.eprintf "error: %s: no \"traceEvents\" array — not a trace file\n"
      path;
    exit 1
  | Some events ->
    let tally = Hashtbl.create 32 in
    List.iter
      (fun ev ->
        let name =
          match Option.bind (J.member "name" ev) J.to_str with
          | Some n -> n
          | None -> "(unnamed)"
        in
        Hashtbl.replace tally name
          (1 + Option.value ~default:0 (Hashtbl.find_opt tally name)))
      events;
    Printf.printf "%s: %d trace events\n" path (List.length events);
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.iter (fun (name, n) -> Printf.printf "%8d  %s\n" n name)

let trace_cmd =
  (* One measured run with the flight recorder installed; the Runner
     clears the rings at the measurement barrier, so the written trace
     covers the measurement window. *)
  let trace table threads_list range_bits lookup duration presized seed out
      tail =
    validate_table table;
    let tr = Nbhash_telemetry.Trace.create ~lanes:64 ~capacity:(1 lsl 14) () in
    Nbhash_telemetry.Trace.install tr;
    List.iter
      (fun threads ->
        let last, _ =
          measure table ~threads ~range_bits ~lookup ~duration ~trials:1
            ~presized ~seed
        in
        Printf.printf "%s T=%d range=2^%d L=%.0f%%: %.3f ops/usec\n" table
          threads range_bits (lookup *. 100.) last.Runner.throughput)
      threads_list;
    let records = Nbhash_telemetry.Trace.records tr in
    Printf.printf "captured %d trace records (%d written)\n"
      (Array.length records)
      (Nbhash_telemetry.Trace.written tr);
    if tail > 0 then
      Nbhash_telemetry.Trace.dump_tail ~n:tail Format.std_formatter tr;
    (match out with
    | None -> ()
    | Some path -> (
      match open_out path with
      | oc ->
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> Nbhash_telemetry.Trace.write_chrome oc tr);
        Printf.printf "wrote %s — open it at https://ui.perfetto.dev\n" path
      | exception Sys_error msg ->
        Printf.eprintf "error: cannot write %s\n" msg;
        exit 1))
  in
  let trace_dispatch table threads_list range_bits lookup duration presized
      seed out tail from =
    match from with
    | Some path -> print_trace_file path
    | None ->
      trace table threads_list range_bits lookup duration presized seed out
        tail
  in
  let out_arg =
    let doc = "Write the merged trace as Chrome trace-event JSON to $(docv)." in
    Arg.(
      value & opt (some string) None & info [ "o"; "out" ] ~docv:"PATH" ~doc)
  in
  let tail_arg =
    let doc = "Print the newest $(docv) merged records after the run." in
    Arg.(value & opt int 0 & info [ "tail" ] ~docv:"N" ~doc)
  in
  let from_arg =
    let doc =
      "Summarize a saved Chrome trace JSON file instead of running a \
       workload."
    in
    Arg.(
      value & opt (some string) None & info [ "from" ] ~docv:"FILE" ~doc)
  in
  let term =
    Term.(
      const trace_dispatch $ table_arg $ threads_list_arg $ range_arg
      $ lookup_arg $ duration_arg $ presized_arg $ seed_arg $ out_arg
      $ tail_arg $ from_arg)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Measure one implementation under the flight recorder.")
    term

let list_cmd =
  let list () = List.iter print_endline table_names in
  Cmd.v
    (Cmd.info "list" ~doc:"List available implementations.")
    Term.(const list $ const ())

(* --- top: a live terminal view over a /metrics endpoint --- *)

(* One parsed OpenMetrics sample line: family name, label set, value.
   Comment lines (# TYPE/# HELP/# EOF) are skipped. The parser only
   needs to understand what Openmetrics.render emits. *)
let parse_metric_line line =
  match String.rindex_opt line ' ' with
  | None -> None
  | Some sp -> (
    let name_part = String.sub line 0 sp in
    let value_part = String.sub line (sp + 1) (String.length line - sp - 1) in
    match float_of_string_opt value_part with
    | None -> None
    | Some value ->
      let family, labels =
        match String.index_opt name_part '{' with
        | None -> (name_part, [])
        | Some b ->
          let family = String.sub name_part 0 b in
          let inner =
            (* drop '{' and the trailing '}' *)
            String.sub name_part (b + 1) (String.length name_part - b - 2)
          in
          let labels =
            String.split_on_char ',' inner
            |> List.filter_map (fun kv ->
                   match String.index_opt kv '=' with
                   | None -> None
                   | Some eq ->
                     let k = String.sub kv 0 eq in
                     let v =
                       String.sub kv (eq + 1) (String.length kv - eq - 1)
                     in
                     (* strip the quotes *)
                     let v =
                       if String.length v >= 2 && v.[0] = '"' then
                         String.sub v 1 (String.length v - 2)
                       else v
                     in
                     Some (k, v))
          in
          (family, labels)
      in
      Some (family, labels, value))

let parse_metrics body =
  String.split_on_char '\n' body
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None else parse_metric_line line)

let render_top ~clear ~endpoint ~health ~interval ~prev samples =
  let b = Buffer.create 4096 in
  if clear then Buffer.add_string b "\027[H\027[2J";
  Buffer.add_string b
    (Printf.sprintf "nbhash top — %s — health: %s\n\n" endpoint health);
  (* Per-table gauge rows, keyed by (table, instance). *)
  let tables = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun (family, labels, value) ->
      match
        (List.assoc_opt "table" labels, List.assoc_opt "instance" labels)
      with
      | Some table, Some instance
        when String.length family > 13
             && String.sub family 0 13 = "nbhash_table_" ->
        let metric =
          String.sub family 13 (String.length family - 13)
        in
        let key = (table, instance) in
        if not (Hashtbl.mem tables key) then begin
          Hashtbl.add tables key (Hashtbl.create 8);
          order := key :: !order
        end;
        Hashtbl.replace (Hashtbl.find tables key) metric value
      | _ -> ())
    samples;
  if !order <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "%-18s %8s %9s %6s %6s %7s %9s %8s\n" "TABLE" "BUCKETS"
         "CARDINAL" "LOAD" "DEPTH" "FROZEN" "MIGRATE%" "PENDING");
    List.iter
      (fun ((table, instance) as key) ->
        let m = Hashtbl.find tables key in
        let g name = Option.value ~default:Float.nan (Hashtbl.find_opt m name) in
        Buffer.add_string b
          (Printf.sprintf "%-18s %8.0f %9.0f %6.2f %6.0f %7.0f %8.0f%% %8.0f\n"
             (table ^ "#" ^ instance)
             (g "buckets") (g "cardinal") (g "load_factor") (g "max_depth")
             (g "frozen_buckets")
             (100. *. g "migration_progress")
             (g "announce_pending")))
      (List.rev !order);
    Buffer.add_char b '\n'
  end;
  (* Per-opcode service-time percentiles from the labeled
     nbhash_server_op_ns histogram family (present once a KV server
     has answered attributed traffic). Buckets are cumulative; the
     percentile is the upper bound of the first bucket at or past the
     rank, same resolution as the server's own log2 histograms. *)
  let ops = Hashtbl.create 4 in
  let op_order = ref [] in
  List.iter
    (fun (family, labels, value) ->
      if family = "nbhash_server_op_ns_bucket" then
        match (List.assoc_opt "op" labels, List.assoc_opt "le" labels) with
        | Some op, Some le ->
          let bs =
            match Hashtbl.find_opt ops op with
            | Some l -> l
            | None ->
              op_order := op :: !op_order;
              []
          in
          Hashtbl.replace ops op ((le, value) :: bs)
        | _ -> ())
    samples;
  if !op_order <> [] then begin
    Buffer.add_string b
      (Printf.sprintf "%-6s %12s %11s %11s %11s\n" "OP" "COUNT" "P50(us)"
         "P99(us)" "P999(us)");
    List.iter
      (fun op ->
        let buckets =
          Hashtbl.find ops op
          |> List.map (fun (le, v) ->
                 ( (match float_of_string_opt le with
                   | Some f -> f
                   | None -> Float.infinity),
                   v ))
          |> List.sort compare
        in
        let total = List.fold_left (fun acc (_, v) -> Float.max acc v) 0. buckets in
        let pct p =
          let target = p /. 100. *. total in
          let rec go = function
            | [] -> Float.nan
            | (le, cum) :: rest ->
              if cum >= target && cum > 0. then le else go rest
          in
          go buckets
        in
        if total > 0. then
          Buffer.add_string b
            (Printf.sprintf "%-6s %12.0f %11.1f %11.1f %11.1f\n" op total
               (pct 50. /. 1e3) (pct 99. /. 1e3) (pct 99.9 /. 1e3)))
      (List.rev !op_order);
    Buffer.add_char b '\n'
  end;
  (* Counter rates since the previous frame. *)
  let counters =
    List.filter_map
      (fun (family, labels, value) ->
        let n = String.length family in
        if labels = [] && n > 6 && String.sub family (n - 6) 6 = "_total" then
          Some (String.sub family 0 (n - 6), value)
        else None)
      samples
  in
  Buffer.add_string b
    (Printf.sprintf "%-28s %14s %12s\n" "COUNTER" "TOTAL" "PER-SEC");
  List.iter
    (fun (name, value) ->
      let rate =
        match !prev with
        | None -> Float.nan
        | Some old -> (
          match List.assoc_opt name old with
          | Some v -> (value -. v) /. interval
          | None -> Float.nan)
      in
      if value > 0. || (Float.is_finite rate && rate > 0.) then
        Buffer.add_string b
          (Printf.sprintf "%-28s %14.0f %12s\n" name value
             (if Float.is_finite rate then Printf.sprintf "%.1f" rate
              else "-")))
    counters;
  (* Contention: top retry sites from the labeled
     nbhash_cas_retry_total family, ranked by retry rate since the
     previous frame (by total on the first frame, before a rate
     exists). *)
  let site_totals =
    List.filter_map
      (fun (family, labels, value) ->
        if family = "nbhash_cas_retry_total" then
          Option.map
            (fun s -> ("site:" ^ s, value))
            (List.assoc_opt "site" labels)
        else None)
      samples
  in
  if site_totals <> [] then begin
    let with_rate (name, value) =
      let rate =
        match !prev with
        | None -> Float.nan
        | Some old -> (
          match List.assoc_opt name old with
          | Some v -> (value -. v) /. interval
          | None -> Float.nan)
      in
      (name, value, rate)
    in
    let key (_, total, rate) =
      if Float.is_finite rate then (rate, total)
      else (Float.neg_infinity, total)
    in
    let ranked =
      List.map with_rate site_totals
      |> List.sort (fun x y -> compare (key y) (key x))
    in
    Buffer.add_char b '\n';
    Buffer.add_string b
      (Printf.sprintf "%-28s %14s %12s\n" "CONTENDED SITE" "RETRIES"
         "PER-SEC");
    List.iteri
      (fun i (name, total, rate) ->
        if i < 5 && total > 0. then
          Buffer.add_string b
            (Printf.sprintf "%-28s %14.0f %12s\n"
               (String.sub name 5 (String.length name - 5))
               total
               (if Float.is_finite rate then Printf.sprintf "%.1f" rate
                else "-")))
      ranked
  end;
  prev := Some (counters @ site_totals);
  print_string (Buffer.contents b);
  flush stdout

let top_cmd =
  let top host port interval count =
    let module MS = Nbhash_telemetry.Metrics_server in
    let endpoint = Printf.sprintf "%s:%d" host port in
    let clear = Unix.isatty Unix.stdout in
    let prev = ref None in
    let frames = ref 0 in
    let continue = ref true in
    while !continue do
      (match MS.http_get ~host ~port "/metrics" with
      | Error msg ->
        Printf.eprintf "error: cannot scrape http://%s/metrics: %s\n" endpoint
          msg;
        exit 1
      | Ok (code, _) when code <> 200 ->
        Printf.eprintf "error: http://%s/metrics answered %d\n" endpoint code;
        exit 1
      | Ok (_, body) ->
        let health =
          match MS.http_get ~host ~port "/health" with
          | Ok (200, _) -> "ok"
          | Ok (503, body) -> "STALLED — " ^ String.trim body
          | Ok (code, _) -> Printf.sprintf "unknown (%d)" code
          | Error msg -> "unreachable (" ^ msg ^ ")"
        in
        render_top ~clear ~endpoint ~health ~interval ~prev
          (parse_metrics body));
      incr frames;
      if count > 0 && !frames >= count then continue := false
      else Unix.sleepf interval
    done
  in
  let host_arg =
    let doc = "Host serving /metrics (bench --serve or Metrics_server)." in
    Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)
  in
  let port_arg =
    let doc = "Port of the metrics endpoint." in
    Arg.(value & opt int 9464 & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let interval_arg =
    let doc = "Seconds between polls." in
    Arg.(value & opt float 1.0 & info [ "interval" ] ~docv:"SEC" ~doc)
  in
  let count_arg =
    let doc = "Stop after $(docv) frames (0 = run until interrupted)." in
    Arg.(value & opt int 0 & info [ "count" ] ~docv:"N" ~doc)
  in
  let term =
    Term.(const top $ host_arg $ port_arg $ interval_arg $ count_arg)
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Live terminal view of a running table's metrics endpoint.")
    term

(* --- serve / load / drain: the sharded KV service --- *)

module Server = Nbhash_server.Server
module Loadgen = Nbhash_server.Loadgen
module Sproto = Nbhash_server.Protocol

let write_port_file path port =
  match path with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Printf.fprintf oc "%d\n" port)

let serve_cmd =
  let serve addr port backend shards workers metrics_port no_metrics port_file
      metrics_port_file slow_threshold_us slow_capacity slow_log sweep_chunk
      profile_alloc =
    let backend =
      match Nbhash_server.Backend.kind_of_string backend with
      | Some k -> k
      | None ->
        Printf.eprintf "unknown backend %S; known: lockfree, waitfree\n"
          backend;
        exit 1
    in
    let policy =
      match sweep_chunk with
      | None -> None
      | Some chunk when chunk >= 1 ->
        Some
          {
            Nbhash_server.Backend.default_policy with
            migration = { Policy.default_migration with chunk };
          }
      | Some chunk ->
        Printf.eprintf "bad --sweep-chunk %d (must be >= 1)\n" chunk;
        exit 1
    in
    let slow_threshold_ns =
      if slow_threshold_us < 0. then None
      else Some (int_of_float (slow_threshold_us *. 1e3))
    in
    (* Request/span counters and table gauges only mean something with
       a live probe; install one for the server's whole lifetime. *)
    Nbhash_telemetry.Global.install (Nbhash_telemetry.Probe.recording ());
    (* A resident flight recorder: the staged request slices land in
       these rings, so slow-request captures can attach a trace tail. *)
    Nbhash_telemetry.Trace.install
      (Nbhash_telemetry.Trace.create ~lanes:64 ~capacity:(1 lsl 14) ());
    (* The contention profiler is resident too — /profile.json answers
       404 without one. Allocation sampling stays off unless asked
       for; the disabled path is allocation-free. *)
    let profiler = Nbhash_telemetry.Profile.create () in
    Nbhash_telemetry.Profile.install profiler;
    if profile_alloc then begin
      match Nbhash_telemetry.Profile.start_alloc profiler with
      | Ok () -> print_endline "memprof allocation sampling enabled"
      | Error reason ->
        Printf.eprintf "warning: allocation sampling unavailable: %s\n%!"
          reason
    end;
    match
      let server =
        Server.start
          ~config:
            {
              Server.default_config with
              addr;
              port;
              backend;
              shards;
              workers;
              policy;
              slow_threshold_ns;
              slow_capacity;
              slow_log;
            }
          ()
      in
      let metrics =
        if no_metrics then None
        else
          Some
            (Nbhash_telemetry.Metrics_server.start ~addr ~port:metrics_port
               ~watchdog:(Nbhash_telemetry.Watchdog.global ())
               ())
      in
      (server, metrics)
    with
    | exception Nbhash_telemetry.Metrics_server.Bind_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
    | server, metrics ->
      Printf.printf "serving kv (%s, %d shards, %d workers) on %s:%d\n%!"
        (Nbhash_server.Backend.kind_name backend)
        shards workers addr (Server.port server);
      write_port_file port_file (Server.port server);
      (match metrics with
      | None -> ()
      | Some m ->
        Printf.printf "serving metrics on http://%s:%d/metrics\n%!" addr
          (Nbhash_telemetry.Metrics_server.port m);
        write_port_file metrics_port_file
          (Nbhash_telemetry.Metrics_server.port m));
      (* Block until a DRAIN request brings the workers down, then
         stop the metrics side too and exit cleanly. *)
      Server.wait server;
      (match metrics with
      | None -> ()
      | Some m -> Nbhash_telemetry.Metrics_server.stop m);
      print_endline "drained; bye"
  in
  let addr_arg =
    let doc = "Address to bind." in
    Arg.(value & opt string "127.0.0.1" & info [ "addr" ] ~docv:"ADDR" ~doc)
  in
  let port_arg =
    let doc = "KV port to bind (0 picks a free port; it is printed either \
               way, and written to --port-file if given)." in
    Arg.(value & opt int 0 & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let backend_arg =
    let doc = "Shard table implementation: lockfree or waitfree." in
    Arg.(value & opt string "lockfree" & info [ "backend" ] ~docv:"KIND" ~doc)
  in
  let shards_arg =
    let doc = "Shard tables (1 = single-shared-table ablation)." in
    Arg.(value & opt int 2 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let workers_arg =
    let doc = "Worker domains (concurrent connections served)." in
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let metrics_port_arg =
    let doc = "Metrics/health HTTP port (0 picks a free port)." in
    Arg.(value & opt int 0 & info [ "metrics-port" ] ~docv:"PORT" ~doc)
  in
  let no_metrics_arg =
    let doc = "Do not start the metrics endpoint." in
    Arg.(value & flag & info [ "no-metrics" ] ~doc)
  in
  let port_file_arg =
    let doc = "Write the bound KV port to $(docv)." in
    Arg.(
      value & opt (some string) None & info [ "port-file" ] ~docv:"PATH" ~doc)
  in
  let metrics_port_file_arg =
    let doc = "Write the bound metrics port to $(docv)." in
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-port-file" ] ~docv:"PATH" ~doc)
  in
  let slow_threshold_arg =
    let doc =
      "Slow-request capture threshold in microseconds; 0 captures every \
       request, negative (the default) uses a rolling p999 estimate."
    in
    Arg.(
      value & opt float (-1.) & info [ "slow-threshold-us" ] ~docv:"US" ~doc)
  in
  let slow_capacity_arg =
    let doc = "Slow-request capture ring size." in
    Arg.(value & opt int 64 & info [ "slow-capacity" ] ~docv:"N" ~doc)
  in
  let slow_log_arg =
    let doc = "Append slow-request captures as JSON lines to $(docv)." in
    Arg.(
      value & opt (some string) None & info [ "slow-log" ] ~docv:"PATH" ~doc)
  in
  let sweep_chunk_arg =
    let doc =
      "Migration sweep chunk size (buckets claimed per cursor fetch); large \
       values concentrate helping work in single requests, which is the \
       stall-injection knob for exercising the slow-request capture."
    in
    Arg.(value & opt (some int) None & info [ "sweep-chunk" ] ~docv:"N" ~doc)
  in
  let profile_alloc_arg =
    let doc =
      "Enable Memprof allocation sampling attributed to retry sites \
       (requires statmemprof; degrades to a warning where the runtime \
       lacks it)."
    in
    Arg.(value & flag & info [ "profile-alloc" ] ~doc)
  in
  let term =
    Term.(
      const serve $ addr_arg $ port_arg $ backend_arg $ shards_arg
      $ workers_arg $ metrics_port_arg $ no_metrics_arg $ port_file_arg
      $ metrics_port_file_arg $ slow_threshold_arg $ slow_capacity_arg
      $ slow_log_arg $ sweep_chunk_arg $ profile_alloc_arg)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the sharded KV service until a drain request.")
    term

let host_arg =
  let doc = "Server host." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let kv_port_arg =
  let doc = "Server KV port." in
  Arg.(required & opt (some int) None & info [ "port" ] ~docv:"PORT" ~doc)

let load_cmd =
  let load host port conns rate duration range_bits dist get del value_bytes
      seed max_lag_ms json =
    let dist =
      match String.split_on_char ':' dist with
      | [ "uniform" ] -> Nbhash_workload.Keystream.Uniform
      | [ "zipf" ] -> Nbhash_workload.Keystream.Zipf 1.1
      | [ "zipf"; s ] -> (
        match float_of_string_opt s with
        | Some s when s >= 0. -> Nbhash_workload.Keystream.Zipf s
        | _ ->
          Printf.eprintf "bad zipf skew %S\n" s;
          exit 1)
      | _ ->
        Printf.eprintf "unknown distribution %S (uniform, zipf, zipf:S)\n" dist;
        exit 1
    in
    match
      Loadgen.run
        ~config:
          {
            Loadgen.host;
            port;
            conns;
            rate;
            duration_s = duration;
            key_range = 1 lsl range_bits;
            dist;
            get_ratio = get;
            del_ratio = del;
            value_bytes;
            seed;
            max_lag_ns = int_of_float (max_lag_ms *. 1e6);
          }
        ()
    with
    | exception Failure msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
    | report ->
      Loadgen.print_human report;
      (match json with
      | None -> ()
      | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (Loadgen.to_bench_json report));
        Printf.printf "wrote SLO report to %s\n" path);
      if report.Loadgen.sent = 0 || report.Loadgen.errors > 0 then exit 1
  in
  let conns_arg =
    let doc = "Client connections (one domain each)." in
    Arg.(value & opt int 2 & info [ "conns" ] ~docv:"N" ~doc)
  in
  let rate_arg =
    let doc = "Total open-loop request rate, req/s (0 = closed loop)." in
    Arg.(value & opt float 2000. & info [ "rate" ] ~docv:"R" ~doc)
  in
  let dist_arg =
    let doc = "Key distribution: uniform, zipf, or zipf:SKEW." in
    Arg.(value & opt string "uniform" & info [ "dist" ] ~docv:"DIST" ~doc)
  in
  let get_arg =
    let doc = "GET ratio in [0,1]." in
    Arg.(value & opt float 0.8 & info [ "get" ] ~docv:"G" ~doc)
  in
  let del_arg =
    let doc = "DEL ratio in [0,1]; PUTs take the rest." in
    Arg.(value & opt float 0.05 & info [ "del" ] ~docv:"D" ~doc)
  in
  let value_bytes_arg =
    let doc = "PUT value size in bytes." in
    Arg.(value & opt int 32 & info [ "value-bytes" ] ~docv:"B" ~doc)
  in
  let max_lag_arg =
    let doc = "Schedule slack in milliseconds before overdue requests drop." in
    Arg.(value & opt float 100. & info [ "max-lag-ms" ] ~docv:"MS" ~doc)
  in
  let json_arg =
    let doc = "Write the SLO report as bench-v2 JSON to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH" ~doc)
  in
  let term =
    Term.(
      const load $ host_arg $ kv_port_arg $ conns_arg $ rate_arg
      $ duration_arg $ range_arg $ dist_arg $ get_arg $ del_arg
      $ value_bytes_arg $ seed_arg $ max_lag_arg $ json_arg)
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Drive a KV server with an open-loop workload and report SLOs.")
    term

let drain_cmd =
  let drain host port =
    Nbhash_telemetry.Metrics_server.ignore_sigpipe ();
    match
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd
            (Unix.ADDR_INET
               (Nbhash_telemetry.Metrics_server.resolve_inet host, port));
          Sproto.write_request fd Drain;
          Sproto.read_response fd)
    with
    | Result.Ok Sproto.Ok -> print_endline "drained"
    | Result.Ok r ->
      Printf.eprintf "error: unexpected drain response: %s\n"
        (match r with
        | Sproto.Err m -> m
        | Sproto.Value _ -> "VALUE"
        | Sproto.Not_found -> "NOT_FOUND"
        | Sproto.Ok -> "OK");
      exit 1
    | Result.Error msg | (exception Failure msg) ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "error: cannot drain %s:%d: %s\n" host port
        (Unix.error_message e);
      exit 1
  in
  let term = Term.(const drain $ host_arg $ kv_port_arg) in
  Cmd.v
    (Cmd.info "drain"
       ~doc:"Ask a KV server to finish migrations and shut down.")
    term

(* One v1 request/response exchange on a throwaway connection, shared
   by drain-style operational commands. *)
let kv_roundtrip ~host ~port req =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd
        (Unix.ADDR_INET
           (Nbhash_telemetry.Metrics_server.resolve_inet host, port));
      Sproto.write_request fd req;
      Sproto.read_response fd)

let force_resize_cmd =
  let force host port shard =
    Nbhash_telemetry.Metrics_server.ignore_sigpipe ();
    match kv_roundtrip ~host ~port (Sproto.Force_resize shard) with
    | Result.Ok Sproto.Ok ->
      Printf.printf "forced a grow of shard %d; migration in progress\n" shard
    | Result.Ok (Sproto.Err m) ->
      Printf.eprintf "error: %s\n" m;
      exit 1
    | Result.Ok (Sproto.Value _ | Sproto.Not_found) ->
      Printf.eprintf "error: unexpected response to FORCE_RESIZE\n";
      exit 1
    | Result.Error msg | (exception Failure msg) ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "error: cannot reach %s:%d: %s\n" host port
        (Unix.error_message e);
      exit 1
  in
  let shard_arg =
    let doc = "Shard index to grow." in
    Arg.(value & opt int 0 & info [ "shard" ] ~docv:"N" ~doc)
  in
  let term = Term.(const force $ host_arg $ kv_port_arg $ shard_arg) in
  Cmd.v
    (Cmd.info "force-resize"
       ~doc:
         "Force a table grow on one shard of a running KV server — stall \
          injection for exercising the slow-request capture.")
    term

(* --- slow: fetch and render a server's slow-request log --- *)

let slow_cmd =
  let slow host port json =
    let module MS = Nbhash_telemetry.Metrics_server in
    let module J = Nbhash_util.Json in
    match MS.http_get ~host ~port "/slow.json" with
    | Error msg ->
      Printf.eprintf "error: cannot fetch http://%s:%d/slow.json: %s\n" host
        port msg;
      exit 1
    | Ok (code, _) when code <> 200 ->
      Printf.eprintf "error: http://%s:%d/slow.json answered %d\n" host port
        code;
      exit 1
    | Ok (_, body) -> (
      if json then print_string body
      else
        match J.parse body with
        | Error msg ->
          Printf.eprintf "error: cannot parse /slow.json: %s\n" msg;
          exit 1
        | Ok doc ->
          let num name j = Option.bind (J.member name j) J.to_num in
          let us j name =
            match num name j with Some n -> n /. 1e3 | None -> Float.nan
          in
          (match num "threshold_ns" doc with
          | Some t ->
            Printf.printf "threshold %.1fus (captured %d, ring %d)\n"
              (t /. 1e3)
              (match num "captured" doc with Some n -> int_of_float n | None -> 0)
              (match num "capacity" doc with Some n -> int_of_float n | None -> 0)
          | None ->
            print_endline
              "threshold: rolling p999, not yet armed (needs 1000 requests)");
          let entries =
            match Option.bind (J.member "entries" doc) J.to_list with
            | Some l -> l
            | None -> []
          in
          if entries = [] then print_endline "no captures"
          else
            List.iter
              (fun e ->
                let str name = Option.bind (J.member name e) J.to_str in
                Printf.printf
                  "#%.0f %-4s key=%.0f shard=%.0f  total %.1fus = read %.1f + \
                   decode %.1f + shard %.1f (help %.1f) + write %.1f  [over \
                   threshold %.1fus]\n"
                  (Option.value ~default:Float.nan (num "seq" e))
                  (Option.value ~default:"?" (str "op"))
                  (Option.value ~default:Float.nan (num "key" e))
                  (Option.value ~default:Float.nan (num "shard" e))
                  (us e "total_ns") (us e "read_ns") (us e "decode_ns")
                  (us e "shard_ns") (us e "help_ns") (us e "write_ns")
                  (us e "threshold_ns");
                (match J.member "view" e with
                | Some (J.Obj _ as v) ->
                  Printf.printf
                    "    shard: buckets=%.0f cardinal=%.0f load=%.2f \
                     migrating=%s progress=%.0f%%\n"
                    (Option.value ~default:Float.nan (num "buckets" v))
                    (Option.value ~default:Float.nan (num "cardinal" v))
                    (Option.value ~default:Float.nan (num "load_factor" v))
                    (match J.member "migrating" v with
                    | Some (J.Bool bv) -> string_of_bool bv
                    | _ -> "?")
                    (100.
                    *. Option.value ~default:Float.nan
                         (num "migration_progress" v))
                | _ -> ());
                match str "trace_tail" with
                | None -> ()
                | Some tail ->
                  String.split_on_char '\n' tail
                  |> List.iter (fun line ->
                         if String.trim line <> "" then
                           Printf.printf "    | %s\n" line))
              entries)
  in
  let port_arg =
    let doc = "Metrics/HTTP port of the server (the /slow.json endpoint)." in
    Arg.(value & opt int 9464 & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let json_arg =
    let doc = "Dump the raw /slow.json body instead of pretty-printing." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let term = Term.(const slow $ host_arg $ port_arg $ json_arg) in
  Cmd.v
    (Cmd.info "slow"
       ~doc:"Show a KV server's tail-sampled slow-request captures.")
    term

(* --- profile: fetch and render a server's contention profile --- *)

let profile_cmd =
  let profile host port json top_n =
    let module MS = Nbhash_telemetry.Metrics_server in
    let module J = Nbhash_util.Json in
    match MS.http_get ~host ~port "/profile.json" with
    | Error msg ->
      Printf.eprintf "error: cannot fetch http://%s:%d/profile.json: %s\n" host
        port msg;
      exit 1
    | Ok (404, _) ->
      Printf.eprintf
        "error: profiling is not active on http://%s:%d (start the server \
         with a resident profiler, e.g. nbhash_cli serve)\n"
        host port;
      exit 1
    | Ok (code, _) when code <> 200 ->
      Printf.eprintf "error: http://%s:%d/profile.json answered %d\n" host
        port code;
      exit 1
    | Ok (_, body) -> (
      if json then print_string body
      else
        match J.parse body with
        | Error msg ->
          Printf.eprintf "error: cannot parse /profile.json: %s\n" msg;
          exit 1
        | Ok doc ->
          let num name j = Option.bind (J.member name j) J.to_num in
          let str name j = Option.bind (J.member name j) J.to_str in
          let nf name j = Option.value ~default:Float.nan (num name j) in
          Printf.printf "total retries %.0f\n" (nf "total_retries" doc);
          (* Ranked site table; the server already sorts by retries. *)
          let sites =
            Option.value ~default:[]
              (Option.bind (J.member "sites" doc) J.to_list)
          in
          let live =
            List.filter
              (fun s -> nf "retries" s > 0. || nf "alloc_words" s > 0.)
              sites
          in
          if live = [] then print_endline "no contended sites"
          else begin
            Printf.printf "%-28s %10s %10s %10s %12s\n" "SITE" "RETRIES"
              "GAP-P50us" "GAP-P99us" "ALLOC-WORDS";
            List.iteri
              (fun i s ->
                if i < top_n then
                  let gap name =
                    match Option.bind (J.member "gap_ns" s) (J.member name) with
                    | Some v ->
                      Option.value ~default:Float.nan (J.to_num v) /. 1e3
                    | None -> Float.nan
                  in
                  Printf.printf "%-28s %10.0f %10.1f %10.1f %12.0f\n"
                    (Option.value ~default:"?" (str "name" s))
                    (nf "retries" s) (gap "p50") (gap "p99")
                    (nf "alloc_words" s))
              live
          end;
          (* False-sharing report: one line per sampled source, plus
             any cache line whose ping-pong score is nonzero. *)
          (match Option.bind (J.member "false_sharing" doc) J.to_list with
          | None | Some [] -> ()
          | Some reports ->
            print_newline ();
            Printf.printf "%-20s %6s %14s %10s %10s\n" "FALSE-SHARING" "LINE"
              "WRITES/S" "WRITERS" "PING-PONG";
            List.iter
              (fun r ->
                let src = Option.value ~default:"?" (str "source" r) in
                let lines =
                  Option.value ~default:[]
                    (Option.bind (J.member "lines" r) J.to_list)
                in
                let hot =
                  List.filter (fun l -> nf "ping_pong" l > 0.) lines
                in
                if hot = [] then
                  Printf.printf "%-20s %6s %14s %10s %10s\n" src "-" "-" "-"
                    "0"
                else
                  List.iter
                    (fun l ->
                      Printf.printf "%-20s %6.0f %14.0f %10.0f %10.0f\n" src
                        (nf "line" l) (nf "writes_per_s" l) (nf "writers" l)
                        (nf "ping_pong" l))
                    hot)
              reports);
          (match J.member "memprof" doc with
          | Some m ->
            Printf.printf "memprof: %s%s\n"
              (Option.value ~default:"?" (str "state" m))
              (match str "reason" m with
              | Some r -> " (" ^ r ^ ")"
              | None -> (
                match num "sampling_rate" m with
                | Some r -> Printf.sprintf " (rate %g)" r
                | None -> ""))
          | None -> ());
          (* Registered views: the kv server publishes per-shard table
             views; anything else is listed by name. *)
          match Option.bind (J.member "views" doc) J.to_list with
          | None | Some [] -> ()
          | Some views ->
            List.iter
              (fun v ->
                let vname = Option.value ~default:"?" (str "name" v) in
                match Option.bind (J.member "view" v) J.to_list with
                | Some entries ->
                  Printf.printf "view %s:\n" vname;
                  List.iter
                    (fun e ->
                      Printf.printf
                        "  shard %.0f: buckets=%.0f cardinal=%.0f load=%.2f \
                         depth=%.0f frozen=%.0f migrating=%s\n"
                        (nf "shard" e) (nf "buckets" e) (nf "cardinal" e)
                        (nf "load_factor" e) (nf "max_depth" e)
                        (nf "frozen_buckets" e)
                        (match J.member "migrating" e with
                        | Some (J.Bool bv) -> string_of_bool bv
                        | _ -> "?"))
                    entries
                | None -> Printf.printf "view %s: (opaque)\n" vname)
              views)
  in
  let port_arg =
    let doc = "Metrics/HTTP port of the server (the /profile.json endpoint)." in
    Arg.(value & opt int 9464 & info [ "port" ] ~docv:"PORT" ~doc)
  in
  let json_arg =
    let doc = "Dump the raw /profile.json body instead of pretty-printing." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let top_arg =
    let doc = "Show at most $(docv) sites." in
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N" ~doc)
  in
  let term = Term.(const profile $ host_arg $ port_arg $ json_arg $ top_arg) in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Show a server's contention profile: ranked retry sites, \
          false-sharing scores, allocation attribution.")
    term

let () =
  let doc = "dynamic-sized nonblocking hash table workbench" in
  let info = Cmd.info "nbhash_cli" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd;
            sweep_cmd;
            hist_cmd;
            stats_cmd;
            trace_cmd;
            top_cmd;
            serve_cmd;
            load_cmd;
            drain_cmd;
            force_resize_cmd;
            slow_cmd;
            profile_cmd;
            list_cmd;
          ]))
