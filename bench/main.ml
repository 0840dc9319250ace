(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (section 8), plus the ablations indexed in
   DESIGN.md.

   Subcommands (default: every section in quick mode):
     f7 | x86 | policy | adaptive | shrink | fset | latency | churn | all
   Flags:
     --full        paper-scale parameters (longer trials, more configs)
     --smoke       seconds-scale parameters (CI sanity; overrides --full)
     --telemetry   install a recording probe; print per-impl event tables
     --json PATH   write machine-readable results (implies --telemetry)
     --trace PATH  install a flight-recorder ring and write the churn
                   section's merged trace as Chrome trace-event JSON
                   (open in Perfetto / chrome://tracing)
     --serve PORT  expose /metrics, /snapshot.json, /health and
                   /trace.json over HTTP while the bench runs (implies
                   --telemetry; port 0 picks a free port)
     --profile     install the contention profiler; print a ranked
                   table of retry sites and false-sharing scores after
                   the run (implies --telemetry, whose probe counts the
                   retries per site; with --serve, /profile.json goes
                   live)
     --profile-out PATH  write the final quiescent contention profile
                   as JSON (implies --profile)

   Throughputs are reported in operations per microsecond, as in the
   paper's charts. Absolute numbers are not comparable to the paper's
   (different language, runtime and machine — and this container has a
   single core, so thread counts above 1 are time-sliced); the claims
   under test are the relative shapes, recorded in EXPERIMENTS.md. *)

module Factory = Nbhash_workload.Factory
module Runner = Nbhash_workload.Runner
module Workload = Nbhash_workload.Workload
module Report = Nbhash_workload.Report
module Policy = Nbhash.Policy

let full = ref false
let smoke = ref false
let telemetry = ref false
let json_path = ref None
let trace_path = ref None
let serve_port = ref None
let profile = ref false
let profile_out = ref None

(* --- machine-readable trajectory (--json) --- *)

(* One object per (experiment, implementation, parameter point)
   measurement, accumulated in reverse and written as one document at
   exit. The schema is stable: consumers key on [schema]. *)
let json_results : string list ref = ref []

let emit_json ~exp ~impl ~params ~ops_per_usec ~telemetry =
  if !json_path <> None then begin
    let params =
      String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" k v) params)
    in
    let tele =
      match telemetry with
      | Some s -> Nbhash_telemetry.Snapshot.to_json s
      | None -> "null"
    in
    json_results :=
      Printf.sprintf
        "{\"exp\":\"%s\",\"impl\":\"%s\",\"params\":{%s},\"ops_per_usec\":%.6f,\"telemetry\":%s}"
        exp impl params ops_per_usec tele
      :: !json_results
  end

let write_json () =
  match !json_path with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Printf.fprintf oc
          "{\"schema\":\"nbhash-bench-v2\",\"mode\":\"%s\",\"meta\":%s,\"results\":[%s]}\n"
          (if !smoke then "smoke" else if !full then "full" else "quick")
          (Nbhash_telemetry.Meta.json ())
          (String.concat ",\n" (List.rev !json_results)));
    Printf.printf "\nwrote %d results to %s\n" (List.length !json_results) path

let write_trace () =
  match (!trace_path, Nbhash_telemetry.Trace.active ()) with
  | Some path, Some tr ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Nbhash_telemetry.Trace.write_chrome oc tr);
    Printf.printf "wrote %d trace records to %s (open in Perfetto)\n"
      (Array.length (Nbhash_telemetry.Trace.records tr))
      path
  | _ -> ()

(* --- per-table telemetry accumulated under --telemetry --- *)

let telemetry_acc : (string * Nbhash_telemetry.Snapshot.t) list ref = ref []

let note_telemetry name = function
  | Some snap -> telemetry_acc := (name, snap) :: !telemetry_acc
  | None -> ()

(* Print (and clear) the snapshots gathered since the last flush,
   i.e. the rows of the table that was just rendered. *)
let flush_telemetry () =
  match List.rev !telemetry_acc with
  | [] -> ()
  | rows ->
    telemetry_acc := [];
    print_endline "telemetry (measurement window):";
    Report.print_telemetry rows

(* --- contention profile report (--profile) --- *)

(* Printed once, after every chosen section: the per-site retry
   counts cover the last measurement window (they live in the probe,
   which the Runner and the churn arms reset), the gap histograms the
   whole run. With --profile-out, the same state is written as the
   /profile.json document, which CI cross-checks against the last
   churn arm's snapshot in the --json file. *)
let profile_report () =
  match Nbhash_telemetry.Profile.active () with
  | None -> ()
  | Some p ->
    let module Pr = Nbhash_telemetry.Profile in
    let module Site = Nbhash_telemetry.Site in
    Report.print_heading
      "P: contention profile (last measurement window)";
    let retries =
      Nbhash_telemetry.Probe.site_retries (Nbhash_telemetry.Global.get ())
    in
    let ranked =
      List.filter (fun (id, _) -> retries.(id) > 0) (Site.all ())
      |> List.sort (fun (a, _) (b, _) ->
             compare (retries.(b), a) (retries.(a), b))
    in
    if ranked = [] then print_endline "no retries recorded"
    else begin
      let rows =
        List.map
          (fun (id, name) ->
            let gap = Pr.gap_summary p id in
            let g f =
              match gap with
              | None -> "-"
              | Some s -> Printf.sprintf "%.1f" (f s /. 1e3)
            in
            [
              name;
              string_of_int retries.(id);
              g (fun s -> s.Nbhash_util.Stats.median);
              g (fun s -> s.Nbhash_util.Stats.p99);
              string_of_int (Pr.alloc_words p id);
            ])
          ranked
      in
      Report.print_table
        ~header:
          [ "site"; "retries"; "gap p50 us"; "gap p99 us"; "alloc words" ]
        ~rows
    end;
    Printf.printf "per-site total %d\n" (Array.fold_left ( + ) 0 retries);
    (* Only the lane sources written during the sampling window. *)
    let reports = Pr.false_sharing p in
    (match List.filter (fun r -> r.Pr.lines <> []) reports with
    | [] ->
      Printf.printf "false-sharing: none of %d lane sources written\n"
        (List.length reports)
    | active ->
      List.iter
        (fun r ->
          Printf.printf "false-sharing %-16s max ping-pong %.0f (%d lines)\n"
            r.Pr.source r.Pr.max_score (List.length r.Pr.lines))
        active);
    match !profile_out with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Pr.json_body ~retries p));
      Printf.printf "wrote contention profile to %s\n" path

(* The dynamic tables run with resizing enabled, as in the paper; the
   SplitOrder baseline is presized for each experiment ("optimized its
   configuration ... for the size of each experiment"). *)
let dynamic_policy = { Policy.default with init_buckets = 64 }

let policy_for name ~key_range =
  if name = "SplitOrder" || name = "Michael" then
    Policy.presized (max 64 (key_range / 2))
  else dynamic_policy

let make_table (name, (maker : Factory.maker)) ~key_range ~threads () =
  maker ~policy:(policy_for name ~key_range) ~max_threads:(threads + 2) ()

let throughput_of (name, maker) ~exp ~key_range ~lookup_ratio ~threads
    ~duration ~trials =
  let spec = Workload.spec ~lookup_ratio ~key_range () in
  let last, summary =
    Runner.run_trials
      (make_table (name, maker) ~key_range ~threads)
      ~threads ~spec ~duration ~trials
  in
  let median = summary.Nbhash_util.Stats.median in
  emit_json ~exp ~impl:name
    ~params:
      [
        ("threads", string_of_int threads);
        ("key_range", string_of_int key_range);
        ("lookup_ratio", Printf.sprintf "%.2f" lookup_ratio);
        ("duration", Printf.sprintf "%.2f" duration);
        ("trials", string_of_int trials);
      ]
    ~ops_per_usec:median ~telemetry:last.Runner.telemetry;
  note_telemetry name last.Runner.telemetry;
  median

(* ------------------------------------------------------------------ *)
(* F7: the microbenchmark grid of Figure 7.                            *)

let f7 () =
  Report.print_heading
    "F7: Microbenchmark throughput grid (Figure 7) [ops/usec]";
  let ratios =
    if !smoke then [ 0.9 ]
    else if !full then [ 0.0; 0.34; 0.9 ]
    else [ 0.0; 0.9 ]
  in
  let ranges =
    if !smoke then [ 1 lsl 8 ]
    else if !full then [ 1 lsl 8; 1 lsl 16; 1 lsl 20 ]
    else [ 1 lsl 8; 1 lsl 16 ]
  in
  let threads =
    if !smoke then [ 2 ] else if !full then [ 1; 2; 4; 8 ] else [ 1; 4 ]
  in
  let duration = if !smoke then 0.05 else if !full then 1.0 else 0.3 in
  let trials = if !smoke then 1 else if !full then 3 else 2 in
  List.iter
    (fun key_range ->
      List.iter
        (fun lookup_ratio ->
          Printf.printf "\n-- key range 2^%d, lookup ratio %.0f%% --\n"
            (Nbhash_util.Bits.log2 key_range)
            (lookup_ratio *. 100.);
          let header =
            "algorithm" :: List.map (Printf.sprintf "T=%d") threads
          in
          let rows =
            List.map
              (fun alg ->
                fst alg
                :: List.map
                     (fun t ->
                       Report.ops_per_usec
                         (throughput_of alg ~exp:"f7" ~key_range
                            ~lookup_ratio ~threads:t ~duration ~trials))
                     threads)
              Factory.all_nine
          in
          Report.print_table ~header ~rows;
          flush_telemetry ())
        ratios)
    ranges

(* ------------------------------------------------------------------ *)
(* T-x86: the textual claims of section 8.2 as a table.                *)

let x86 () =
  let key_range = if !smoke then 1 lsl 10 else 1 lsl 16 in
  Report.print_heading
    (Printf.sprintf "T-x86: section 8.2 comparison (range 2^%d) [ops/usec]"
       (Nbhash_util.Bits.log2 key_range));
  let threads = if !smoke then 2 else if !full then 4 else 1 in
  let duration = if !smoke then 0.1 else if !full then 1.0 else 0.4 in
  let trials = if !smoke then 1 else if !full then 5 else 3 in
  let ratios = [ 0.34; 0.9 ] in
  let cell alg lookup_ratio =
    throughput_of alg ~exp:"x86" ~key_range ~lookup_ratio ~threads ~duration
      ~trials
  in
  let results =
    List.map
      (fun alg -> (fst alg, List.map (cell alg) ratios))
      Factory.all_nine
  in
  let header =
    "algorithm"
    :: List.map (fun r -> Printf.sprintf "L=%.0f%%" (r *. 100.)) ratios
  in
  let rows =
    List.map (fun (n, xs) -> n :: List.map Report.ops_per_usec xs) results
  in
  Report.print_table ~header ~rows;
  flush_telemetry ();
  let get n = List.assoc n results in
  let ratio a b i = List.nth (get a) i /. List.nth (get b) i in
  Printf.printf
    "\nclaims: LFArrayOpt/LFArray = %.2f, %.2f (paper: little difference)\n"
    (ratio "LFArrayOpt" "LFArray" 0)
    (ratio "LFArrayOpt" "LFArray" 1);
  Printf.printf
    "        LFArray/SplitOrder = %.2f, %.2f (paper: >1 in most cases)\n"
    (ratio "LFArray" "SplitOrder" 0)
    (ratio "LFArray" "SplitOrder" 1);
  Printf.printf
    "        Adaptive/LFList at L=90%% = %.2f (paper: closes much of the gap)\n"
    (ratio "Adaptive" "LFList" 1);
  Printf.printf "        Adaptive/WFArray = %.2f, %.2f (paper: >1)\n"
    (ratio "Adaptive" "WFArray" 0)
    (ratio "Adaptive" "WFArray" 1)

(* ------------------------------------------------------------------ *)
(* A1: resize-policy ablation on LFArray.                              *)

let policy_ablation () =
  Report.print_heading
    "A1: resize-policy ablation, LFArray (heuristic and threshold sweep)";
  let key_range = 1 lsl 16 in
  let threads = if !full then 4 else 1 in
  let duration = if !full then 1.0 else 0.4 in
  let maker = Factory.by_name "LFArray" in
  let spec = Workload.spec ~lookup_ratio:0.34 ~key_range () in
  let variants =
    [
      ("presized (off)", Policy.presized (key_range / 2));
      ( "load 3.0/0.75",
        {
          dynamic_policy with
          heuristic = Policy.Load_factor { grow = 3.0; shrink = 0.75 };
        } );
      ( "load 6.0/1.5",
        {
          dynamic_policy with
          heuristic = Policy.Load_factor { grow = 6.0; shrink = 1.5 };
        } );
      ( "load 12.0/3.0",
        {
          dynamic_policy with
          heuristic = Policy.Load_factor { grow = 12.0; shrink = 3.0 };
        } );
      ( "bucket 8 (paper)",
        {
          dynamic_policy with
          heuristic =
            Policy.Bucket_size
              {
                grow_threshold = 8;
                shrink_threshold = 2;
                shrink_samples = 4;
                shrink_period = 64;
              };
        } );
      ( "bucket 16 (paper)",
        {
          dynamic_policy with
          heuristic =
            Policy.Bucket_size
              {
                grow_threshold = 16;
                shrink_threshold = 2;
                shrink_samples = 4;
                shrink_period = 64;
              };
        } );
    ]
  in
  let rows =
    List.map
      (fun (label, policy) ->
        let table = maker ~policy ~max_threads:(threads + 2) () in
        let r = Runner.run table ~threads ~spec ~duration () in
        let stats = table.Factory.resize_stats () in
        table.Factory.close ();
        [
          label;
          Report.ops_per_usec r.Runner.throughput;
          string_of_int r.Runner.final_buckets;
          Printf.sprintf "%.1f"
            (float_of_int r.Runner.final_cardinal
            /. float_of_int r.Runner.final_buckets);
          string_of_int stats.Nbhash.Hashset_intf.grows;
          string_of_int stats.Nbhash.Hashset_intf.shrinks;
        ])
      variants
  in
  Report.print_table
    ~header:[ "policy"; "ops/usec"; "buckets"; "avg bucket"; "grows"; "shrinks" ]
    ~rows;
  print_endline
    "(the paper's per-bucket heuristic has no hysteresis: steady-state tail \
     buckets keep\n\
    \ re-triggering grows, which is why the count-based band is the default \
     here)"

(* ------------------------------------------------------------------ *)
(* A2: Fastpath/Slowpath threshold sweep under resize churn.           *)

let adaptive_ablation () =
  Report.print_heading
    "A2: Adaptive fast-path threshold sweep (aggressive resizing)";
  let key_range = 1 lsl 8 in
  let threads = if !full then 4 else 2 in
  let duration = if !full then 1.0 else 0.25 in
  let spec = Workload.spec ~lookup_ratio:0. ~key_range () in
  let rows =
    List.map
      (fun fast_threshold ->
        let maker = Factory.adaptive_tuned ~fast_threshold in
        let table =
          maker ~policy:Policy.aggressive ~max_threads:(threads + 2) ()
        in
        let r = Runner.run table ~threads ~spec ~duration () in
        let stats = table.Factory.resize_stats () in
        table.Factory.close ();
        [
          string_of_int fast_threshold;
          Report.ops_per_usec r.Runner.throughput;
          string_of_int r.Runner.final_buckets;
          string_of_int
            (stats.Nbhash.Hashset_intf.grows
            + stats.Nbhash.Hashset_intf.shrinks);
        ])
      [ 16; 64; 256; 1024 ]
  in
  Report.print_table
    ~header:[ "threshold"; "ops/usec"; "buckets"; "resizes" ]
    ~rows;
  print_endline
    "(paper: 256 'virtually guarantees no fallbacks' - the series should be \
     flat)"

(* ------------------------------------------------------------------ *)
(* A3: shrink capability - the headline delta vs SplitOrder.           *)

let shrink_demo () =
  Report.print_heading
    "A3: dynamic shrinking (LFArray) vs grow-only baseline (SplitOrder)";
  let n = if !full then 1 lsl 17 else 1 lsl 14 in
  let lf = Factory.by_name "LFArray" ~policy:Policy.aggressive () in
  let so =
    Factory.by_name "SplitOrder"
      ~policy:
        {
          Policy.default with
          heuristic = Policy.Load_factor { grow = 2.0; shrink = 0.5 };
        }
      ()
  in
  let phase_rows = ref [] in
  let record phase =
    phase_rows :=
      [
        phase;
        string_of_int (lf.Factory.bucket_count ());
        string_of_int (so.Factory.bucket_count ());
        string_of_int (lf.Factory.cardinal ());
      ]
      :: !phase_rows
  in
  let lh = lf.Factory.new_handle () and sh = so.Factory.new_handle () in
  record "empty";
  for k = 0 to n - 1 do
    ignore (lh.Factory.ins k);
    ignore (sh.Factory.ins k)
  done;
  record (Printf.sprintf "after %d inserts" n);
  for k = 0 to n - 1 do
    ignore (lh.Factory.rem k);
    ignore (sh.Factory.rem k)
  done;
  record "after removing all";
  (* Further removes keep exercising the shrink heuristic. *)
  for k = 0 to (4 * n) - 1 do
    ignore (lh.Factory.rem (k land (n - 1)));
    ignore (sh.Factory.rem (k land (n - 1)))
  done;
  record "after idle churn";
  Report.print_table
    ~header:[ "phase"; "LFArray buckets"; "SplitOrder buckets"; "cardinal" ]
    ~rows:(List.rev !phase_rows);
  lf.Factory.close ();
  so.Factory.close ();
  print_endline
    "(the paper's motivation: SplitOrder can only grow; our table returns to \
     a small bucket array)"

(* ------------------------------------------------------------------ *)
(* E1 (extension, not in the paper): key-popularity skew. Zipfian
   traffic concentrates updates on a few buckets; copy-on-write array
   buckets pay repeated whole-bucket copies on the hot keys, while the
   one-node-per-update lists are less sensitive.                       *)

let skew_bench () =
  Report.print_heading
    "E1: key-popularity skew (Zipf) [ops/usec] - extension beyond the paper";
  let key_range = 1 lsl 14 in
  let threads = if !full then 4 else 1 in
  let duration = if !full then 1.0 else 0.3 in
  let trials = if !full then 3 else 2 in
  let exponents = [ 0.0; 0.8; 1.2 ] in
  let algos =
    [ "SplitOrder"; "LFArray"; "LFArrayOpt"; "LFList"; "LFUlist"; "Locked" ]
  in
  let rows =
    List.map
      (fun name ->
        let maker = Factory.by_name name in
        name
        :: List.map
             (fun s ->
               let dist =
                 if s = 0.0 then Workload.Uniform else Workload.Zipf s
               in
               let spec =
                 Workload.spec ~lookup_ratio:0.34 ~dist ~key_range ()
               in
               let make () =
                 maker
                   ~policy:(policy_for name ~key_range)
                   ~max_threads:(threads + 2) ()
               in
               let _, summary =
                 Runner.run_trials make ~threads ~spec ~duration ~trials
               in
               Report.ops_per_usec summary.Nbhash_util.Stats.median)
             exponents)
      algos
  in
  Report.print_table
    ~header:
      ("algorithm" :: List.map (Printf.sprintf "zipf s=%.1f") exponents)
    ~rows

(* ------------------------------------------------------------------ *)
(* M1 (extension): the future-work map variants. Single-thread mixed
   put/get/remove throughput for the lock-free map, the wait-free map,
   and a mutex-protected stdlib Hashtbl.                               *)

let map_bench () =
  Report.print_heading
    "M1: map extension throughput (put/get/remove) [ops/usec]";
  let key_range = 1 lsl 14 in
  let iters = if !full then 2_000_000 else 400_000 in
  let run_map name ~put ~get ~del =
    let rng = Nbhash_util.Xoshiro.create 4096 in
    (* steady state: prepopulate half the range *)
    for k = 0 to (key_range / 2) - 1 do
      put (k * 2) k
    done;
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      let k = Nbhash_util.Xoshiro.below rng key_range in
      match Nbhash_util.Xoshiro.below rng 4 with
      | 0 -> put k k
      | 1 -> ignore (del k)
      | _ -> ignore (get k)
    done;
    let dt = Unix.gettimeofday () -. t0 in
    [ name; Report.ops_per_usec (Float.of_int iters /. (dt *. 1e6)) ]
  in
  let lf () =
    let t = Nbhash.Hashmap.create () in
    let h = Nbhash.Hashmap.register t in
    run_map "Hashmap (lock-free)"
      ~put:(fun k v -> ignore (Nbhash.Hashmap.put h k v))
      ~get:(fun k -> Option.is_some (Nbhash.Hashmap.get h k))
      ~del:(fun k -> Option.is_some (Nbhash.Hashmap.remove h k))
  in
  let wf () =
    let t = Nbhash.Wf_hashmap.create ~max_threads:4 () in
    let h = Nbhash.Wf_hashmap.register t in
    run_map "Wf_hashmap (wait-free)"
      ~put:(fun k v -> ignore (Nbhash.Wf_hashmap.put h k v))
      ~get:(fun k -> Option.is_some (Nbhash.Wf_hashmap.get h k))
      ~del:(fun k -> Option.is_some (Nbhash.Wf_hashmap.remove h k))
  in
  let locked () =
    let tbl = Hashtbl.create 64 in
    let m = Mutex.create () in
    let guard f = Mutex.lock m; Fun.protect ~finally:(fun () -> Mutex.unlock m) f in
    run_map "Hashtbl+mutex"
      ~put:(fun k v -> guard (fun () -> Hashtbl.replace tbl k v))
      ~get:(fun k -> guard (fun () -> Hashtbl.mem tbl k))
      ~del:(fun k ->
        guard (fun () ->
            let p = Hashtbl.mem tbl k in
            Hashtbl.remove tbl k;
            p))
  in
  Report.print_table
    ~header:[ "map"; "ops/usec" ]
    ~rows:[ lf (); wf (); locked () ]

(* ------------------------------------------------------------------ *)
(* A5: memory footprint per element.                                   *)

let memory_bench () =
  Report.print_heading "A5: live heap footprint (words/element, via Obj)";
  let n = if !full then 1 lsl 16 else 1 lsl 13 in
  let rows =
    List.map
      (fun ((name, maker) : string * Factory.maker) ->
        let table = maker ~policy:(policy_for name ~key_range:(2 * n)) () in
        let ops = table.Factory.new_handle () in
        for k = 0 to n - 1 do
          ignore (ops.Factory.ins k)
        done;
        let words = Obj.reachable_words (Obj.repr table) in
        let row =
          [
            name;
            string_of_int words;
            Printf.sprintf "%.1f" (float_of_int words /. float_of_int n);
            string_of_int (table.Factory.bucket_count ());
          ]
        in
        table.Factory.close ();
        row)
      Factory.with_michael
  in
  Report.print_table
    ~header:[ "table"; "total words"; "words/elem"; "buckets" ]
    ~rows;
  print_endline
    "(SplitOrder's footprint includes its permanent dummy nodes and segment \
     directory)"

(* ------------------------------------------------------------------ *)
(* Bechamel-based latency sections.                                    *)

let run_bechamel ~name tests =
  let open Bechamel in
  let quota = if !full then 0.5 else 0.2 in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ()
  in
  let raw =
    Benchmark.all cfg
      Toolkit.Instance.[ monotonic_clock ]
      (Test.make_grouped ~name tests)
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun k v acc ->
        let ns =
          match Analyze.OLS.estimates v with
          | Some (x :: _) -> x
          | Some [] | None -> nan
        in
        (k, ns) :: acc)
      results []
    |> List.sort compare
  in
  Report.print_table
    ~header:[ "benchmark"; "ns/op" ]
    ~rows:(List.map (fun (k, ns) -> [ k; Printf.sprintf "%.1f" ns ]) rows)

(* A4: per-bucket FSet representation latency (section 6's locality
   argument, at realistic bucket occupancies). *)
let fset_bench () =
  Report.print_heading "A4: FSet bucket-representation latency";
  let open Bechamel in
  let occupancies = [ 2; 8; 32 ] in
  let make_lf (module F : Nbhash_fset.Fset_intf.S) id =
    List.concat_map
      (fun n ->
        let elems = Array.init n (fun i -> i * 2) in
        let t = F.create elems in
        let probe = n in
        (* absent key: worst-case scan *)
        [
          Test.make
            ~name:(Printf.sprintf "%s contains n=%d" id n)
            (Staged.stage (fun () -> F.has_member t probe));
          Test.make
            ~name:(Printf.sprintf "%s ins+rem n=%d" id n)
            (Staged.stage (fun () ->
                 let op = F.make_op Nbhash_fset.Fset_intf.Ins probe in
                 ignore (F.invoke t op);
                 let op = F.make_op Nbhash_fset.Fset_intf.Rem probe in
                 ignore (F.invoke t op)));
        ])
      occupancies
  in
  let make_wf (module F : Nbhash_fset.Fset_intf.WF) id =
    let prio = Atomic.make 1 in
    List.concat_map
      (fun n ->
        let elems = Array.init n (fun i -> i * 2) in
        let t = F.create elems in
        let probe = n in
        [
          Test.make
            ~name:(Printf.sprintf "%s contains n=%d" id n)
            (Staged.stage (fun () -> F.has_member t probe));
          Test.make
            ~name:(Printf.sprintf "%s ins+rem n=%d" id n)
            (Staged.stage (fun () ->
                 let op =
                   F.make_op Nbhash_fset.Fset_intf.Ins probe
                     ~prio:(Atomic.fetch_and_add prio 1)
                 in
                 ignore (F.invoke t op);
                 let op =
                   F.make_op Nbhash_fset.Fset_intf.Rem probe
                     ~prio:(Atomic.fetch_and_add prio 1)
                 in
                 ignore (F.invoke t op)));
        ])
      occupancies
  in
  run_bechamel ~name:"fset"
    (make_lf (module Nbhash_fset.Lf_array_fset) "lf-array"
    @ make_lf (module Nbhash_fset.Lf_list_fset) "lf-list"
    @ make_lf (module Nbhash_fset.Flat_fset) "lf-flat"
    @ make_wf (module Nbhash_fset.Wf_array_fset) "wf-array"
    @ make_wf (module Nbhash_fset.Wf_list_fset) "wf-list")

(* L1: single-thread operation latency per table (the left edge of
   Figure 7). One Bechamel Test.make per table. *)
let latency_bench () =
  Report.print_heading "L1: single-thread mixed-operation latency per table";
  let open Bechamel in
  let key_range = 1 lsl 16 in
  let spec = Workload.spec ~lookup_ratio:0.34 ~key_range () in
  let tables = ref [] in
  let tests =
    List.map
      (fun ((name, maker) : string * Factory.maker) ->
        let table =
          maker ~policy:(policy_for name ~key_range) ~max_threads:4 ()
        in
        tables := table :: !tables;
        Runner.prepopulate table spec ~seed:7;
        let ops = table.Factory.new_handle () in
        let rng = Nbhash_util.Xoshiro.create 99 in
        Test.make ~name
          (Staged.stage (fun () ->
               match Workload.next spec rng with
               | Workload.Lookup, k -> ignore (ops.Factory.look k)
               | Workload.Insert, k -> ignore (ops.Factory.ins k)
               | Workload.Remove, k -> ignore (ops.Factory.rem k))))
      Factory.with_michael
  in
  run_bechamel ~name:"table" tests;
  List.iter (fun t -> t.Factory.close ()) !tables

(* ------------------------------------------------------------------ *)
(* C1: grow/shrink churn — migration-tail latency with the cooperative
   sweep (eager helpers) vs the lazy [init_bucket] backstop alone.
   Worker domains run a 50/50 insert/remove mix and time every
   operation while a dedicated domain storms forced grows and shrinks,
   so a sizable fraction of operations lands inside a migration
   window. The eager arm lets those operations claim whole chunks
   (finishing the window quickly); the lazy arm makes each of them pay
   per-bucket freeze-and-copy until the window drains. The headline
   number is the per-operation p99 across the whole run.              *)

let churn_bench () =
  Report.print_heading
    "C1: grow/shrink churn - per-op latency, eager sweep vs lazy-only [ns]";
  (* Scope an installed flight recorder to this section: the trace
     written at exit then covers the churn arms (the most temporally
     interesting part of the suite — resize windows, sweeps, freezes,
     and worker updates interleaving). *)
  (match Nbhash_telemetry.Trace.active () with
  | Some tr -> Nbhash_telemetry.Trace.clear tr
  | None -> ());
  let workers = 4 in
  let key_range = 1 lsl 17 in
  let duration = if !smoke then 0.8 else if !full then 4.0 else 2.0 in
  let storm_gap = 0.25 in
  let cap = 2_000_000 in
  (* RESIZE completes the PREVIOUS migration and installs a fresh
     all-nil head, so each forced resize opens a window that stays
     open for the whole storm gap unless someone drains it. The table
     is large relative to the ops in one gap, so in the lazy arm most
     updates first-touch a nil bucket and pay the per-bucket
     freeze-and-copy tax for the entire window. In the eager arm the
     sweep cursor hands the whole table out within the first few
     thousand operations; the chunk is large so those helping ops are
     rare (well under 1% — they surface at p99.9, not p99) and
     everything after them runs on migrated buckets. *)
  let base = Policy.presized (key_range / 4) in
  let eager_policy =
    {
      base with
      Policy.migration = { Policy.eager = true; chunk = 64; max_helpers = 4 };
    }
  in
  let arm (impl, label, policy) =
    let tag = impl ^ "/" ^ label in
    let maker = Factory.by_name impl in
    let table = maker ~policy ~max_threads:(workers + 2) () in
    let seed = table.Factory.new_handle () in
    for k = 0 to key_range - 1 do
      if k land 1 = 0 then ignore (seed.Factory.ins k)
    done;
    if !telemetry then Nbhash_telemetry.Global.reset ();
    let stop = Atomic.make false in
    let lats = Array.init workers (fun _ -> Array.make cap 0.) in
    let counts = Array.make workers 0 in
    let worker d () =
      let ops = table.Factory.new_handle () in
      let rng = Nbhash_util.Xoshiro.create (31 + d) in
      let a = lats.(d) in
      let n = ref 0 in
      while (not (Atomic.get stop)) && !n < cap do
        let k = Nbhash_util.Xoshiro.below rng key_range in
        (* The repo-wide clock (also behind probe spans and trace
           records), so a latency outlier here can be lined up against
           the flight-recorder stream on the same time axis. *)
        let t0 = Nbhash_util.Clock.now_ns () in
        (if Nbhash_util.Xoshiro.below rng 2 = 0 then ignore (ops.Factory.ins k)
         else ignore (ops.Factory.rem k));
        a.(!n) <- float_of_int (Nbhash_util.Clock.now_ns () - t0);
        incr n
      done;
      counts.(d) <- !n;
      ops.Factory.detach ()
    in
    let stormer () =
      let ops = table.Factory.new_handle () in
      let i = ref 0 in
      while not (Atomic.get stop) do
        incr i;
        ops.Factory.force_resize ~grow:(!i mod 2 = 0);
        (* Sleep, don't spin: the window belongs to the workers. *)
        Unix.sleepf storm_gap
      done;
      ops.Factory.detach ()
    in
    let ds =
      Domain.spawn stormer
      :: List.init workers (fun d -> Domain.spawn (worker d))
    in
    Unix.sleepf duration;
    Atomic.set stop true;
    List.iter Domain.join ds;
    table.Factory.check_invariants ();
    let total = Array.fold_left ( + ) 0 counts in
    let all = Array.make total 0. in
    let off = ref 0 in
    Array.iteri
      (fun d n ->
        Array.blit lats.(d) 0 all !off n;
        off := !off + n)
      counts;
    Array.sort compare all;
    let pct p = Nbhash_util.Stats.percentile_sorted all p in
    let p50 = pct 50. and p99 = pct 99. and p999 = pct 99.9 in
    let maxl = if total = 0 then 0. else all.(total - 1) in
    let stats = table.Factory.resize_stats () in
    let snap =
      if !telemetry then Some (Nbhash_telemetry.Global.snapshot ()) else None
    in
    emit_json ~exp:"churn" ~impl:tag
      ~params:
        [
          ("workers", string_of_int workers);
          ("key_range", string_of_int key_range);
          ("duration", Printf.sprintf "%.2f" duration);
          ("ops", string_of_int total);
          ("p50_ns", Printf.sprintf "%.0f" p50);
          ("p99_ns", Printf.sprintf "%.0f" p99);
          ("p999_ns", Printf.sprintf "%.0f" p999);
          ("max_ns", Printf.sprintf "%.0f" maxl);
        ]
      ~ops_per_usec:(Float.of_int total /. (duration *. 1e6))
      ~telemetry:snap;
    note_telemetry tag snap;
    table.Factory.close ();
    ( tag,
      p99,
      [
        tag;
        Report.ops_per_usec (Float.of_int total /. (duration *. 1e6));
        Printf.sprintf "%.0f" p50;
        Printf.sprintf "%.0f" p99;
        Printf.sprintf "%.0f" p999;
        Printf.sprintf "%.0f" maxl;
        string_of_int
          (stats.Nbhash.Hashset_intf.grows + stats.Nbhash.Hashset_intf.shrinks);
      ] )
  in
  let impls = [ "LFArrayOpt"; "LFFlat" ] in
  let arms =
    List.concat_map
      (fun impl ->
        [
          (impl, "eager-sweep", eager_policy);
          (impl, "lazy-only", Policy.lazy_migration base);
        ])
      impls
  in
  let results = List.map arm arms in
  Report.print_table
    ~header:
      [ "migration"; "ops/usec"; "p50"; "p99"; "p99.9"; "max"; "resizes" ]
    ~rows:(List.map (fun (_, _, row) -> row) results);
  flush_telemetry ();
  let p99_of tag =
    List.find_map (fun (t, p, _) -> if t = tag then Some p else None) results
  in
  List.iter
    (fun impl ->
      match (p99_of (impl ^ "/eager-sweep"), p99_of (impl ^ "/lazy-only")) with
      | Some eager_p99, Some lazy_p99 ->
        Printf.printf
          "\n%s migration-tail p99: eager %.0f ns vs lazy %.0f ns (%.2fx)\n"
          impl eager_p99 lazy_p99
          (lazy_p99 /. Float.max eager_p99 1.)
      | _ -> ())
    impls

(* ------------------------------------------------------------------ *)

let sections =
  [
    ("f7", f7);
    ("x86", x86);
    ("policy", policy_ablation);
    ("adaptive", adaptive_ablation);
    ("shrink", shrink_demo);
    ("skew", skew_bench);
    ("map", map_bench);
    ("memory", memory_bench);
    ("fset", fset_bench);
    ("latency", latency_bench);
    ("churn", churn_bench);
  ]

let () =
  let rec parse acc = function
    | [] -> List.rev acc
    | "--full" :: rest ->
      full := true;
      parse acc rest
    | "--smoke" :: rest ->
      smoke := true;
      parse acc rest
    | "--telemetry" :: rest ->
      telemetry := true;
      parse acc rest
    | "--json" :: path :: rest ->
      json_path := Some path;
      parse acc rest
    | [ "--json" ] ->
      prerr_endline "--json requires a path";
      exit 1
    | "--trace" :: path :: rest ->
      trace_path := Some path;
      parse acc rest
    | [ "--trace" ] ->
      prerr_endline "--trace requires a path";
      exit 1
    | "--profile" :: rest ->
      profile := true;
      parse acc rest
    | "--profile-out" :: path :: rest ->
      profile_out := Some path;
      parse acc rest
    | [ "--profile-out" ] ->
      prerr_endline "--profile-out requires a path";
      exit 1
    | "--serve" :: port :: rest -> (
      match int_of_string_opt port with
      | Some p when p >= 0 && p < 65536 ->
        serve_port := Some p;
        parse acc rest
      | _ ->
        prerr_endline "--serve requires a port number";
        exit 1)
    | [ "--serve" ] ->
      prerr_endline "--serve requires a port number";
      exit 1
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  if !smoke then full := false;
  if !json_path <> None then telemetry := true;
  if !serve_port <> None then telemetry := true;
  if !profile_out <> None then profile := true;
  (* The per-site retry counts the profile report ranks live in the
     recording probe. *)
  if !profile then telemetry := true;
  if !telemetry then
    Nbhash_telemetry.Global.install (Nbhash_telemetry.Probe.recording ());
  if !profile then
    Nbhash_telemetry.Profile.install (Nbhash_telemetry.Profile.create ());
  if !trace_path <> None then
    Nbhash_telemetry.Trace.install
      (Nbhash_telemetry.Trace.create ~lanes:64 ~capacity:(1 lsl 14) ());
  let server =
    match !serve_port with
    | None -> None
    | Some port -> (
      match
        Nbhash_telemetry.Metrics_server.start ~port
          ~watchdog:(Nbhash_telemetry.Watchdog.global ())
          ()
      with
      | s ->
        Printf.printf "serving metrics on http://127.0.0.1:%d/metrics\n%!"
          (Nbhash_telemetry.Metrics_server.port s);
        Some s
      | exception Nbhash_telemetry.Metrics_server.Bind_error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1)
  in
  let chosen =
    match args with
    | [] | [ "all" ] -> List.map fst sections
    | names -> names
  in
  Printf.printf "nbhash benchmark harness (%s mode, %d cores visible)\n"
    (if !smoke then "smoke" else if !full then "full" else "quick")
    (Domain.recommended_domain_count ());
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
        Printf.eprintf "unknown section %S; known: %s\n" name
          (String.concat ", " (List.map fst sections));
        exit 1)
    chosen;
  profile_report ();
  write_json ();
  write_trace ();
  Option.iter Nbhash_telemetry.Metrics_server.stop server
