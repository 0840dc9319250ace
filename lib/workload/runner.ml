module Atomic = Nbhash_util.Nb_atomic

type result = {
  table : string;
  threads : int;
  spec : Workload.spec;
  duration : float;
  total_ops : int;
  throughput : float;
  final_buckets : int;
  final_cardinal : int;
  telemetry : Nbhash_telemetry.Snapshot.t option;
}

let prepopulate table spec ~seed =
  let rng = Nbhash_util.Xoshiro.create seed in
  let ops = table.Factory.new_handle () in
  for k = 0 to spec.Workload.key_range - 1 do
    if Nbhash_util.Xoshiro.float rng < spec.Workload.prepopulate then
      ignore (ops.Factory.ins k)
  done;
  ops.Factory.detach ()

let now () = Unix.gettimeofday ()

(* Each worker draws operations from a private stream and counts
   completions; the main thread opens the measurement window with a
   barrier, sleeps, raises the stop flag, and joins. *)
let run table ~threads ~spec ~duration ?(seed = 42) () =
  prepopulate table spec ~seed;
  let barrier = Barrier.create (threads + 1) in
  let stop = Atomic.make false in
  let counts = Array.make threads 0 in
  let worker i () =
    let ops = table.Factory.new_handle () in
    let rng = Nbhash_util.Xoshiro.create (seed + 1000 + i) in
    Barrier.wait barrier;
    let n = ref 0 in
    while not (Atomic.get stop) do
      (match Workload.next spec rng with
      | Workload.Lookup, k -> ignore (ops.Factory.look k)
      | Workload.Insert, k -> ignore (ops.Factory.ins k)
      | Workload.Remove, k -> ignore (ops.Factory.rem k));
      incr n
    done;
    counts.(i) <- !n;
    ops.Factory.detach ()
  in
  (* When a recording probe is installed, scope its counters to the
     measurement window: prepopulation events are discarded here, and
     the snapshot is read only after every worker has joined. *)
  let recording = Nbhash_telemetry.Global.is_recording () in
  if recording then Nbhash_telemetry.Global.reset ();
  (* Same scoping for the flight recorder: drop prepopulation records
     so an installed trace ring covers only the measurement window. *)
  (match Nbhash_telemetry.Trace.active () with
  | Some tr -> Nbhash_telemetry.Trace.clear tr
  | None -> ());
  let domains = List.init threads (fun i -> Domain.spawn (worker i)) in
  Barrier.wait barrier;
  let t0 = now () in
  Unix.sleepf duration;
  Atomic.set stop true
  [@nbhash.cas_ok
    "one-way false -> true stop latch, written only by the coordinator \
     that created it"];
  List.iter Domain.join domains;
  let t1 = now () in
  let total_ops = Array.fold_left ( + ) 0 counts in
  let measured = t1 -. t0 in
  {
    table = table.Factory.name;
    threads;
    spec;
    duration = measured;
    total_ops;
    throughput = Float.of_int total_ops /. (measured *. 1e6);
    final_buckets = table.Factory.bucket_count ();
    final_cardinal = table.Factory.cardinal ();
    telemetry =
      (if recording then Some (Nbhash_telemetry.Global.snapshot ()) else None);
  }

let run_trials make_table ~threads ~spec ~duration ~trials =
  assert (trials > 0);
  let results =
    List.init trials (fun i ->
        let table = make_table () in
        let r = run table ~threads ~spec ~duration ~seed:(42 + (100 * i)) () in
        (* Retire the trial's gauges/watchdog registrations so a serve
           endpoint only ever exposes live tables. *)
        table.Factory.close ();
        r)
  in
  let throughputs =
    Array.of_list (List.map (fun r -> r.throughput) results)
  in
  (List.nth results (trials - 1), Nbhash_util.Stats.summarize throughputs)
