(* The contention & allocation profiler.

   Covers: site-registry exactness (ids stable, idempotent by name,
   unknown fallback), exact per-site retry counts (kept by the
   recording probe) single- and multi-domain with the snapshot's
   cas_retry equal to their sum, retry-gap histogram accounting, the
   deterministic ping-pong scoring of the false-sharing detector and
   its live verdict on a padded lane set against a packed control, Memprof attribution surviving both a
   5.1 runtime (unavailable, reported not raised) and a 5.2 one
   (sampling live), the Gc-asserted allocation-free disabled path, and
   well-formed /profile.json and snapshot-block documents. *)

module Profile = Nbhash_telemetry.Profile
module Site = Nbhash_telemetry.Site
module Global = Nbhash_telemetry.Global
module Probe = Nbhash_telemetry.Probe
module Event = Nbhash_telemetry.Event
module Snapshot = Nbhash_telemetry.Snapshot
module Lanes = Nbhash_telemetry.Lanes
module Json = Nbhash_util.Json

(* The profiler is ambient, like the trace rings: scope every
   installation and never leave one behind. The per-site retry counts
   live in the recording probe, so one is installed alongside. *)
let with_profile f =
  let prev = Global.get () in
  Global.install (Probe.recording ());
  let p = Profile.create () in
  Profile.install p;
  Fun.protect
    ~finally:(fun () ->
      Profile.uninstall ();
      Global.install prev)
    (fun () -> f p)

let site_retries () = Probe.site_retries (Global.get ())
let retries site = (site_retries ()).(site)
let total_retries () = Array.fold_left ( + ) 0 (site_retries ())
let snapshot_cas_retry () = Snapshot.get (Global.snapshot ()) Event.Cas_retry

(* --- site registry --- *)

let test_registry () =
  let a = Site.register "test_profile/a" in
  let b = Site.register "test_profile/b" in
  Alcotest.(check bool) "ids assigned past unknown" true (a > 0 && b > 0);
  Alcotest.(check bool) "distinct names, distinct ids" true (a <> b);
  Alcotest.(check int) "registration is idempotent by name" a
    (Site.register "test_profile/a");
  Alcotest.(check string) "name round-trips" "test_profile/a" (Site.name a);
  Alcotest.(check string) "id 0 is the unknown site" "unknown"
    (Site.name Site.unknown);
  Alcotest.(check string) "out-of-range resolves to unknown" "unknown"
    (Site.name 9999);
  let all = Site.all () in
  Alcotest.(check bool) "all () lists both registrations" true
    (List.mem (a, "test_profile/a") all && List.mem (b, "test_profile/b") all);
  Alcotest.(check int) "all () length matches registered ()"
    (Site.registered ()) (List.length all)

(* --- exact per-site accounting, and the derived total --- *)

let test_exact_counts () =
  with_profile (fun p ->
      let a = Site.register "test_profile/a" in
      let b = Site.register "test_profile/b" in
      for _ = 1 to 1000 do
        Global.cas_retry a
      done;
      for _ = 1 to 37 do
        Global.cas_retry b
      done;
      Alcotest.(check int) "site a exact" 1000 (retries a);
      Alcotest.(check int) "site b exact" 37 (retries b);
      Alcotest.(check int) "total is the per-site sum" 1037 (total_retries ());
      (* The snapshot's cas_retry is derived from the same per-site
         counts, so it cannot drift from their sum. *)
      Alcotest.(check int) "snapshot cas_retry is the per-site sum" 1037
        (snapshot_cas_retry ());
      (* N retries in one domain lane observe at most N-1 gaps
         (the first has no predecessor; equal-ns timestamps are
         skipped, not observed as zero). *)
      let gaps () = Array.fold_left ( + ) 0 (Profile.gap_counts p a) in
      let observed = gaps () in
      Alcotest.(check bool) "gap count bounded by retries - 1" true
        (observed <= 999);
      Alcotest.(check bool) "gaps observed at all" true (observed > 0);
      Global.reset ();
      Alcotest.(check int) "probe reset clears the per-site counts" 0
        (total_retries ());
      Alcotest.(check int) "and the derived total" 0 (snapshot_cas_retry ());
      Alcotest.(check int) "gap histograms cover the whole run" observed
        (gaps ()))

let test_multi_domain_exact () =
  with_profile (fun _ ->
      let s = Site.register "test_profile/md" in
      let workers = 4 and n = 10_000 in
      let ds =
        List.init workers (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to n do
                  Global.cas_retry s
                done))
      in
      List.iter Domain.join ds;
      Alcotest.(check int) "sharded counters lose nothing across domains"
        (workers * n) (retries s);
      Alcotest.(check int) "total agrees" (workers * n) (total_retries ());
      Alcotest.(check int) "snapshot cas_retry agrees" (workers * n)
        (snapshot_cas_retry ()))

(* A real multi-domain table run: whatever sites the run retried at,
   the snapshot's cas_retry is exactly their sum, and none of them is
   the unknown site. *)
let test_table_run_derived_total () =
  with_profile (fun _ ->
      let table = Nbhash_workload.Factory.by_name "LFArray" () in
      let stop = Atomic.make false in
      let worker d () =
        let ops = table.Nbhash_workload.Factory.new_handle () in
        let i = ref d in
        while not (Atomic.get stop) do
          let k = !i land 255 in
          if !i land 1 = 0 then ignore (ops.Nbhash_workload.Factory.ins k)
          else ignore (ops.Nbhash_workload.Factory.rem k);
          if !i land 1023 = 0 then
            ops.Nbhash_workload.Factory.force_resize ~grow:(!i land 2048 = 0);
          i := !i + 7
        done;
        ops.Nbhash_workload.Factory.detach ()
      in
      let ds = List.init 3 (fun d -> Domain.spawn (worker d)) in
      Unix.sleepf 0.1;
      Atomic.set stop true;
      List.iter Domain.join ds;
      table.Nbhash_workload.Factory.close ();
      let per_site = site_retries () in
      Alcotest.(check int) "snapshot cas_retry = per-site sum"
        (Array.fold_left ( + ) 0 per_site)
        (snapshot_cas_retry ());
      Alcotest.(check int) "no retry on the unknown site" 0
        per_site.(Site.unknown))

(* An unregistered (out-of-range) site id lands on unknown instead of
   corrupting a neighbour's counter, and so does a bare, site-less
   Cas_retry emission. *)
let test_unknown_fallback () =
  with_profile (fun _ ->
      Global.cas_retry 9999;
      Global.cas_retry (-3);
      Alcotest.(check int) "stray ids land on the unknown site" 2
        (retries Site.unknown);
      Global.emit Event.Cas_retry;
      Alcotest.(check int) "a site-less emission counts as unknown" 3
        (retries Site.unknown);
      Alcotest.(check int) "and once in the total" 3 (snapshot_cas_retry ()))

(* --- false-sharing scoring (deterministic, via score_source) --- *)

let test_ping_pong_score () =
  (* Packed array, 8 lanes per 64-byte line: line 0 written by two
     lanes (the ping-pong case), line 1 written fast by one lane
     (hot but private — must score 0). *)
  let c0 = Array.make 16 0 in
  let c1 = Array.make 16 0 in
  c1.(0) <- 100;
  c1.(3) <- 100;
  c1.(8) <- 500;
  let r =
    Profile.score_source ~name:"packed" ~lanes_per_line:8
      ~dt_ns:1_000_000_000 c0 c1
  in
  Alcotest.(check string) "source name" "packed" r.Profile.source;
  (match r.Profile.lines with
  | [ l0; l1 ] ->
    Alcotest.(check int) "line 0 has two writers" 2 l0.Profile.writers;
    Alcotest.(check (float 1e-6)) "line 0 write rate" 200.
      l0.Profile.writes_per_s;
    Alcotest.(check (float 1e-6)) "line 0 ping-pong = rate x excess" 200.
      l0.Profile.score;
    Alcotest.(check int) "line 1 single writer" 1 l1.Profile.writers;
    Alcotest.(check (float 1e-6)) "single-writer line is private" 0.
      l1.Profile.score
  | ls -> Alcotest.failf "expected two active lines, got %d" (List.length ls));
  Alcotest.(check (float 1e-6)) "max score is the contended line's" 200.
    r.Profile.max_score;
  (* Strided array (one lane per line) with an explicit per-lane
     writer census: collisions on one lane are the ping-pong. *)
  let r =
    Profile.score_source ~name:"strided" ~lanes_per_line:1
      ~writers:[| 3; 1 |] ~dt_ns:1_000_000_000 [| 0; 0 |] [| 100; 100 |]
  in
  match r.Profile.lines with
  | [ l0; l1 ] ->
    Alcotest.(check (float 1e-6)) "3-writer lane scores rate x 2" 200.
      l0.Profile.score;
    Alcotest.(check (float 1e-6)) "1-writer lane scores 0" 0.
      l1.Profile.score
  | ls -> Alcotest.failf "expected two lines, got %d" (List.length ls)

(* The live sampler end-to-end: a source registered over a real array
   whose counts move between the two samples. *)
let test_false_sharing_live () =
  with_profile (fun p ->
      let counts = Array.make 8 0 in
      let src =
        Lanes.register_source ~name:"test_src" ~lanes_per_line:8 (fun () ->
            (* Two lanes advance on every sample read: deterministic
               movement without a writer thread. *)
            counts.(0) <- counts.(0) + 1000;
            counts.(5) <- counts.(5) + 1000;
            Array.copy counts)
      in
      let reports = Profile.false_sharing ~interval_s:0.001 p in
      ignore (Sys.opaque_identity src);
      match
        List.find_opt (fun r -> r.Profile.source = "test_src") reports
      with
      | None -> Alcotest.fail "registered source missing from the report"
      | Some r ->
        Alcotest.(check bool) "two writers on the shared line scores > 0"
          true
          (r.Profile.max_score > 0.))

(* The acceptance test of the lane primitive, scored by the same
   detector: two domains each write their own lane of one padded lane
   set (the probe's per-site retry lanes) and their own word of a
   packed control array. The lane set scores no ping-pong; the
   control, whose two words share a cache line, does. *)
let test_padded_lanes_vs_packed () =
  with_profile (fun p ->
      let s = Site.register "test_profile/lanes" in
      let packed = Nbhash_util.Nb_atomic.Int_array.make 2 0 in
      let control =
        Lanes.register_source ~name:"packed_control" ~lanes_per_line:8
          (fun () -> Array.init 2 (Nbhash_util.Nb_atomic.Int_array.get packed))
      in
      let stop = Atomic.make false in
      let started = Atomic.make 0 in
      let worker i () =
        Atomic.incr started;
        while not (Atomic.get stop) do
          Global.cas_retry s;
          ignore (Nbhash_util.Nb_atomic.Int_array.fetch_and_add packed i 1)
        done
      in
      let ds = List.init 2 (fun i -> Domain.spawn (worker i)) in
      let reports =
        Fun.protect
          ~finally:(fun () ->
            Atomic.set stop true;
            List.iter Domain.join ds)
          (fun () ->
            while Atomic.get started < 2 do
              Domain.cpu_relax ()
            done;
            Profile.false_sharing ~interval_s:0.05 p)
      in
      ignore (Sys.opaque_identity control);
      (match List.map Domain.get_id ds with
      | [ a; b ] ->
        Alcotest.(check bool) "the two writers own distinct lanes" true
          (((a :> int) - (b :> int)) land (Lanes.default_lanes - 1) <> 0)
      | _ -> assert false);
      (* Probes of earlier tests may still await collection; theirs
         are the idle reports of the same name. *)
      let report name =
        match
          List.find_opt
            (fun r -> r.Profile.source = name && r.Profile.lines <> [])
            reports
        with
        | Some r -> r
        | None -> Alcotest.failf "no active %s report" name
      in
      let lanes = report "profile_retries" in
      Alcotest.(check int) "both lanes written in the window" 2
        (List.length lanes.Profile.lines);
      Alcotest.(check (float 0.)) "padded lane set: max_ping_pong = 0" 0.
        lanes.Profile.max_score;
      Alcotest.(check bool) "packed control: max_ping_pong > 0" true
        ((report "packed_control").Profile.max_score > 0.))

(* --- Memprof attribution --- *)

let test_memprof_smoke () =
  with_profile (fun p ->
      match Profile.start_alloc ~sampling_rate:1e-2 p with
      | Ok () ->
        (* statmemprof available (5.2+): sampling must attribute
           without crashing, and stop must disarm. *)
        let s = Site.register "test_profile/alloc" in
        Profile.on_retry s;
        let junk = ref [] in
        for i = 0 to 9_999 do
          junk := Array.make 16 i :: !junk
        done;
        ignore (Sys.opaque_identity !junk);
        Profile.stop_alloc p;
        let total =
          List.fold_left
            (fun acc (id, _) -> acc + Profile.alloc_words p id)
            0 (Site.all ())
        in
        Alcotest.(check bool) "sampled words accumulate non-negatively" true
          (total >= 0)
      | Error reason ->
        (* 5.1 multicore: unavailable is reported, sticky, and inert. *)
        Alcotest.(check bool) "reason is non-empty" true
          (String.length reason > 0);
        (match Profile.start_alloc p with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "unavailable state did not stick");
        Profile.stop_alloc p;
        Alcotest.(check int) "no phantom attribution" 0
          (List.fold_left
             (fun acc (id, _) -> acc + Profile.alloc_words p id)
             0 (Site.all ())))

(* --- the disabled path allocates nothing --- *)

let test_disabled_path_no_alloc () =
  Global.install Probe.noop;
  Profile.uninstall ();
  Nbhash_telemetry.Trace.uninstall ();
  let s = Site.register "test_profile/noalloc" in
  (* Warm up so any one-time allocation is off the books. *)
  for _ = 1 to 999 do
    Global.cas_retry s
  done;
  let before = Gc.minor_words () in
  for _ = 1 to 99_999 do
    Global.cas_retry s
  done;
  let delta = Gc.minor_words () -. before in
  if delta > 256. then
    Alcotest.failf "disabled profiler hot path allocated %.0f minor words"
      delta

(* --- JSON documents --- *)

let test_json_shapes () =
  Profile.uninstall ();
  (* Inactive snapshot block. *)
  (match Json.parse (Profile.snapshot_block ~retries:(site_retries ()) ()) with
  | Error e -> Alcotest.failf "inactive snapshot block invalid: %s" e
  | Ok d -> (
    match Json.member "active" d with
    | Some (Json.Bool false) -> ()
    | _ -> Alcotest.fail "inactive block must say active:false"));
  with_profile (fun p ->
      let s = Site.register "test_profile/json" in
      Global.cas_retry s;
      let reg =
        Profile.register_view ~name:"test_view" (fun () -> "[1,2]")
      in
      let body =
        Fun.protect
          ~finally:(fun () -> Profile.unregister_view reg)
          (fun () ->
            Profile.json_body ~retries:(site_retries ()) ~interval_s:0.001 p)
      in
      match Json.parse body with
      | Error e -> Alcotest.failf "json_body invalid: %s" e
      | Ok d ->
        (match Json.member "active" d with
        | Some (Json.Bool true) -> ()
        | _ -> Alcotest.fail "active:true expected");
        (match Option.bind (Json.member "total_retries" d) Json.to_num with
        | Some n when n >= 1. -> ()
        | _ -> Alcotest.fail "total_retries missing");
        Alcotest.(check (option (list string)))
          "top-level keys"
          (Some
             [ "active"; "total_retries"; "sites"; "false_sharing"; "memprof";
               "views" ])
          (Json.keys d);
        let sites =
          Option.value ~default:[]
            (Option.bind (Json.member "sites" d) Json.to_list)
        in
        Alcotest.(check bool) "every registered site listed, none nameless"
          true
          (List.length sites = Site.registered ()
          && List.for_all
               (fun sj ->
                 match Option.bind (Json.member "name" sj) Json.to_str with
                 | Some name -> name <> ""
                 | None -> false)
               sites);
        (* Ranked: the site we hit leads. *)
        (match sites with
        | first :: _ ->
          Alcotest.(check (option string))
            "hit site ranks first"
            (Some (Site.name s))
            (Option.bind (Json.member "name" first) Json.to_str)
        | [] -> Alcotest.fail "no sites rendered");
        (match Option.bind (Json.member "false_sharing" d) Json.to_list with
        | Some reports ->
          Alcotest.(check bool) "per-site retry lanes always reported" true
            (List.exists
               (fun r ->
                 Option.bind (Json.member "source" r) Json.to_str
                 = Some "profile_retries")
               reports)
        | None -> Alcotest.fail "false_sharing missing");
        (match Json.member "memprof" d with
        | Some m -> (
          match Option.bind (Json.member "state" m) Json.to_str with
          | Some ("off" | "sampling" | "unavailable") -> ()
          | _ -> Alcotest.fail "memprof state unrecognised")
        | None -> Alcotest.fail "memprof missing");
        (match Option.bind (Json.member "views" d) Json.to_list with
        | Some views ->
          Alcotest.(check bool) "registered view rendered" true
            (List.exists
               (fun v ->
                 Option.bind (Json.member "name" v) Json.to_str
                 = Some "test_view")
               views)
        | None -> Alcotest.fail "views missing"));
  (* The view is unregistered on the way out of the protect above. *)
  with_profile (fun p ->
      ignore (Profile.json_body ~retries:(site_retries ()) ~interval_s:0.001 p);
      match Json.parse (Profile.snapshot_block ~retries:(site_retries ()) ()) with
      | Error e -> Alcotest.failf "active snapshot block invalid: %s" e
      | Ok d -> (
        match Json.member "active" d with
        | Some (Json.Bool true) -> ()
        | _ -> Alcotest.fail "active block must say active:true"))

(* --- named retry sites of the map tables --- *)

module Int_key = struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end

module Gmap = Nbhash_generic.Generic_map.Make (Int_key)

(* An update whose callback, on its first call only, forces two grows:
   the second freezes the bucket the update read, so its install CAS
   fails exactly once and the retry lands in the successor table. *)
let stale_update ~site ~update ~force_resize () =
  with_profile (fun _ ->
      let calls = ref 0 in
      update (fun cur ->
          incr calls;
          if !calls = 1 then begin
            force_resize ();
            force_resize ()
          end;
          Option.value cur ~default:0 + 1);
      Alcotest.(check int) "callback ran twice" 2 !calls;
      Alcotest.(check int)
        (site ^ " retried exactly once")
        1
        (retries (Site.register site)))

let test_hashmap_update_retry () =
  let module M = Nbhash.Hashmap in
  let h = M.register (M.create ()) in
  stale_update ~site:"hashmap/update"
    ~update:(fun f -> M.update h 5 f)
    ~force_resize:(fun () -> M.force_resize h ~grow:true)
    ()

let test_generic_map_update_retry () =
  let h = Gmap.register (Gmap.create ()) in
  stale_update ~site:"generic_map/update"
    ~update:(fun f -> Gmap.update h 5 f)
    ~force_resize:(fun () -> Gmap.force_resize h ~grow:true)
    ()

let suite =
  [
    ( "profile",
      [
        Alcotest.test_case "site registry" `Quick test_registry;
        Alcotest.test_case "exact counts + probe cross-check" `Quick
          test_exact_counts;
        Alcotest.test_case "multi-domain exactness" `Quick
          test_multi_domain_exact;
        Alcotest.test_case "table run: cas_retry is the per-site sum" `Quick
          test_table_run_derived_total;
        Alcotest.test_case "stray ids land on unknown" `Quick
          test_unknown_fallback;
        Alcotest.test_case "ping-pong scoring" `Quick test_ping_pong_score;
        Alcotest.test_case "false-sharing live sampler" `Quick
          test_false_sharing_live;
        Alcotest.test_case "padded lanes score 0, packed control > 0" `Quick
          test_padded_lanes_vs_packed;
        Alcotest.test_case "memprof attribution smoke" `Quick
          test_memprof_smoke;
        Alcotest.test_case "disabled path allocates nothing" `Quick
          test_disabled_path_no_alloc;
        Alcotest.test_case "json documents well-formed" `Quick
          test_json_shapes;
        Alcotest.test_case "hashmap update retry site" `Quick
          test_hashmap_update_retry;
        Alcotest.test_case "generic_map update retry site" `Quick
          test_generic_map_update_retry;
      ] );
  ]
