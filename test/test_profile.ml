(* The contention & allocation profiler (ISSUE 10).

   Covers: site-registry exactness (ids stable, idempotent by name,
   unknown fallback), exact per-site retry counts single- and
   multi-domain with the probe's independent cas_retry total agreeing,
   retry-gap histogram accounting, the deterministic ping-pong scoring
   of the false-sharing detector, Memprof attribution surviving both a
   5.1 runtime (unavailable, reported not raised) and a 5.2 one
   (sampling live), the Gc-asserted allocation-free disabled path, and
   well-formed /profile.json and snapshot-block documents. *)

module Profile = Nbhash_telemetry.Profile
module Site = Nbhash_telemetry.Site
module Global = Nbhash_telemetry.Global
module Probe = Nbhash_telemetry.Probe
module Event = Nbhash_telemetry.Event
module Counters = Nbhash_telemetry.Counters
module Json = Nbhash_util.Json

(* The profiler is ambient, like the trace rings: scope every
   installation and never leave one behind. *)
let with_profile f =
  let p = Profile.create () in
  Profile.install p;
  Fun.protect ~finally:Profile.uninstall (fun () -> f p)

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

(* --- exact per-site accounting, and the probe cross-check --- *)

let test_exact_counts () =
  Global.install (Probe.recording ());
  Global.reset ();
  Fun.protect
    ~finally:(fun () -> Global.install Probe.noop)
    (fun () ->
      with_profile (fun p ->
          let a = Site.register "test_profile/a" in
          let b = Site.register "test_profile/b" in
          for _ = 1 to 1000 do
            Global.cas_retry a
          done;
          for _ = 1 to 37 do
            Global.cas_retry b
          done;
          Alcotest.(check int) "site a exact" 1000 (Profile.retries p a);
          Alcotest.(check int) "site b exact" 37 (Profile.retries p b);
          Alcotest.(check int) "total is the per-site sum" 1037
            (Profile.total_retries p);
          (* The acceptance cross-check: the probe counts the same
             emissions independently, so the labeled family must sum
             to the legacy cas_retry total. *)
          (match Global.get () with
          | Probe.Recording r ->
            Alcotest.(check int) "probe cas_retry total agrees" 1037
              (Counters.read r.Probe.counters Event.Cas_retry)
          | Probe.Noop -> Alcotest.fail "recording probe vanished");
          (* N retries in one domain lane observe at most N-1 gaps
             (the first has no predecessor; equal-ns timestamps are
             skipped, not observed as zero). *)
          let gaps =
            Array.fold_left ( + ) 0 (Profile.gap_counts p a)
          in
          Alcotest.(check bool) "gap count bounded by retries - 1" true
            (gaps <= 999);
          Alcotest.(check bool) "gaps observed at all" true (gaps > 0);
          Profile.reset p;
          Alcotest.(check int) "reset clears the counters" 0
            (Profile.total_retries p);
          Alcotest.(check int) "reset clears the gap histograms" 0
            (Array.fold_left ( + ) 0 (Profile.gap_counts p a))))

let test_multi_domain_exact () =
  with_profile (fun p ->
      let s = Site.register "test_profile/md" in
      let workers = 4 and n = 10_000 in
      let ds =
        List.init workers (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to n do
                  Profile.on_retry s
                done))
      in
      List.iter Domain.join ds;
      Alcotest.(check int) "sharded counters lose nothing across domains"
        (workers * n) (Profile.retries p s);
      Alcotest.(check int) "total agrees" (workers * n)
        (Profile.total_retries p))

(* An unregistered (out-of-range) site id lands on unknown instead of
   corrupting a neighbour's counter. *)
let test_unknown_fallback () =
  with_profile (fun p ->
      Profile.on_retry 9999;
      Profile.on_retry (-3);
      Alcotest.(check int) "stray ids land on the unknown site" 2
        (Profile.retries p Site.unknown))

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
        Profile.register_source ~name:"test_src" ~lanes_per_line:8 (fun () ->
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
  (match Json.parse (Profile.snapshot_block ()) with
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
            Profile.json_body ~legacy_cas_retry:123 ~interval_s:0.001 p)
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
        (match Option.bind (Json.member "legacy_cas_retry" d) Json.to_num with
        | Some n -> Alcotest.(check (float 0.)) "legacy passed through" 123. n
        | None -> Alcotest.fail "legacy_cas_retry missing");
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
          Alcotest.(check bool) "profiler's own lanes always reported" true
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
      ignore (Profile.json_body ~interval_s:0.001 p);
      match Json.parse (Profile.snapshot_block ()) with
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
  with_profile (fun p ->
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
        (Profile.retries p (Site.register site)))

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
        Alcotest.test_case "stray ids land on unknown" `Quick
          test_unknown_fallback;
        Alcotest.test_case "ping-pong scoring" `Quick test_ping_pong_score;
        Alcotest.test_case "false-sharing live sampler" `Quick
          test_false_sharing_live;
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
