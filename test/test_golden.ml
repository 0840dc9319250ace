(* Golden export documents: the OpenMetrics text of /metrics,
   /snapshot.json without its meta block, and /profile.json, rendered
   from one deterministic fixture through the live HTTP endpoint and
   compared byte for byte with the files under test/golden/.

   The fixture starts from a fresh recording probe, a fresh profiler,
   cleared gauge and labeled registries and zeroed OpenMetrics
   accumulators, then makes exact emit/add/observe/cas_retry calls on
   sites this module registers. Only what a clock or the rest of the
   process decides is normalised away:
   - the retry-gap histograms (gaps between two clock reads): the
     nbhash_retry_ns sample lines and every site's "gap_ns" value;
   - the false-sharing block (rates over a sampling window, and the
     set of weakly held sources, which depends on the GC);
   - site ids, which follow registration order across the whole test
     binary, and /profile.json's sites other than this fixture's
     (every registered site is listed there, all at zero).

   A mismatch writes the rendered document next to the expected one
   in the build tree (golden/<name>.actual) so it can be inspected or,
   after a deliberate format change, copied over the golden file. *)

module Tm = Nbhash_telemetry
module Global = Tm.Global
module Probe = Tm.Probe
module Event = Tm.Event
module Profile = Tm.Profile
module Server = Tm.Metrics_server

let site_hot = Tm.Site.register "golden/hot"
let site_cold = Tm.Site.register "golden/cold \"quoted\""

(* --- textual JSON surgery (the documents are compact, one line) --- *)

let find_from s pat from =
  let n = String.length s and m = String.length pat in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = pat then Some i
    else go (i + 1)
  in
  go from

(* Index just past the JSON value starting at [i]; a scalar ends at
   the next ',', '}' or ']' outside any string. *)
let value_end s i =
  let n = String.length s in
  let rec go j depth in_str =
    if j >= n then j
    else
      let c = s.[j] in
      if in_str then
        if c = '\\' then go (j + 2) depth true
        else if c = '"' then if depth = 0 then j + 1 else go (j + 1) depth false
        else go (j + 1) depth true
      else
        match c with
        | '"' -> go (j + 1) depth true
        | '{' | '[' -> go (j + 1) (depth + 1) false
        | '}' | ']' ->
          if depth = 0 then j else if depth = 1 then j + 1
          else go (j + 1) (depth - 1) false
        | ',' when depth = 0 -> j
        | _ -> go (j + 1) depth false
  in
  go i 0 false

(* Replace the value of every ["key":] with [repl]. *)
let replace_values s key repl =
  let pat = "\"" ^ key ^ "\":" in
  let b = Buffer.create (String.length s) in
  let rec go from =
    match find_from s pat from with
    | None -> Buffer.add_string b (String.sub s from (String.length s - from))
    | Some i ->
      let v = i + String.length pat in
      Buffer.add_string b (String.sub s from (v - from));
      Buffer.add_string b repl;
      go (value_end s v)
  in
  go 0;
  Buffer.contents b

(* Keep only the elements of the array under ["key":] that satisfy
   [keep]. *)
let filter_array s key keep =
  let pat = "\"" ^ key ^ "\":[" in
  match find_from s pat 0 with
  | None -> Alcotest.failf "no %S array in %s" key s
  | Some i ->
    let start = i + String.length pat in
    let rec elems j acc =
      if s.[j] = ']' then (List.rev acc, j)
      else
        let e = value_end s j in
        let acc = String.sub s j (e - j) :: acc in
        if s.[e] = ',' then elems (e + 1) acc else (List.rev acc, e)
    in
    let items, close = elems start [] in
    String.sub s 0 start
    ^ String.concat "," (List.filter keep items)
    ^ String.sub s close (String.length s - close)

let contains s sub = find_from s sub 0 <> None

let drop_meta s =
  match find_from s "\"meta\":" 0 with
  | None -> Alcotest.fail "snapshot without a meta block"
  | Some i ->
    let e = value_end s (i + 7) in
    (* the meta object leads, so a comma follows it *)
    String.sub s 0 i ^ String.sub s (e + 1) (String.length s - e - 1)

let normalise_snapshot s = replace_values (drop_meta s) "id" "_"

let normalise_profile s =
  let s = replace_values s "false_sharing" "_" in
  let s = filter_array s "sites" (fun e -> contains e "\"name\":\"golden/") in
  replace_values (replace_values s "id" "_") "gap_ns" "_"

let normalise_metrics s =
  String.split_on_char '\n' s
  |> List.filter (fun l ->
         not
           (List.exists
              (fun p -> String.starts_with ~prefix:p l)
              [ "nbhash_retry_ns_bucket"; "nbhash_retry_ns_sum";
                "nbhash_retry_ns_count" ]))
  |> String.concat "\n"

(* --- the fixture --- *)

let with_fixture f =
  let view = ref None in
  let gauges = ref [] in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Profile.unregister_view !view;
      List.iter Tm.Gauge.unregister !gauges;
      Profile.uninstall ();
      Global.install Probe.noop;
      Tm.Labeled.reset_all ();
      Tm.Openmetrics.reset_accumulators ())
    (fun () ->
      Tm.Trace.uninstall ();
      Tm.Openmetrics.reset_accumulators ();
      Tm.Labeled.reset_all ();
      Tm.Gauge.reset_all ();
      Global.install (Probe.recording ());
      Profile.install (Profile.create ());
      (* counters *)
      for _ = 1 to 3 do
        Global.emit Event.Bucket_init
      done;
      Global.emit_arg Event.Help_op 9;
      Global.emit_arg Event.Help_op 10;
      Global.add Event.Keys_migrated 41;
      Global.add Event.Sweep_buckets_migrated 0;
      Global.emit Event.Server_request;
      (* site-attributed retries *)
      for _ = 1 to 5 do
        Global.cas_retry site_hot
      done;
      for _ = 1 to 2 do
        Global.cas_retry site_cold
      done;
      (* span histograms, raw values *)
      List.iter (Global.observe Event.Resize_span) [ 1_000; 3_000; 250_000 ];
      List.iter (Global.observe Event.Sweep_helpers) [ 2; 3 ];
      Global.observe Event.Server_span 1;
      (* labeled families *)
      let h1 =
        Tm.Labeled.histogram ~family:"golden_stage_ns"
          ~help:"Golden \\ stage\nsecond line"
          ~labels:[ ("op", "get"); ("stage", "read") ]
          ()
      in
      let h2 =
        Tm.Labeled.histogram ~family:"golden_stage_ns"
          ~labels:[ ("op", "put \"x\""); ("stage", "read") ]
          ()
      in
      let h3 = Tm.Labeled.histogram ~family:"golden_bare_ns" ~labels:[] () in
      List.iter (Tm.Histogram.observe h1) [ 100; 700; 700; 90_000 ];
      Tm.Histogram.observe h2 5;
      Tm.Histogram.observe h3 1;
      (* gauges: a family split by another registration must still
         render contiguously; non-finite values are dropped *)
      let g ?help ?labels name v =
        gauges := Tm.Gauge.register ~name ?help ?labels (fun () -> v) :: !gauges
      in
      g ~help:"Golden \\ gauge\nhelp" ~labels:[ ("k", "v\"1") ] "golden_gauge" 2.5;
      g "golden_other" 0.1;
      g ~labels:[ ("k", "v2") ] "golden_gauge" 3.;
      g ~labels:[ ("k", "v3") ] "golden_gauge" 1e20;
      g "golden_nan" Float.nan;
      view :=
        Some
          (Profile.register_view ~name:"golden_view" (fun () ->
               "{\"shards\":[1,2]}"));
      f ())

let scrape port path =
  match Server.http_get ~port path with
  | Ok (200, body) -> body
  | Ok (code, _) -> Alcotest.failf "%s answered %d" path code
  | Error msg -> Alcotest.failf "%s failed: %s" path msg

(* Next to the test binary, where dune copies the golden files. *)
let golden_dir = Filename.concat (Filename.dirname Sys.executable_name) "golden"

(* Every document is compared, and every mismatching one written out,
   before the test fails. *)
let check_golden docs =
  let mismatched =
    List.filter
      (fun (name, actual) ->
        let path = Filename.concat golden_dir name in
        let expected =
          try In_channel.with_open_bin path In_channel.input_all
          with Sys_error _ -> ""
        in
        expected <> actual
        && begin
             Out_channel.with_open_bin (path ^ ".actual") (fun oc ->
                 output_string oc actual);
             true
           end)
      docs
  in
  if mismatched <> [] then
    Alcotest.failf "golden documents differ: %s (rendered copies: %s/*.actual)"
      (String.concat ", " (List.map fst mismatched))
      golden_dir

let test_documents () =
  with_fixture (fun () ->
      let server = Server.start ~port:0 () in
      let metrics, snapshot, profile =
        Fun.protect
          ~finally:(fun () -> Server.stop server)
          (fun () ->
            let port = Server.port server in
            let m = scrape port "/metrics" in
            let s = scrape port "/snapshot.json" in
            let p = scrape port "/profile.json" in
            (m, s, p))
      in
      check_golden
        [
          ("openmetrics.golden", normalise_metrics metrics);
          ("snapshot.golden", normalise_snapshot snapshot);
          ("profile.golden", normalise_profile profile);
        ])

let suite =
  [
    ( "golden",
      [ Alcotest.test_case "export documents byte for byte" `Quick test_documents ] );
  ]
