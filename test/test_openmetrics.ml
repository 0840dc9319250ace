(* The OpenMetrics exporter and its HTTP endpoint (PR 5).

   Shape: every family gets a TYPE (and HELP) line, all samples of a
   family are contiguous, histogram [le] bounds strictly increase with
   nondecreasing cumulative counts, every value is finite, and the
   body ends with "# EOF". Behaviour: two scrapes of a live endpoint
   under churn show monotone counters even though Runner resets the
   probe between trials; /snapshot.json carries the bench meta block;
   /health answers. And the disabled path stays allocation-free with
   gauges registered — a table that nobody scrapes pays nothing. *)

module Global = Nbhash_telemetry.Global
module Probe = Nbhash_telemetry.Probe
module Event = Nbhash_telemetry.Event
module Om = Nbhash_telemetry.Openmetrics
module Gauge = Nbhash_telemetry.Gauge
module Server = Nbhash_telemetry.Metrics_server
module Factory = Nbhash_workload.Factory
module Json = Nbhash_util.Json

let with_probe f =
  Fun.protect
    ~finally:(fun () ->
      Global.install Probe.noop;
      Om.reset_accumulators ())
    (fun () ->
      Om.reset_accumulators ();
      Global.install (Probe.recording ());
      f ())

(* Generate some telemetry: updates, a forced resize (spans), a few
   lookups. *)
let stir table =
  let ops = table.Factory.new_handle () in
  for k = 0 to 2_000 do
    ignore (ops.Factory.ins k)
  done;
  ops.Factory.force_resize ~grow:true;
  for k = 0 to 2_000 do
    if k land 1 = 0 then ignore (ops.Factory.rem k) else ignore (ops.Factory.look k)
  done;
  ops.Factory.detach ()

(* --- line-level shape checks --- *)

type family = { kind : string; mutable samples : (string * float) list }

(* Parse the body into families, checking contiguity as we go: a
   sample must belong to the most recently declared TYPE family. *)
let parse_families body =
  let families : (string * family) list ref = ref [] in
  let current = ref None in
  let value_of line =
    match String.rindex_opt line ' ' with
    | None -> Alcotest.failf "sample line without value: %s" line
    | Some i ->
      let v = String.sub line (i + 1) (String.length line - i - 1) in
      (match float_of_string_opt v with
      | Some f when Float.is_finite f -> f
      | Some _ -> Alcotest.failf "non-finite sample value: %s" line
      | None -> Alcotest.failf "unparseable sample value: %s" line)
  in
  let lines = String.split_on_char '\n' body in
  List.iteri
    (fun i line ->
      if line = "" then ()
      else if line = "# EOF" then begin
        if List.exists (fun l -> l <> "") (List.filteri (fun j _ -> j > i) lines)
        then Alcotest.fail "content after # EOF"
      end
      else if String.length line >= 7 && String.sub line 0 7 = "# TYPE " then begin
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; name; kind ] ->
          if List.mem_assoc name !families then
            Alcotest.failf "family %s declared twice (samples not contiguous)"
              name;
          let fam = { kind; samples = [] } in
          families := (name, fam) :: !families;
          current := Some (name, fam)
        | _ -> Alcotest.failf "malformed TYPE line: %s" line
      end
      else if String.length line >= 7 && String.sub line 0 7 = "# HELP " then begin
        match (!current, String.split_on_char ' ' line) with
        | Some (cur, _), "#" :: "HELP" :: name :: _ when name = cur -> ()
        | _ -> Alcotest.failf "HELP outside its family: %s" line
      end
      else
        match !current with
        | None -> Alcotest.failf "sample before any TYPE line: %s" line
        | Some (cur, fam) ->
          let metric =
            match String.index_opt line '{' with
            | Some j -> String.sub line 0 j
            | None -> (
              match String.index_opt line ' ' with
              | Some j -> String.sub line 0 j
              | None -> line)
          in
          let ok =
            match fam.kind with
            | "counter" -> metric = cur ^ "_total"
            | "histogram" ->
              metric = cur ^ "_bucket"
              || metric = cur ^ "_sum"
              || metric = cur ^ "_count"
            | "gauge" -> metric = cur
            | k -> Alcotest.failf "unknown family kind %s" k
          in
          if not ok then
            Alcotest.failf "sample %s under family %s (not contiguous?)" line
              cur;
          fam.samples <- (line, value_of line) :: fam.samples)
    lines;
  List.rev_map (fun (n, f) -> (n, { f with samples = List.rev f.samples }))
    !families

let le_of line =
  (* ..._bucket{le="<bound>"} <v> *)
  let tag = "{le=\"" in
  let rec find i =
    if i + String.length tag > String.length line then None
    else if String.sub line i (String.length tag) = tag then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
    let start = i + String.length tag in
    let stop = String.index_from line start '"' in
    let s = String.sub line start (stop - start) in
    Some (if s = "+Inf" then Float.infinity else float_of_string s)

let test_shape () =
  with_probe (fun () ->
      let table = Factory.by_name "LFArrayOpt" () in
      stir table;
      let body = Om.render () in
      Alcotest.(check bool) "ends with # EOF" true
        (let n = String.length body in
         n >= 6 && String.sub body (n - 6) 6 = "# EOF\n");
      let families = parse_families body in
      (* Every probe event and span is a family; the table's gauges are
         there too. *)
      List.iter
        (fun ev ->
          let name = "nbhash_" ^ Event.to_string ev in
          match List.assoc_opt name families with
          | Some f -> Alcotest.(check string) (name ^ " kind") "counter" f.kind
          | None -> Alcotest.failf "missing counter family %s" name)
        Event.all;
      List.iter
        (fun s ->
          let name = "nbhash_" ^ Event.span_to_string s in
          match List.assoc_opt name families with
          | Some f ->
            Alcotest.(check string) (name ^ " kind") "histogram" f.kind;
            (* le bounds strictly increase; cumulative counts never
               decrease; _count equals the +Inf bucket. *)
            let les =
              List.filter_map (fun (l, v) ->
                  Option.map (fun le -> (le, v)) (le_of l))
                f.samples
            in
            Alcotest.(check bool) (name ^ " has +Inf bucket") true
              (List.exists (fun (le, _) -> le = Float.infinity) les);
            ignore
              (List.fold_left
                 (fun (ple, pv) (le, v) ->
                   if le <= ple then
                     Alcotest.failf "%s: le bounds not increasing" name;
                   if v < pv then
                     Alcotest.failf "%s: cumulative counts decreased" name;
                   (le, v))
                 (Float.neg_infinity, 0.) les);
            let count_v =
              List.filter_map
                (fun (l, v) ->
                  if
                    String.length l >= String.length (name ^ "_count")
                    && String.sub l 0 (String.length (name ^ "_count"))
                       = name ^ "_count"
                  then Some v
                  else None)
                f.samples
            in
            let inf_v =
              List.filter_map
                (fun (le, v) -> if le = Float.infinity then Some v else None)
                les
            in
            Alcotest.(check (list (float 0.))) (name ^ " count == +Inf") inf_v
              count_v
          | None -> Alcotest.failf "missing histogram family %s" name)
        Event.all_spans;
      (* The auto-registered table gauges surfaced, with labels. Other
         suites in the same binary may have leaked their own table
         gauges (harmless by design), so count this table's samples
         rather than assuming the family is ours alone. *)
      let load_factor_samples fams =
        match List.assoc_opt "nbhash_table_load_factor" fams with
        | Some f -> f.samples
        | None -> []
      in
      (match List.assoc_opt "nbhash_table_load_factor" families with
      | Some f ->
        Alcotest.(check string) "gauge kind" "gauge" f.kind;
        Alcotest.(check bool) "gauge labelled with table name" true
          (List.exists
             (fun (l, _) ->
               let has sub =
                 let n = String.length sub in
                 let rec go i =
                   i + n <= String.length l
                   && (String.sub l i n = sub || go (i + 1))
                 in
                 go 0
               in
               has "table=\"LFArrayOpt\"")
             f.samples)
      | None -> Alcotest.fail "missing gauge family nbhash_table_load_factor");
      let before_close = List.length (load_factor_samples families) in
      table.Factory.close ();
      let after_close =
        List.length (load_factor_samples (parse_families (Om.render ())))
      in
      Alcotest.(check int) "closed table's gauges gone" (before_close - 1)
        after_close)

(* Monotonicity across probe resets: scrape, reset (as Runner does at
   every trial barrier), generate less activity than before, scrape
   again — every exported counter must still be >= its first reading. *)
let test_monotone_across_reset () =
  with_probe (fun () ->
      let table = Factory.by_name "LFArray" () in
      stir table;
      let read body =
        List.filter_map
          (fun (name, (f : family)) ->
            if f.kind = "counter" then
              match f.samples with [ (_, v) ] -> Some (name, v) | _ -> None
            else None)
          (parse_families body)
      in
      let first = read (Om.render ()) in
      Global.reset ();
      let ops = table.Factory.new_handle () in
      for k = 0 to 99 do
        ignore (ops.Factory.ins (k * 7))
      done;
      ops.Factory.detach ();
      let second = read (Om.render ()) in
      List.iter
        (fun (name, v1) ->
          match List.assoc_opt name second with
          | None -> Alcotest.failf "counter family %s vanished" name
          | Some v2 ->
            if v2 < v1 then
              Alcotest.failf "counter %s went backwards: %.0f -> %.0f" name v1
                v2)
        first;
      table.Factory.close ())

(* --- the live endpoint --- *)

let test_endpoint () =
  with_probe (fun () ->
      let server = Server.start ~port:0 () in
      Fun.protect
        ~finally:(fun () -> Server.stop server)
        (fun () ->
          let port = Server.port server in
          let table = Factory.by_name "AdaptiveOpt" () in
          stir table;
          let scrape () =
            match Server.http_get ~port "/metrics" with
            | Ok (200, body) -> body
            | Ok (code, _) -> Alcotest.failf "/metrics answered %d" code
            | Error msg -> Alcotest.failf "/metrics scrape failed: %s" msg
          in
          let counters body =
            List.filter_map
              (fun (name, (f : family)) ->
                if f.kind = "counter" then
                  match f.samples with
                  | [ (_, v) ] -> Some (name, v)
                  | _ -> None
                else None)
              (parse_families body)
          in
          let first = counters (scrape ()) in
          stir table;
          let second = counters (scrape ()) in
          List.iter
            (fun (name, v1) ->
              match List.assoc_opt name second with
              | None -> Alcotest.failf "family %s vanished between scrapes" name
              | Some v2 ->
                if v2 < v1 then
                  Alcotest.failf "%s not monotone under churn: %.0f -> %.0f"
                    name v1 v2)
            first;
          Alcotest.(check bool) "some counter advanced" true
            (List.exists
               (fun (name, v2) ->
                 match List.assoc_opt name first with
                 | Some v1 -> v2 > v1
                 | None -> false)
               second);
          (* /snapshot.json carries the same meta block as bench JSON. *)
          (match Server.http_get ~port "/snapshot.json" with
          | Ok (200, body) -> (
            match Json.parse body with
            | Error msg -> Alcotest.failf "/snapshot.json invalid: %s" msg
            | Ok doc ->
              Alcotest.(check (option (list string)))
                "snapshot top-level keys"
                (Some
                   [ "meta"; "counters"; "spans"; "families"; "trace"; "profile" ])
                (Json.keys doc);
              Alcotest.(check (option (list string)))
                "meta keys"
                (Some [ "git_rev"; "domains"; "ocaml"; "hostname"; "timestamp" ])
                (Option.bind (Json.member "meta" doc) Json.keys))
          | Ok (code, _) -> Alcotest.failf "/snapshot.json answered %d" code
          | Error msg -> Alcotest.failf "/snapshot.json failed: %s" msg);
          (match Server.http_get ~port "/health" with
          | Ok (200, _) -> ()
          | Ok (code, body) ->
            Alcotest.failf "/health answered %d: %s" code body
          | Error msg -> Alcotest.failf "/health failed: %s" msg);
          (match Server.http_get ~port "/no-such-route" with
          | Ok (404, _) -> ()
          | Ok (code, _) -> Alcotest.failf "unknown route answered %d" code
          | Error msg -> Alcotest.failf "unknown route failed: %s" msg);
          table.Factory.close ()))

(* --- labeled histogram families --- *)

(* Registration is global and permanent (like leaked table gauges,
   harmless by design), so the test family gets a unique-ish name and
   later scrapes simply keep rendering it. *)
let test_labeled_families () =
  with_probe (fun () ->
      let module L = Nbhash_telemetry.Labeled in
      let h1 =
        L.histogram ~family:"nbhash_test_stage_ns" ~help:"test stage family"
          ~labels:[ ("op", "get"); ("stage", "read") ]
          ()
      in
      let h2 =
        L.histogram ~family:"nbhash_test_stage_ns"
          ~labels:[ ("op", "put"); ("stage", "read") ]
          ()
      in
      (* Same family+labels is get-or-create, not a duplicate. *)
      let h1' =
        L.histogram ~family:"nbhash_test_stage_ns"
          ~labels:[ ("op", "get"); ("stage", "read") ]
          ()
      in
      Alcotest.(check bool) "get-or-create dedupes" true (h1 == h1');
      Nbhash_telemetry.Histogram.observe h1 1_000;
      Nbhash_telemetry.Histogram.observe h1 100_000;
      Nbhash_telemetry.Histogram.observe h2 5_000;
      let body = Om.render () in
      let families = parse_families body in
      (match List.assoc_opt "nbhash_test_stage_ns" families with
      | None -> Alcotest.fail "labeled family missing from the scrape"
      | Some f ->
        Alcotest.(check string) "labeled family kind" "histogram" f.kind;
        let has sub l =
          let n = String.length sub in
          let rec go i =
            i + n <= String.length l && (String.sub l i n = sub || go (i + 1))
          in
          go 0
        in
        let get_buckets =
          List.filter
            (fun (l, _) ->
              has "nbhash_test_stage_ns_bucket{" l && has "op=\"get\"" l)
            f.samples
        in
        Alcotest.(check bool) "op=get buckets present" true
          (get_buckets <> []);
        (* le is the last label, after the identity labels, so the
           le-first cumulativity scanners skip labeled buckets. *)
        List.iter
          (fun (l, _) ->
            if not (has ",le=\"" l) then
              Alcotest.failf "labeled bucket without trailing le: %s" l)
          get_buckets;
        (* _count{op="get",...} sums that entry's observations only. *)
        let count l =
          List.assoc_opt l
            (List.filter_map
               (fun (line, v) ->
                 match String.index_opt line ' ' with
                 | Some i -> Some (String.sub line 0 i, v)
                 | None -> None)
               f.samples)
        in
        Alcotest.(check (option (float 0.)))
          "per-entry count" (Some 2.)
          (count
             "nbhash_test_stage_ns_count{op=\"get\",stage=\"read\"}");
        Alcotest.(check (option (float 0.)))
          "other entry count" (Some 1.)
          (count
             "nbhash_test_stage_ns_count{op=\"put\",stage=\"read\"}"));
      (* The flight-recorder loss counter renders as a labeled counter
         family, one sample per reason, even with no trace installed. *)
      match List.assoc_opt "nbhash_trace_dropped" families with
      | None -> Alcotest.fail "nbhash_trace_dropped family missing"
      | Some f ->
        Alcotest.(check string) "trace-dropped kind" "counter" f.kind;
        Alcotest.(check int) "one sample per reason" 2
          (List.length f.samples))

(* --- the route registry --- *)

let test_route_registry () =
  let hits = ref 0 in
  let reg =
    Server.register_route ~path:"/test-route" (fun () ->
        incr hits;
        (200, "text/plain", "hello from the test route\n"))
  in
  let boom =
    Server.register_route ~path:"/test-boom" (fun () -> failwith "boom")
  in
  let server = Server.start ~port:0 () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Server.unregister_route reg;
      Server.unregister_route boom)
    (fun () ->
      let port = Server.port server in
      (match Server.http_get ~port "/test-route" with
      | Ok (200, body) ->
        Alcotest.(check string) "routed body" "hello from the test route\n"
          body
      | Ok (code, _) -> Alcotest.failf "/test-route answered %d" code
      | Error msg -> Alcotest.failf "/test-route failed: %s" msg);
      Alcotest.(check int) "handler ran once" 1 !hits;
      (* A raising handler is a 500, not a dead server. *)
      (match Server.http_get ~port "/test-boom" with
      | Ok (500, _) -> ()
      | Ok (code, _) -> Alcotest.failf "/test-boom answered %d" code
      | Error msg -> Alcotest.failf "/test-boom failed: %s" msg);
      (* Unregistration brings back 404, and built-ins still win. *)
      Server.unregister_route reg;
      (match Server.http_get ~port "/test-route" with
      | Ok (404, _) -> ()
      | Ok (code, _) ->
        Alcotest.failf "unregistered route answered %d" code
      | Error msg -> Alcotest.failf "unregistered route failed: %s" msg);
      match Server.http_get ~port "/health" with
      | Ok (200, _) -> ()
      | Ok (code, _) -> Alcotest.failf "/health answered %d" code
      | Error msg -> Alcotest.failf "/health failed: %s" msg)

(* --- gauge registry --- *)

let test_gauge_registry () =
  let g1 = Gauge.register ~name:"nbhash_test_gauge" ~help:"a test gauge"
      ~labels:[ ("which", "one") ] (fun () -> 1.5)
  in
  let g2 =
    Gauge.register ~name:"nbhash_test_gauge" ~labels:[ ("which", "two") ]
      (fun () -> 2.5)
  in
  let g3 = Gauge.register ~name:"nbhash_test_nan" (fun () -> Float.nan) in
  let g4 = Gauge.register ~name:"nbhash_test_raise" (fun () -> failwith "x") in
  Fun.protect
    ~finally:(fun () -> List.iter Gauge.unregister [ g1; g2; g3; g4 ])
    (fun () ->
      let mine =
        List.filter
          (fun (s : Gauge.sample) ->
            String.length s.Gauge.name >= 11
            && String.sub s.Gauge.name 0 11 = "nbhash_test")
          (Gauge.read_all ())
      in
      (* NaN and raising thunks are dropped from the scrape, not fatal. *)
      Alcotest.(check int) "two live samples" 2 (List.length mine);
      Alcotest.(check (list (float 0.)))
        "registration order, values read through"
        [ 1.5; 2.5 ]
        (List.map (fun (s : Gauge.sample) -> s.Gauge.value) mine);
      Gauge.unregister g2;
      let mine' =
        List.filter
          (fun (s : Gauge.sample) -> s.Gauge.name = "nbhash_test_gauge")
          (Gauge.read_all ())
      in
      Alcotest.(check int) "unregistered gauge gone" 1 (List.length mine'))

(* --- table gauge label sets --- *)

(* A Factory table and every shard of a KV backend register the same
   seven nbhash_table_* families; the label sets differ only by the
   backend's extra [shard] label, and the label order is part of the
   scraped text. The registration order is the reverse of the source
   listing (list elements are evaluated right to left). *)
let test_table_gauge_labels () =
  let families =
    [ "load_factor"; "buckets"; "cardinal"; "max_depth"; "frozen_buckets";
      "migration_progress"; "announce_pending" ]
    |> List.rev_map (fun m -> "nbhash_table_" ^ m)
  in
  let samples table =
    List.filter
      (fun (s : Gauge.sample) -> List.assoc_opt "table" s.Gauge.labels = Some table)
      (Gauge.read_all ())
  in
  let table = Factory.by_name "LFArrayOpt" () in
  let backend =
    Nbhash_server.Backend.create ~kind:Nbhash_server.Backend.Lockfree ~shards:2
      ~max_threads:4 ()
  in
  Fun.protect
    ~finally:(fun () ->
      table.Factory.close ();
      Nbhash_server.Backend.close backend)
    (fun () ->
      let mine = samples "LFArrayOpt" in
      let instance =
        match mine with
        | s :: _ -> List.assoc "instance" s.Gauge.labels
        | [] -> Alcotest.fail "no LFArrayOpt gauges registered"
      in
      let mine =
        List.filter
          (fun (s : Gauge.sample) ->
            List.assoc_opt "instance" s.Gauge.labels = Some instance)
          mine
      in
      Alcotest.(check (list string)) "factory table families" families
        (List.map (fun (s : Gauge.sample) -> s.Gauge.name) mine);
      List.iter
        (fun (s : Gauge.sample) ->
          Alcotest.(check (list (pair string string)))
            "factory label set"
            [ ("table", "LFArrayOpt"); ("instance", instance) ]
            s.Gauge.labels)
        mine;
      let kv = samples "kv-lockfree" in
      let seq =
        match List.rev kv with
        | s :: _ ->
          let i = List.assoc "instance" s.Gauge.labels in
          String.sub i 0 (String.index i '/')
        | [] -> Alcotest.fail "no kv-lockfree gauges registered"
      in
      let shard i =
        List.filter
          (fun (s : Gauge.sample) ->
            List.assoc_opt "instance" s.Gauge.labels
            = Some (Printf.sprintf "%s/%d" seq i))
          kv
      in
      List.iter
        (fun i ->
          let ss = shard i in
          Alcotest.(check (list string))
            (Printf.sprintf "shard %d families" i)
            families
            (List.map (fun (s : Gauge.sample) -> s.Gauge.name) ss);
          List.iter
            (fun (s : Gauge.sample) ->
              Alcotest.(check (list (pair string string)))
                (Printf.sprintf "shard %d label set" i)
                [
                  ("table", "kv-lockfree");
                  ("instance", Printf.sprintf "%s/%d" seq i);
                  ("shard", string_of_int i);
                ]
                s.Gauge.labels)
            ss)
        [ 0; 1 ])

(* --- the disabled path still allocates nothing with gauges around --- *)

let test_disabled_path_no_alloc () =
  Global.install Probe.noop;
  let table = Factory.by_name "LFArrayOpt" () in
  let ops = table.Factory.new_handle () in
  (* Warm-up takes any one-time allocation off the books. *)
  for i = 0 to 999 do
    Global.emit Event.Cas_retry;
    Global.emit_arg Event.Help_op i
  done;
  let before = Gc.minor_words () in
  for i = 0 to 99_999 do
    Global.emit Event.Cas_retry;
    Global.emit_arg Event.Help_op i;
    let s = Global.span_begin Event.Resize_span in
    Global.record_span Event.Resize_span ~start_ns:s
  done;
  let delta = Gc.minor_words () -. before in
  ops.Factory.detach ();
  table.Factory.close ();
  if delta > 256. then
    Alcotest.failf
      "disabled telemetry path allocated %.0f minor words with gauges \
       registered"
      delta

let suite =
  [
    ( "openmetrics",
      [
        Alcotest.test_case "scrape shape" `Quick test_shape;
        Alcotest.test_case "monotone across probe reset" `Quick
          test_monotone_across_reset;
        Alcotest.test_case "live endpoint under churn" `Quick test_endpoint;
        Alcotest.test_case "labeled histogram families" `Quick
          test_labeled_families;
        Alcotest.test_case "route registry" `Quick test_route_registry;
        Alcotest.test_case "gauge registry" `Quick test_gauge_registry;
        Alcotest.test_case "table gauge label sets" `Quick
          test_table_gauge_labels;
        Alcotest.test_case "disabled path allocation-free" `Quick
          test_disabled_path_no_alloc;
      ] );
  ]
