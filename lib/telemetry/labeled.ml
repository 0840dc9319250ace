(* A process-wide registry of *labeled* histogram families, the
   multi-series complement of the ambient probe's per-span histograms:
   one [Histogram.t] per (family, label-set) pair, e.g.
   [nbhash_server_stage_ns{op="get",stage="read"}]. A [Registry], so
   registration is lock-free and the scrape path is a single load.
   Unlike probe histograms these are never reset by the bench runner,
   so the exporter can render them raw — they are monotone by
   construction.

   [histogram] is get-or-create: instrumentation sites call it once at
   module initialisation, keep the returned histogram, and observe
   into it directly — the registry is never on a hot path. *)

module Json = Nbhash_util.Json

type entry = {
  family : string;
  help : string;
  labels : (string * string) list;  (* label order is significant *)
  hist : Histogram.t;
}

let registry : entry Registry.t = Registry.create ()

let histogram ~family ?(help = "") ~labels () =
  (Registry.find_or_add registry
     (fun e -> e.family = family && e.labels = labels)
     (fun () ->
       { family; help; labels; hist = Histogram.make ~name:family () }))
    .hist

(* Entries in registration order. *)
let read_all () = Registry.to_list registry

(* Tests only: forget every registered family. Instrumentation sites
   keep their histogram references, so observations made after a reset
   simply stop being exported. *)
let reset_all () = Registry.clear registry

(* --- JSON (snapshot block) --- *)

(* {"<family>":[{"labels":{...},"summary":{...}|null},...],...} with
   families in registration order, entries of a family contiguous. *)
let families_json () =
  let entry_json e =
    let labels =
      String.concat ","
        (List.map
           (fun (k, v) ->
             Printf.sprintf "\"%s\":\"%s\"" (Json.escape k) (Json.escape v))
           e.labels)
    in
    let summary =
      match Histogram.summary e.hist with
      | None -> "null"
      | Some s -> Snapshot.json_summary s
    in
    Printf.sprintf "{\"labels\":{%s},\"summary\":%s}" labels summary
  in
  let family_json (name, group) =
    Printf.sprintf "\"%s\":[%s]" (Json.escape name)
      (String.concat "," (List.map entry_json group))
  in
  Printf.sprintf "{%s}"
    (String.concat ","
       (List.map family_json (Registry.group_by (fun e -> e.family) (read_all ()))))
