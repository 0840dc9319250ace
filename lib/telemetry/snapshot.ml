(* A point-in-time read of a probe: one total per event, one duration
   summary per span that observed anything. Pretty-printed for humans
   and hand-encoded to JSON (sorted, stable key order) for the
   machine-readable bench trajectory — no external JSON dependency. *)

type t = {
  counters : (string * int) list;  (* in Event.all order *)
  spans : (string * Nbhash_util.Stats.summary) list;  (* non-empty spans *)
}

let zero =
  {
    counters = List.map (fun ev -> (Event.to_string ev, 0)) Event.all;
    spans = [];
  }

let counter t name = Option.value ~default:0 (List.assoc_opt name t.counters)
let get t ev = counter t (Event.to_string ev)
let span t s = List.assoc_opt (Event.span_to_string s) t.spans
let is_zero t = List.for_all (fun (_, n) -> n = 0) t.counters && t.spans = []

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (name, n) ->
      if n > 0 then Format.fprintf ppf "%-16s %d@," name n)
    t.counters;
  List.iter
    (fun (name, s) ->
      Format.fprintf ppf "%-16s %a@," name Nbhash_util.Stats.pp_summary s)
    t.spans;
  if is_zero t then Format.fprintf ppf "(no events recorded)@,";
  Format.fprintf ppf "@]"

let to_string t = Format.asprintf "%a" pp t

(* --- JSON --- *)

module Json = Nbhash_util.Json

let json_summary (s : Nbhash_util.Stats.summary) =
  Printf.sprintf
    "{\"n\":%d,\"mean\":%s,\"min\":%s,\"p50\":%s,\"p95\":%s,\"p99\":%s,\"max\":%s}"
    s.Nbhash_util.Stats.n
    (Json.number s.Nbhash_util.Stats.mean)
    (Json.number s.Nbhash_util.Stats.min)
    (Json.number s.Nbhash_util.Stats.median)
    (Json.number s.Nbhash_util.Stats.p95)
    (Json.number s.Nbhash_util.Stats.p99)
    (Json.number s.Nbhash_util.Stats.max)

(* [meta], when given, is a ready-made JSON object (see Meta.json) and
   leads the document so scraped snapshots carry the same provenance
   block as bench artifacts. [families] (the labeled-histogram block,
   see Labeled.families_json), [trace] (the flight-recorder loss
   block, see Metrics_server) and [profile] (the per-site contention
   block, see Profile.snapshot_block) are likewise pre-rendered JSON
   values appended after the spans. Omitting everything keeps the
   historical two-key shape exactly. *)
let to_json ?meta ?families ?trace ?profile t =
  let counters =
    String.concat ","
      (List.map
         (fun (name, n) -> Printf.sprintf "\"%s\":%d" name n)
         t.counters)
  in
  let spans =
    String.concat ","
      (List.map
         (fun (name, s) -> Printf.sprintf "\"%s\":%s" name (json_summary s))
         t.spans)
  in
  let b = Buffer.create 512 in
  Buffer.add_char b '{';
  (match meta with
  | None -> ()
  | Some m -> Buffer.add_string b (Printf.sprintf "\"meta\":%s," m));
  Buffer.add_string b
    (Printf.sprintf "\"counters\":{%s},\"spans\":{%s}" counters spans);
  (match families with
  | None -> ()
  | Some f -> Buffer.add_string b (Printf.sprintf ",\"families\":%s" f));
  (match trace with
  | None -> ()
  | Some tr -> Buffer.add_string b (Printf.sprintf ",\"trace\":%s" tr));
  (match profile with
  | None -> ()
  | Some p -> Buffer.add_string b (Printf.sprintf ",\"profile\":%s" p));
  Buffer.add_char b '}';
  Buffer.contents b
