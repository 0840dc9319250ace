(* Provenance of a telemetry artifact: without it there is no telling
   which machine or commit produced a scraped snapshot or a checked-in
   BENCH_*.json. The same block appears in bench schema v2 files and
   in /snapshot.json scrapes, which makes the two joinable. Every
   value is best-effort — a missing git binary must not fail a run. *)

module Json = Nbhash_util.Json

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "unknown" in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> line
    | _ -> "unknown")
  with _ -> "unknown"

let iso_timestamp () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let json () =
  Printf.sprintf
    "{\"git_rev\":\"%s\",\"domains\":%d,\"ocaml\":\"%s\",\"hostname\":\"%s\",\"timestamp\":\"%s\"}"
    (Json.escape (git_rev ()))
    (Domain.recommended_domain_count ())
    (Json.escape Sys.ocaml_version)
    (Json.escape (try Unix.gethostname () with _ -> "unknown"))
    (iso_timestamp ())
