(* A process-wide registry of callback gauges, read at scrape time.

   Counters accumulate in the ambient probe; gauges are the opposite
   kind of signal — current-value reads (load factor, migration
   progress) that only make sense against a live structure. Each
   registration pairs a metric family name and label set with a thunk;
   the exporter calls [read_all] per scrape and nothing is computed
   between scrapes, so an unscrapped process pays only the cost of the
   registration itself.

   The registry is a [Registry]: registration and unregistration are
   lock-free and reads are a single load. Tables register their gauges
   from Factory attach and unregister on detach; a leaked registration
   is harmless until its thunk touches freed state, which the thunks
   here never do (they only read heap structures kept alive by the
   closure). *)

type sample = {
  name : string;  (* metric family, e.g. "nbhash_table_load_factor" *)
  help : string;  (* HELP text; empty to omit *)
  labels : (string * string) list;  (* e.g. [("table","LFArray")] *)
  value : float;
}

type entry = {
  name : string;
  help : string;
  labels : (string * string) list;
  read : unit -> float;
}

type registration = Registry.handle

let registry : entry Registry.t = Registry.create ()

let register ~name ?(help = "") ?(labels = []) read =
  Registry.register registry { name; help; labels; read }

let unregister = Registry.unregister registry

(* A gauge whose thunk raises (e.g. it races a structure being torn
   down) is dropped from that scrape only — one bad registration must
   not take the whole /metrics endpoint down. Samples come out in
   registration order, which keeps scrape output stable. *)
let read_all () =
  Registry.to_list registry
  |> List.filter_map (fun e ->
         match e.read () with
         | v when Float.is_finite v ->
           Some { name = e.name; help = e.help; labels = e.labels; value = v }
         | _ -> None
         | exception _ -> None)

(* Tests only: forget every registration, like [Labeled.reset_all]. *)
let reset_all () = Registry.clear registry
