(* Shared plumbing: the clock, the run's correctness ledger, metric
   output and small statistics. *)

let now = Nbhash_util.Clock.now_ns
let s_of_ns ns = float_of_int ns /. 1e9

(* --- the ledger: every checked outcome is attempted; a mismatch is
   failed and printed --- *)

let attempted = ref 0
let failed = ref 0
let errors_shown = ref 0

let attempt n = attempted := !attempted + n

let fail ?(n = 1) fmt =
  Printf.ksprintf
    (fun msg ->
      failed := !failed + n;
      if !errors_shown < 20 then begin
        incr errors_shown;
        Printf.eprintf "CHECK FAILED: %s\n%!" msg
      end)
    fmt

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then fail "%s" msg) fmt

(* --- metrics: (name, value, unit), printed as one JSON object --- *)

let metrics : (string * float * string) list ref = ref []
let metric name unit value = metrics := (name, value, unit) :: !metrics

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* --- statistics --- *)

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0. xs /. float_of_int (List.length xs))

(* Seeded Fisher-Yates permutation of [0, n). *)
let shuffled ~seed n =
  let rng = Nbhash_util.Xoshiro.create seed in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Nbhash_util.Xoshiro.below rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* Peak resident set (VmHWM) of [pid], or of this process, in MiB. *)
let peak_rss_mib ?pid () =
  let path =
    match pid with
    | None -> "/proc/self/status"
    | Some p -> Printf.sprintf "/proc/%d/status" p
  in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        | _ -> scan ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      scan ())

(* The second worker domain, kept for the whole run so that rounds do
   not pay for (or vary with) domain start-up. *)
module Helper = struct
  let m = Mutex.create ()
  let c = Condition.create ()
  let job : (unit -> unit) option ref = ref None
  let busy = ref false
  let quit = ref false

  let rec loop () =
    Mutex.lock m;
    while !job = None && not !quit do
      Condition.wait c m
    done;
    let j = !job in
    job := None;
    Mutex.unlock m;
    match j with
    | None -> ()
    | Some f ->
      f ();
      Mutex.lock m;
      busy := false;
      Condition.broadcast c;
      Mutex.unlock m;
      loop ()

  let domain = lazy (Domain.spawn loop)

  let run f =
    ignore (Lazy.force domain);
    Mutex.lock m;
    job := Some f;
    busy := true;
    Condition.broadcast c;
    Mutex.unlock m

  let wait () =
    Mutex.lock m;
    while !busy do
      Condition.wait c m
    done;
    Mutex.unlock m

  let stop () =
    if Lazy.is_val domain then begin
      Mutex.lock m;
      quit := true;
      Condition.broadcast c;
      Mutex.unlock m;
      Domain.join (Lazy.force domain)
    end
end

(* Run [f 0] on the calling domain and [f 1] on the helper domain. *)
let par2 f =
  let r1 = ref (Error Exit) in
  Helper.run (fun () -> r1 := try Ok (f 1) with e -> Error e);
  let r0 = try Ok (f 0) with e -> Error e in
  Helper.wait ();
  match (r0, !r1) with
  | Ok a, Ok b -> (a, b)
  | Error e, _ | _, Error e -> raise e

(* GC counters of this process over [f ()]. *)
let with_gc f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  (r, g1.Gc.minor_words -. g0.Gc.minor_words, g1.Gc.major_collections - g0.Gc.major_collections)
