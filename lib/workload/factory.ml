module Atomic = Nbhash_util.Nb_atomic
module V = Nbhash.Hashset_intf

type ops = {
  ins : int -> bool;
  rem : int -> bool;
  look : int -> bool;
  force_resize : grow:bool -> unit;
  detach : unit -> unit;
}

type table = {
  name : string;
  new_handle : unit -> ops;
  bucket_count : unit -> int;
  cardinal : unit -> int;
  elements : unit -> int array;
  check_invariants : unit -> unit;
  resize_stats : unit -> Nbhash.Hashset_intf.resize_stats;
  bucket_sizes : unit -> int array;
  pending : unit -> (int * int) array;
  inspect : unit -> Nbhash.Hashset_intf.table_view;
  close : unit -> unit;
}

type maker = ?policy:Nbhash.Policy.t -> ?max_threads:int -> unit -> table

(* Distinguishes same-named tables that coexist (bench arms, trials)
   in gauge label sets and watchdog source names. *)
let instance_seq = Atomic.make 0

(* Register this table's health gauges and its watchdog source;
   returns the detach thunk stored in [close]. The gauges are labeled
   [table] and [instance] (a fresh sequence number unless [instance]
   is given), then [labels]; the watchdog source is named
   [name#instance]. The gauge thunks hold the table alive through
   their closures, so a table dropped without [close] merely leaves
   stale-but-safe gauges behind. *)
let attach ?instance ?(labels = []) ~name ~inspect ~pending () =
  let module G = Nbhash_telemetry.Gauge in
  let instance =
    match instance with
    | Some i -> i
    | None -> string_of_int (Atomic.fetch_and_add instance_seq 1)
  in
  let labels = ("table", name) :: ("instance", instance) :: labels in
  let gauge metric help read =
    G.register ~name:("nbhash_table_" ^ metric) ~help ~labels (fun () ->
        read (inspect ()))
  in
  let gauges =
    [
      gauge "load_factor" "Keys per bucket" (fun v -> v.V.load_factor);
      gauge "buckets" "Current bucket-array size" (fun v ->
          float_of_int v.V.buckets);
      gauge "cardinal" "Keys in the table" (fun v -> float_of_int v.V.cardinal);
      gauge "max_depth" "Deepest bucket" (fun v -> float_of_int v.V.max_depth);
      gauge "frozen_buckets" "Buckets in the frozen (immutable) state"
        (fun v -> float_of_int v.V.frozen_buckets);
      gauge "migration_progress"
        "Fraction of head buckets initialized; 1 when not migrating"
        (fun v -> v.V.migration_progress);
      gauge "announce_pending" "Announced-but-incomplete operations" (fun v ->
          float_of_int v.V.announce_pending);
    ]
  in
  let wd =
    Nbhash_telemetry.Watchdog.register_source
      ~name:(name ^ "#" ^ instance)
      pending
  in
  fun () ->
    List.iter G.unregister gauges;
    Nbhash_telemetry.Watchdog.unregister_source wd

let of_module (module S : Nbhash.Hashset_intf.S) : maker =
 fun ?policy ?max_threads () ->
  let t = S.create ?policy ?max_threads () in
  let close =
    attach ~name:S.name
      ~inspect:(fun () -> S.inspect t)
      ~pending:(fun () -> S.pending_ops t)
      ()
  in
  {
    name = S.name;
    new_handle =
      (fun () ->
        let h = S.register t in
        {
          ins = S.insert h;
          rem = S.remove h;
          look = S.contains h;
          force_resize = (fun ~grow -> S.force_resize h ~grow);
          detach = (fun () -> S.unregister h);
        });
    bucket_count = (fun () -> S.bucket_count t);
    cardinal = (fun () -> S.cardinal t);
    elements = (fun () -> S.elements t);
    check_invariants = (fun () -> S.check_invariants t);
    resize_stats = (fun () -> S.resize_stats t);
    bucket_sizes = (fun () -> S.bucket_sizes t);
    pending = (fun () -> S.pending_ops t);
    inspect = (fun () -> S.inspect t);
    close;
  }

let adaptive_tuned ~fast_threshold : maker =
 fun ?policy ?max_threads () ->
  let module A = Nbhash.Tables.Adaptive in
  let t = A.create_tuned ?policy ?max_threads ~fast_threshold () in
  let name = Printf.sprintf "Adaptive(%d)" fast_threshold in
  let close =
    attach ~name
      ~inspect:(fun () -> A.inspect t)
      ~pending:(fun () -> A.pending_ops t)
      ()
  in
  {
    name;
    new_handle =
      (fun () ->
        let h = A.register t in
        {
          ins = A.insert h;
          rem = A.remove h;
          look = A.contains h;
          force_resize = (fun ~grow -> A.force_resize h ~grow);
          detach = (fun () -> A.unregister h);
        });
    bucket_count = (fun () -> A.bucket_count t);
    cardinal = (fun () -> A.cardinal t);
    elements = (fun () -> A.elements t);
    check_invariants = (fun () -> A.check_invariants t);
    resize_stats = (fun () -> A.resize_stats t);
    bucket_sizes = (fun () -> A.bucket_sizes t);
    pending = (fun () -> A.pending_ops t);
    inspect = (fun () -> A.inspect t);
    close;
  }

let all_eight =
  [
    ("SplitOrder", of_module (module Nbhash_splitorder.Split_ordered));
    ("LFArray", of_module (module Nbhash.Tables.LFArray));
    ("LFArrayOpt", of_module (module Nbhash.Tables.LFArrayOpt));
    ("LFList", of_module (module Nbhash.Tables.LFList));
    ("WFArray", of_module (module Nbhash.Tables.WFArray));
    ("WFList", of_module (module Nbhash.Tables.WFList));
    ("Adaptive", of_module (module Nbhash.Tables.Adaptive));
    ("AdaptiveOpt", of_module (module Nbhash.Tables.AdaptiveOpt));
  ]

let all_nine =
  all_eight @ [ ("LFFlat", of_module (module Nbhash.Tables.LFFlat)) ]

let with_michael =
  all_nine
  @ [
      ("LFUlist", of_module (module Nbhash.Tables.LFUlist));
      ("LFSorted", of_module (module Nbhash.Tables.LFSorted));
      ("Michael", of_module (module Nbhash_michael.Michael_hashset));
      ("Locked", of_module (module Nbhash_locked.Locked_hashset));
    ]

let by_name name = List.assoc name with_michael
