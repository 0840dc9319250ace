(* Per-domain lanes of atomic int cells: the one place in the
   telemetry layer that picks a shard for a counter. A lane set is
   [lanes] lanes of [width] cells in one flat [Nb_atomic.Int_array];
   a domain adds into lane [domain_id land (lanes - 1)], so domains
   that do not collide on a lane never write the same cache line.
   The probe's event counters, every histogram's buckets, the probe's
   per-site retry counts and the per-domain help-time accumulators
   are lane sets.

   Padding: consecutive lanes start [stride] words apart, where
   [stride] is a multiple of the 8-word (64-byte) cache line with at
   least 7 unused words after a lane's last cell. Whatever the block's
   alignment, the last cell of one lane and the first cell of the next
   are then 8 words apart, so no line holds cells of two lanes.

   Two domains that collide on a lane lose locality, never updates:
   every write is a fetch-and-add. Totals are sums computed at read
   time; [reset] subtracts what it read, so an increment racing it is
   kept rather than lost.

   Every lane set registers itself as a source of the false-sharing
   detector ([Profile.false_sharing]). Sources are held weakly: a
   lane set (or any other registered array) that becomes garbage
   drops out of the report instead of being pinned by it. *)

module Atomic = Nbhash_util.Nb_atomic

(* --- false-sharing sources --- *)

(* A source is any array written on hot paths whose per-lane
   cumulative write counts can be read cheaply. [lanes_per_line] says
   how many consecutive lanes share one 64-byte line: 1 for a padded
   lane set (its ping-pong risk is domains colliding on one lane), 8
   for a word-packed array such as the wait-free tables' announce
   write counts. The caller keeps the returned source alive for as
   long as the array matters. *)
type source = {
  name : string;
  lanes_per_line : int;
  read : unit -> int array;  (* cumulative per-lane write counts *)
}

let sources : source Weak.t Registry.t = Registry.create ()
let prune () = Registry.retain sources (fun w -> Weak.check w 0)

let register_source ~name ~lanes_per_line read =
  if lanes_per_line < 1 then
    invalid_arg "Lanes.register_source: lanes_per_line < 1";
  let src = { name; lanes_per_line; read } in
  let w = Weak.create 1 in
  Weak.set w 0 (Some src);
  prune ();
  ignore (Registry.register sources w);
  src

(* Live sources in registration order. *)
let live_sources () =
  prune ();
  List.filter_map (fun w -> Weak.get w 0) (Registry.to_list sources)

(* --- lane sets --- *)

let line_words = 8
let default_lanes = 8

type t = {
  cells : Atomic.Int_array.t;  (* lanes x stride; [width] used per lane *)
  width : int;
  stride : int;
  mask : int;  (* lanes - 1 *)
  source : source;  (* keeps the weak registration alive *)
}

let stride_for width = (width + (2 * line_words) - 2) / line_words * line_words

let make ~name ?(lanes = default_lanes) ~width () =
  if not (Nbhash_util.Bits.is_pow2 lanes) then
    invalid_arg "Lanes.make: lanes must be a power of two";
  if width < 1 then invalid_arg "Lanes.make: width < 1";
  let stride = stride_for width in
  let cells = Atomic.Int_array.make (lanes * stride) 0 in
  let lane_totals () =
    Array.init lanes (fun lane ->
        let acc = ref 0 in
        for i = 0 to width - 1 do
          acc := !acc + Atomic.Int_array.get cells ((lane * stride) + i)
        done;
        !acc)
  in
  let source = register_source ~name ~lanes_per_line:1 lane_totals in
  { cells; width; stride; mask = lanes - 1; source }

(* Offset of the calling domain's lane. *)
let[@inline] own t = ((Domain.self () :> int) land t.mask) * t.stride

let[@inline] add t i n = ignore (Atomic.Int_array.fetch_and_add t.cells (own t + i) n)

(* Cell [i] of the calling domain's lane. *)
let[@inline] get_own t i = Atomic.Int_array.get t.cells (own t + i)

(* Cell [i] summed over lanes. *)
let sum t i =
  let total = ref 0 in
  for lane = 0 to t.mask do
    total := !total + Atomic.Int_array.get t.cells ((lane * t.stride) + i)
  done;
  !total

(* Every cell of every lane. *)
let total t = Array.fold_left ( + ) 0 (t.source.read ())

let reset t =
  for lane = 0 to t.mask do
    for i = 0 to t.width - 1 do
      let j = (lane * t.stride) + i in
      ignore (Atomic.Int_array.fetch_and_add t.cells j (- Atomic.Int_array.get t.cells j))
    done
  done
