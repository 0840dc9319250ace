(* The one process-wide registry idiom of the telemetry layer: gauges,
   labeled histogram families, metrics-server routes, false-sharing
   lane sources, profile views and watchdog sources are each an
   instance.

   A registry is a CAS-swapped immutable list through the Nb_atomic
   shim, newest entry first: registration and unregistration are
   lock-free, and a read is a single load of a list no writer will
   mutate. Every entry gets an id from a per-registry counter; ids are
   never reused, so unregistering a handle twice is harmless. Reads
   come back in registration order, which keeps scrape output
   stable. *)

module Atomic = Nbhash_util.Nb_atomic

type 'a t = { next : int Atomic.t; entries : (int * 'a) list Atomic.t }
type handle = int

let create () = { next = Atomic.make 0; entries = Atomic.make [] }

(* Replace the entry list by [f]'s first result, retrying [f] on a
   fresh list whenever another writer got there first; returns [f]'s
   second result from the attempt that won. *)
let rec swap t f =
  let cur = Atomic.get t.entries in
  let next, r = f cur in
  if Atomic.compare_and_set t.entries cur next then r else swap t f

let register t v =
  let id = Atomic.fetch_and_add t.next 1 in
  swap t (fun l -> ((id, v) :: l, id))

let unregister t id =
  swap t (fun l -> (List.filter (fun (i, _) -> i <> id) l, ()))

(* Drop every entry that fails [keep]. *)
let retain t keep =
  swap t (fun l -> (List.filter (fun (_, v) -> keep v) l, ()))

let clear t = swap t (fun _ -> ([], ()))

let to_list t = List.rev_map snd (Atomic.get t.entries)

(* Get-or-create: the entry satisfying [matches], or a fresh one from
   [make] registered under the same CAS that checked for it, so racing
   callers agree on exactly one entry (a loser's [make] result is
   dropped). *)
let find_or_add t matches make =
  swap t (fun l ->
      match List.find_opt (fun (_, v) -> matches v) l with
      | Some (_, v) -> (l, v)
      | None ->
        let v = make () in
        ((Atomic.fetch_and_add t.next 1, v) :: l, v))

(* Group [l] by [key], groups and members in first-appearance order:
   the shape of an exposition format that needs every sample of a
   family contiguous. *)
let group_by key l =
  let order = ref [] in
  let members = Hashtbl.create 8 in
  List.iter
    (fun x ->
      let k = key x in
      match Hashtbl.find_opt members k with
      | Some xs -> Hashtbl.replace members k (x :: xs)
      | None ->
        Hashtbl.add members k [ x ];
        order := k :: !order)
    l;
  List.rev_map (fun k -> (k, List.rev (Hashtbl.find members k))) !order
