(* A deliberately broken flat open-addressing FSet: same slot-word
   encoding and freeze latch as [Flat_fset] (occupied bit 0, SEAL bit
   1, tombstones, a decided-freeze flag and a seal sweep), except that
   the insert claim does NOT re-check the FROZEN latch after its CAS
   target is chosen: it claims any empty-keyed word, sealed or not.
   The shipped [Flat_fset] claims only the exactly-zero unsealed word,
   so a freeze that seals the slot between the insert's read and its
   CAS makes the CAS fail and the retry rediscovers the latch; here
   the CAS happily installs a key into a slot the freeze already
   latched — an update applied after the set's final snapshot.

   The model-check suite demands that the explorer finds this: the
   freeze-vs-insert scenario over this module must produce a
   counterexample schedule, while [Flat_fset] passes the same
   exploration. Slot words live in the same flat [Nb_atomic.Int_array]
   block as [Flat_fset]'s and go through the shim, so the checker
   schedules every slot load and CAS. Fixed capacity: the scenario stays far below the
   migration threshold, so no grow/compact machinery is needed. *)

module Atomic = Nbhash_util.Nb_atomic
module Fset_intf = Nbhash_fset.Fset_intf

module Slots = Atomic.Int_array

type t = {
  slots : Slots.t;  (* one flat block of slot words, as in [Flat_fset] *)
  mask : int;
  decided : bool Atomic.t;  (* freeze latch decided *)
}

type op = { kind : Fset_intf.kind; key : int; mutable resp : bool }

let id = "broken-flat"
let occupied_bit = 1
let seal_bit = 2
let empty_w = 0
let tomb_w = 4
let enc k = (k lsl 2) lor occupied_bit
let dec w = w lsr 2
let is_occupied w = w land occupied_bit <> 0

let mix k =
  let h = k * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

let cap = 8

let create elems =
  let t =
    {
      slots = Slots.make cap empty_w;
      mask = cap - 1;
      decided = Atomic.make false;
    }
  in
  Array.iter
    (fun k ->
      let home = mix k land t.mask in
      let rec go d =
        let idx = (home + d) land t.mask in
        if Slots.get t.slots idx = empty_w then
          Slots.set_private t.slots idx (enc k)
        else go (d + 1)
      in
      go 0)
    elems;
  t

let make_op kind key = { kind; key; resp = false }
let get_response op = op.resp

let help_seal t =
  for idx = 0 to t.mask do
    let rec seal () =
      let w = Slots.get t.slots idx in
      if w land seal_bit = 0 then
        if not (Slots.compare_and_set t.slots idx w (w lor seal_bit)) then
          seal ()
    in
    seal ()
  done

let sealed_elements t =
  let acc = ref [] in
  for idx = t.mask downto 0 do
    let w = Slots.get t.slots idx in
    if is_occupied w then acc := dec w :: !acc
  done;
  Array.of_list !acc

let invoke t op =
  let home = mix op.key land t.mask in
  let w_occ = enc op.key in
  let on_sealed () =
    help_seal t;
    false
  in
  let rec go d =
    if d > t.mask then on_sealed ()
    else
      let idx = (home + d) land t.mask in
      at_word idx d
  and at_word idx d =
    let w = Slots.get t.slots idx in
    match op.kind with
    | Fset_intf.Ins ->
      if w land lnot seal_bit = empty_w then begin
        (* BUG: a SEALED empty word (w = 2) is treated as claimable.
           [Flat_fset] CASes only against the exactly-zero unsealed
           word, which is its freeze re-check; claiming [w] as read
           installs a key into a slot the freeze already latched. *)
        if Slots.compare_and_set t.slots idx w w_occ then begin
          op.resp <- true;
          true
        end
        else at_word idx d
      end
      else if w lor seal_bit = w_occ lor seal_bit then begin
        if w land seal_bit = 0 then begin
          op.resp <- false;
          true
        end
        else on_sealed ()
      end
      else go (d + 1)
    | Fset_intf.Rem ->
      if w = empty_w then begin
        op.resp <- false;
        true
      end
      else if w = empty_w lor seal_bit then on_sealed ()
      else if w lor seal_bit = w_occ lor seal_bit then begin
        if w land seal_bit = 0 then
          if Slots.compare_and_set t.slots idx w_occ tomb_w then begin
            op.resp <- true;
            true
          end
          else at_word idx d
        else on_sealed ()
      end
      else go (d + 1)
  in
  go 0

let freeze t =
  if not (Atomic.get t.decided) then
    ignore (Atomic.compare_and_set t.decided false true);
  help_seal t;
  sealed_elements t

let has_member t k =
  let home = mix k land t.mask in
  let w_occ = enc k in
  let rec go d =
    if d > t.mask then false
    else
      let idx = (home + d) land t.mask in
      let w = Slots.get t.slots idx in
      if w land lnot seal_bit = empty_w then false
      else if w lor seal_bit = w_occ lor seal_bit then true
      else go (d + 1)
  in
  go 0

let size t = Array.length (sealed_elements t)
let elements t = sealed_elements t

let is_frozen t =
  Atomic.get t.decided
  &&
  let rec sealed idx =
    idx > t.mask || (Slots.get t.slots idx land seal_bit <> 0 && sealed (idx + 1))
  in
  sealed 0
