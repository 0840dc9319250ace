(* Flat open-addressing freezable set (DESIGN.md System 17).

   A lock-free linear-probing FSet over one flat block of atomic slot
   words ([Nb_atomic.Int_array]: a plain OCaml int array whose slots
   are loaded and CASed through seq_cst C stubs), with a side array of
   one plain fingerprint byte per slot so the probe loop skips most
   full-slot reads. This is the cache-friendly bucket layout of
   Gao-Groote-Hesselink's open addressing table and the "folklore"
   flat table of Maier et al., wearing the paper's freeze protocol so
   it plugs into the tables' grow/shrink machinery unchanged (as an
   FSet object, through Table_core.Fset_slot).

   Layout of one generation (node) of capacity c, in words with
   headers: the node record (7), the slot block (c + 1), the tag bytes
   (c/8 + 2) and the fate, used and live atomics (2 each), so
   c + c/8 + 16 words: 34 for a 16-slot node, 25 for the minimum of 8.
   Slots as an [int Atomic.t array] plus a [sealed] counter cost
   3c + c/8 + 19 (69 and 44). The set itself is one more [Atomic.t]
   holding the current node. Slot loads are C-stub atomics rather
   than plain array reads because invariant 2 below is an argument
   about the single total order of seq_cst operations: a plain load
   could see a sealed word yet an older fate.

   Slot words pack a key and two flag bits:

     bit 0  occupied   the word carries a key in bits 2..62
     bit 1  SEAL       the freeze/migration latch

     0b000...000_00  Empty         claimable
     0b000...001_00  Tombstone     key field 1, never a valid key word
     k lsl 2 lor 01  Occupied k
     w      lor 10   sealed w      immutable forever

   Keys live in [0, 2^61): [k lsl 2] keeps bits 2..62 of the word and
   [w lsr 2] recovers k exactly. The tombstone word (key field 1,
   occupied bit clear) can never collide with an occupied encoding
   because every occupied word is odd.

   Protocol invariants the proofs in DESIGN.md lean on:

   1. Inserts claim only Empty words (CAS 0 -> enc k), never
      tombstones. A slot's key field is therefore written at most once
      per array generation ("write-once slots"), which is what makes
      the racy fingerprint bytes sound: the only nonzero tag ever
      observable for a slot is the fingerprint of its unique occupant.
      Tombstone space is reclaimed by compaction (below), not reuse.
   2. The node's [fate] arbiter is decided exactly once
      (Undecided -> Frozen | Moving). Every seal CAS happens after the
      fate is decided, so observing a sealed word implies a decided
      fate (atomics are SC).
   3. [freeze] linearizes when the last slot's SEAL bit is latched;
      an update CAS that succeeds on an unsealed word has therefore
      linearized before the freeze, and any operation that reports
      "frozen" first helps the seal sweep to completion so its refusal
      is truthful.
   4. A full probe wrap that finds no Empty word proves the key absent
      from this node forever (claims are permanent and slots are
      write-once), so concluding "absent" after consulting the fate is
      linearizable even though the walk was not atomic. *)

module Atomic = Nbhash_util.Nb_atomic
module Slots = Atomic.Int_array
module Tm = Nbhash_telemetry.Global
module Ev = Nbhash_telemetry.Event

(* Profiler site ids for this file's CAS-retry loops (DESIGN.md 19). *)
let site_seal = Nbhash_telemetry.Site.register "flat_fset/seal"
let site_insert = Nbhash_telemetry.Site.register "flat_fset/insert"
let site_remove = Nbhash_telemetry.Site.register "flat_fset/remove"

(* The one-shot arbiter between freezing and compaction/growth
   migration. [Frozen] means the decision, not the completion: the set
   is frozen only once the seal sweep has latched every slot. *)
type fate = Undecided | Frozen | Moving

type node = {
  mask : int;
  slots : Slots.t;
  tags : Bytes.t;
      (* one plain fingerprint byte per slot; 0 = no claim witnessed *)
  fate : fate Atomic.t;
  used : int Atomic.t;  (* claimed slots: occupied + tombstones *)
  live : int Atomic.t;  (* occupied slots *)
}

type t = node Atomic.t  (* the current generation *)
type op = { kind : Fset_intf.kind; key : int; mutable resp : bool }

let id = "flat"

let occupied_bit = 1
let seal_bit = 2
let empty_w = 0
let tomb_w = 4 (* key field 1, occupied bit clear: not a key word *)
let enc k = (k lsl 2) lor occupied_bit
let dec w = w lsr 2
let is_occupied w = w land occupied_bit <> 0

let check_key k =
  if k < 0 || k asr 61 <> 0 then
    invalid_arg "Flat_fset: key out of [0, 2^61)"

(* The tables route key [k] to bucket [k land table_mask], so keys
   arriving in one bucket share their low bits; the probe home must
   come from mixed high entropy or every key would probe from slot
   0. One multiply + xor-shift of a SplitMix-style odd constant
   (fits in 62 bits). *)
let mix k =
  let h = k * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

(* Fingerprint from bits the home index does not use; 0 is reserved
   for "no claim witnessed", so collapse it to 1. *)
let fp_of_hash h =
  let f = (h lsr 13) land 0xff in
  if f = 0 then 1 else f

let[@inline] tag_at n idx = Char.code (Bytes.unsafe_get n.tags idx)
let[@inline] next n idx = (idx + 1) land n.mask

let new_node cap ~keys =
  {
    mask = cap - 1;
    slots = Slots.make cap empty_w;
    tags = Bytes.make cap '\000';
    fate = Atomic.make Undecided;
    used = Atomic.make keys;
    live = Atomic.make keys;
  }

(* Pre-publication placement: the node is private to the constructing
   thread until it is published through an atomic (the root CAS or a
   bucket install), which carries the plain slot and tag stores along.
   A private node's tags are exact (every placed key sets its nonzero
   fingerprint), so the free-slot search reads tags, not slots. *)
let rec place_from n w f idx =
  if tag_at n idx <> 0 then place_from n w f (next n idx)
  else begin
    Slots.set_private n.slots idx w;
    (Bytes.unsafe_set n.tags idx (Char.unsafe_chr f)
    [@nbhash.plain_ok
      "node is private until published through an atomic; the publish \
       carries these plain bytes"])
  end

let place n k =
  let h = mix k in
  place_from n (enc k) (fp_of_hash h) (h land n.mask)

(* A private node holding [keys]; [used] and [live] start exact. *)
let build cap keys =
  let n = new_node cap ~keys:(Array.length keys) in
  for i = 0 to Array.length keys - 1 do
    place n keys.(i)
  done;
  n

let capacity_for len = Nbhash_util.Bits.next_pow2 (max 8 (2 * len))

let create elems =
  Array.iter check_key elems;
  Atomic.make (build (capacity_for (Array.length elems)) elems)

let make_op kind key =
  check_key key;
  { kind; key; resp = false }

let get_response op = op.resp

(* Latch the SEAL bit into slot [idx] and return the slot's final
   word. Each bit is latched by exactly one winning CAS, and a sealed
   word never changes again. *)
let rec seal_slot n idx =
  let w = Slots.get n.slots idx in
  if w land seal_bit <> 0 then w
  else if Slots.compare_and_set n.slots idx w (w lor seal_bit) then
    w lor seal_bit
  else begin
    Tm.cas_retry site_seal;
    seal_slot n idx
  end

(* The seal sweep. Any number of threads help; it is complete once
   every slot reads sealed. Every helper sees each slot's final word,
   so each returns the exact key count of the sealed node. *)
let help_seal n =
  let keys = ref 0 in
  for idx = 0 to n.mask do
    if is_occupied (seal_slot n idx) then incr keys
  done;
  !keys

let rec sealed_from n idx =
  idx > n.mask
  || (Slots.get n.slots idx land seal_bit <> 0 && sealed_from n (idx + 1))

(* The first [count] keys of [n] in slot order, the result array being
   the only allocation. On a sealed node [count] is exact and every
   caller computes the identical array; on a live node (the racy
   [elements] view) the fill is clipped to what it finds. *)
let keys_of n count =
  let a = Array.make count 0 in
  let j = ref 0 in
  for idx = 0 to n.mask do
    let w = Slots.get n.slots idx in
    if is_occupied w && !j < count then begin
      a.(!j) <- dec w;
      incr j
    end
  done;
  if !j = count then a else Array.sub a 0 !j

(* Seal, then fill: two passes over the slots and no list. *)
let sealed_keys n = keys_of n (help_seal n)

let rec decide_move n =
  match Atomic.get n.fate with
  | Undecided ->
      if not (Atomic.compare_and_set n.fate Undecided Moving) then
        decide_move n
  | Frozen | Moving -> ()

(* Help a decided migration: seal the old node, rebuild its live keys
   into a right-sized fresh node (tombstones evaporate here — this is
   both growth and compaction), and install it. The new capacity is a
   pure function of the sealed contents, so racing helpers construct
   interchangeable successors and the root CAS picks one. *)
let help_move t old =
  let count = help_seal old in
  if Atomic.get t == old then begin
    let keys = keys_of old count in
    let fresh = build (capacity_for (Array.length keys)) keys in
    ignore
      ((Atomic.compare_and_set t old fresh)
      [@nbhash.cas_ok
        "a lost race means another helper installed an interchangeable \
         successor built from the same sealed contents"])
  end

(* Grow/compact once claimed slots (live + tombstones) reach 3/4 of
   capacity, so probe runs stay short and tombstone accumulation from
   remove-heavy workloads is reclaimed instead of wedging the array. *)
let claim_threshold n =
  let cap = n.mask + 1 in
  cap - (cap lsr 2)

(* The update paths below are top-level functions threading their
   state through arguments — no per-call closures. [f] is the key's
   fingerprint, [idx] the slot under the probe and [d] its distance
   from home. *)
let rec invoke t op =
  let n = Atomic.get t in
  let h = mix op.key in
  match op.kind with
  | Fset_intf.Ins -> insert_probe t n op (fp_of_hash h) (h land n.mask) 0
  | Fset_intf.Rem -> remove_probe t n op (fp_of_hash h) (h land n.mask) 0

(* Consulted only after witnessing a sealed word, so the fate is
   decided (invariant 2) and refusing is truthful after helping the
   sweep finish (invariant 3). *)
and on_sealed t n op =
  match Atomic.get n.fate with
  | Frozen ->
      ignore (help_seal n);
      false
  | Moving ->
      help_move t n;
      invoke t op
  | Undecided -> assert false (* a sealed word implies a decided fate *)

and insert_probe t n op f idx d =
  if d > n.mask then insert_full_wrap t n op
  else
    let tag = tag_at n idx in
    if tag <> 0 && tag <> f then
      (* claimed by a key with a different fingerprint: skip the slot
         word entirely (write-once slots, invariant 1) *)
      insert_probe t n op f (next n idx) (d + 1)
    else insert_word t n op f idx d

and insert_word t n op f idx d =
  let w_occ = enc op.key in
  let w = Slots.get n.slots idx in
  if w = empty_w then
    if Slots.compare_and_set n.slots idx empty_w w_occ then begin
      (Bytes.unsafe_set n.tags idx (Char.unsafe_chr f)
      [@nbhash.plain_ok
        "racy prefilter bytes: a slot's key is written at most once per \
         array generation, so the only nonzero tag observable here is \
         the fingerprint of the unique occupant; a stale 0 read just \
         forces the slot-word read"]);
      let used = Atomic.fetch_and_add n.used 1 + 1 in
      Atomic.incr n.live;
      Tm.observe Ev.Probe_len d;
      op.resp <- true;
      (if used >= claim_threshold n then begin
         decide_move n;
         match Atomic.get n.fate with
         | Moving -> help_move t n
         | Frozen | Undecided -> ()
       end);
      true
    end
    else begin
      Tm.cas_retry site_insert;
      insert_word t n op f idx d
    end
  else if w lor seal_bit = w_occ lor seal_bit then
    if w land seal_bit = 0 then begin
      (* present and unsealed: redundant insert linearizes at the word
         read, which precedes any freeze *)
      Tm.observe Ev.Probe_len d;
      op.resp <- false;
      true
    end
    else on_sealed t n op
  else if w = empty_w lor seal_bit then on_sealed t n op
  else insert_probe t n op f (next n idx) (d + 1)

(* No claimable slot left in this generation. *)
and insert_full_wrap t n op =
  match Atomic.get n.fate with
  | Undecided ->
      decide_move n;
      insert_full_wrap t n op
  | Frozen ->
      ignore (help_seal n);
      false
  | Moving ->
      help_move t n;
      invoke t op

and remove_probe t n op f idx d =
  if d > n.mask then remove_full_wrap t n op
  else
    let tag = tag_at n idx in
    if tag <> 0 && tag <> f then remove_probe t n op f (next n idx) (d + 1)
    else remove_word t n op f idx d

and remove_word t n op f idx d =
  let w_occ = enc op.key in
  let w = Slots.get n.slots idx in
  if w = empty_w then begin
    (* absent; the unsealed Empty word proves the freeze has not
       linearized, so the redundant remove may apply (invariant 3) *)
    Tm.observe Ev.Probe_len d;
    op.resp <- false;
    true
  end
  else if w = empty_w lor seal_bit then on_sealed t n op
  else if w lor seal_bit = w_occ lor seal_bit then
    if w land seal_bit = 0 then
      if Slots.compare_and_set n.slots idx w_occ tomb_w then begin
        Atomic.decr n.live;
        Tm.observe Ev.Probe_len d;
        op.resp <- true;
        true
      end
      else begin
        Tm.cas_retry site_remove;
        remove_word t n op f idx d
      end
    else on_sealed t n op
  else remove_probe t n op f (next n idx) (d + 1)

and remove_full_wrap t n op =
  match Atomic.get n.fate with
  | Undecided ->
      (* invariant 4: every slot is permanently claimed by another key
         or tombed, so the key is absent for the rest of this
         generation; an undecided fate proves no freeze has linearized
         yet, so the redundant remove may apply *)
      op.resp <- false;
      true
  | Frozen ->
      ignore (help_seal n);
      false
  | Moving ->
      help_move t n;
      invoke t op

let rec member_probe n w_occ f idx d =
  d <= n.mask
  &&
  let tag = tag_at n idx in
  if tag <> 0 && tag <> f then member_probe n w_occ f (next n idx) (d + 1)
  else
    let w = Slots.get n.slots idx in
    if w land lnot seal_bit = empty_w then false
    else w lor seal_bit = w_occ lor seal_bit
         || member_probe n w_occ f (next n idx) (d + 1)

(* Pure reader: never helps, answers from whichever root it loaded.
   An old, fully sealed node remains the truth until the successor's
   root CAS, so reads during a migration stay linearizable. *)
let has_member t k =
  check_key k;
  let n = Atomic.get t in
  let h = mix k in
  member_probe n (enc k) (fp_of_hash h) (h land n.mask) 0

let rec freeze t =
  let n = Atomic.get t in
  match Atomic.get n.fate with
  | Undecided ->
      if Atomic.compare_and_set n.fate Undecided Frozen then begin
        Tm.emit Ev.Freeze;
        sealed_keys n
      end
      else freeze t
  | Frozen -> sealed_keys n
  | Moving ->
      help_move t n;
      freeze t

let size t = Atomic.get (Atomic.get t).live
let elements t =
  let n = Atomic.get t in
  let count = ref 0 in
  for idx = 0 to n.mask do
    if is_occupied (Slots.get n.slots idx) then incr count
  done;
  keys_of n !count

(* Frozen = the fate says so and the seal sweep has latched every
   slot (a sealed word never changes, so the conjunction is stable
   once true). *)
let is_frozen t =
  let n = Atomic.get t in
  match Atomic.get n.fate with
  | Frozen -> sealed_from n 0
  | Undecided | Moving -> false

(* Diagnostic: per-probe-distance census of the current generation's
   occupied slots — [census.(d)] keys sit [d] slots past their home.
   Racy by design; exact in quiescent states. Not part of
   [Fset_intf.S]; tests and bench reach it directly. *)
let probe_census t =
  let n = Atomic.get t in
  let census = Array.make (n.mask + 1) 0 in
  let maxd = ref 0 in
  for idx = 0 to n.mask do
    let w = Slots.get n.slots idx in
    if is_occupied w then begin
      let home = mix (dec w) land n.mask in
      let d = (idx - home) land n.mask in
      census.(d) <- census.(d) + 1;
      if d > !maxd then maxd := d
    end
  done;
  Array.sub census 0 (!maxd + 1)

(* Capacity of the current generation; diagnostics only. *)
let capacity t = (Atomic.get t).mask + 1
