(* Allocation budgets of the table hot paths, in minor-heap words
   ([Gc.minor_words]), single domain, telemetry off. Lookups allocate
   nothing: no closure per probe loop, no partial application per
   call. Updates copy what they must (a copy-on-write bucket array,
   a fresh flat node after a resize) and nothing per call beyond it.
   The counts are deterministic; the update bounds sit ~3 words above
   them, below what one per-call closure (4-5 words) would add. *)

module T = Nbhash.Tables
module F = Nbhash_fset.Flat_fset

module type SET = Nbhash.Hashset_intf.S

(* Average minor words per call of [f i] for i in [0, n), after a warm
   up that takes any one-time allocation off the books. *)
let words_per_call n f =
  for i = 0 to 999 do
    f i
  done;
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let contains_noalloc (module H : SET) () =
  let t = H.create ~policy:(Nbhash.Policy.presized 1024) () in
  let h = H.register t in
  for k = 0 to 2047 do
    ignore (H.insert h (2 * k))
  done;
  (* hits and misses alike: even keys are present, odd ones absent *)
  let w =
    words_per_call 100_000 (fun i ->
        ignore (Sys.opaque_identity (H.contains h (i land 4095))))
  in
  Alcotest.(check (float 0.)) (H.name ^ " contains: minor words per call") 0. w

let test_has_member_noalloc () =
  let s = F.create (Array.init 10 (fun i -> 7 * i)) in
  let w =
    words_per_call 100_000 (fun i ->
        ignore (Sys.opaque_identity (F.has_member s (i land 127))))
  in
  Alcotest.(check (float 0.)) "has_member: minor words per call" 0. w

(* The freeze's only allocation is its result: [len + 1] words (none
   when empty: [Array.make 0] returns the shared empty array). *)
let test_freeze_allocates_result_only () =
  List.iter
    (fun len ->
      let result_words = if len = 0 then 0. else float_of_int (len + 1) in
      let s = F.create (Array.init len (fun i -> 3 * i)) in
      let before = Gc.minor_words () in
      let keys = F.freeze s in
      let w = Gc.minor_words () -. before in
      Alcotest.(check int) "all keys returned" len (Array.length keys);
      Alcotest.(check (float 0.))
        (Printf.sprintf "freeze of %d keys: minor words" len)
        result_words w;
      (* a second freeze helps nothing and returns the same array *)
      let before = Gc.minor_words () in
      ignore (Sys.opaque_identity (F.freeze s));
      Alcotest.(check (float 0.)) "refreeze: minor words" result_words
        (Gc.minor_words () -. before))
    [ 0; 1; 5; 12 ]

(* One flat block of slots per node: a 16-slot set is its root atomic
   (2 words) plus a 34-word node (DESIGN.md System 17). *)
let test_flat_node_words () =
  let s = F.create (Array.init 8 (fun i -> i)) in
  Alcotest.(check int) "capacity" 16 (F.capacity s);
  Alcotest.(check int) "reachable words" 36 (Obj.reachable_words (Obj.repr s))

(* Fill 2^14 keys from the default one-bucket table (every resize on
   the way included), then drain them (every shrink included). *)
let insert_budget (module H : SET) ~fill_bound ~drain_bound () =
  let t = H.create () in
  let h = H.register t in
  let n = 1 lsl 14 in
  let fill = words_per_call n (fun i -> ignore (H.insert h (i + 1000))) in
  let drain = words_per_call n (fun i -> ignore (H.remove h (i + 1000))) in
  if fill > fill_bound then
    Alcotest.failf "%s insert: %.1f minor words per call, bound %.0f" H.name
      fill fill_bound;
  if drain > drain_bound then
    Alcotest.failf "%s remove: %.1f minor words per call, bound %.0f" H.name
      drain drain_bound

(* The adaptive tables' periodic assist scans the whole announce array
   for the oldest pending operation; the scan itself allocates
   nothing (no closure, no boxed best-so-far per candidate). *)
let test_help_lowest_noalloc () =
  let module A = Nbhash.Announce.Over_fset (Nbhash_fset.Wf_array_fset) in
  let t = A.create () in
  let h = A.register t in
  ignore (A.slow_apply h Nbhash_fset.Fset_intf.Ins 7);
  let w = words_per_call 100_000 (fun _ -> A.help_lowest t) in
  Alcotest.(check (float 0.)) "help_lowest: minor words per call" 0. w

(* The same fill and drain through a wait-free map's put/remove. *)
let map_budget ~fill_bound ~drain_bound () =
  let module M = Nbhash.Wf_hashmap in
  let t = M.create () in
  let h = M.register t in
  let n = 1 lsl 14 in
  let fill = words_per_call n (fun i -> ignore (M.put h (i + 1000) i)) in
  let drain = words_per_call n (fun i -> ignore (M.remove h (i + 1000))) in
  if fill > fill_bound then
    Alcotest.failf "Wf_hashmap put: %.1f minor words per call, bound %.0f"
      fill fill_bound;
  if drain > drain_bound then
    Alcotest.failf "Wf_hashmap remove: %.1f minor words per call, bound %.0f"
      drain drain_bound

(* The cost of one RESIZE's new HNode: a 64 -> 128 grow of a
   quiescent presized table, small enough that the new block stays in
   the minor heap. The buckets are one flat block of 128 slot words
   (129 words with its header); the wait-free flattened tables add a
   second one for their freeze-intent flags. The rest (the HNode
   record, its [pred] atomic, its sweep cursor) is bounded by 48
   words. A boxed atomic per bucket and per flag would add 2 words
   each. *)
let presized_64 = Nbhash.Policy.presized 64

let grow_words ~name ~blocks ~force_resize ~bucket_count =
  Alcotest.(check int) (name ^ " starts at 64 buckets") 64 (bucket_count ());
  let bound = float_of_int ((blocks * 128) + 48) in
  let before = Gc.minor_words () in
  force_resize ();
  let w = Gc.minor_words () -. before in
  if w > bound then
    Alcotest.failf "%s 64 -> 128 grow: %.0f minor words, bound %.0f" name w
      bound;
  Alcotest.(check int) (name ^ " grew") 128 (bucket_count ())

let set_grow (module H : SET) ~blocks () =
  let t = H.create ~policy:presized_64 () in
  let h = H.register t in
  grow_words ~name:H.name ~blocks
    ~force_resize:(fun () -> H.force_resize h ~grow:true)
    ~bucket_count:(fun () -> H.bucket_count t)

let hashmap_grow () =
  let module M = Nbhash.Hashmap in
  let t = M.create ~policy:presized_64 () in
  let h = M.register t in
  grow_words ~name:"Hashmap" ~blocks:1
    ~force_resize:(fun () -> M.force_resize h ~grow:true)
    ~bucket_count:(fun () -> M.bucket_count t)

let wf_hashmap_grow () =
  let module M = Nbhash.Wf_hashmap in
  let t = M.create ~policy:presized_64 () in
  let h = M.register t in
  grow_words ~name:"Wf_hashmap" ~blocks:2
    ~force_resize:(fun () -> M.force_resize h ~grow:true)
    ~bucket_count:(fun () -> M.bucket_count t)

let suite =
  [
    ( "alloc",
      [
        Alcotest.test_case "LFArray contains allocates nothing" `Quick
          (contains_noalloc (module T.LFArray));
        Alcotest.test_case "LFArrayOpt contains allocates nothing" `Quick
          (contains_noalloc (module T.LFArrayOpt));
        Alcotest.test_case "LFFlat contains allocates nothing" `Quick
          (contains_noalloc (module T.LFFlat));
        Alcotest.test_case "WFArray contains allocates nothing" `Quick
          (contains_noalloc (module T.WFArray));
        Alcotest.test_case "AdaptiveOpt contains allocates nothing" `Quick
          (contains_noalloc (module T.AdaptiveOpt));
        Alcotest.test_case "Announce help_lowest allocates nothing" `Quick
          test_help_lowest_noalloc;
        Alcotest.test_case "Flat_fset has_member allocates nothing" `Quick
          test_has_member_noalloc;
        Alcotest.test_case "Flat_fset freeze allocates only its result"
          `Quick test_freeze_allocates_result_only;
        Alcotest.test_case "Flat_fset node is one slot block" `Quick
          test_flat_node_words;
        Alcotest.test_case "LFArrayOpt insert/remove word budget" `Quick
          (insert_budget (module T.LFArrayOpt) ~fill_bound:16.
             ~drain_bound:12.);
        Alcotest.test_case "LFFlat insert/remove word budget" `Quick
          (insert_budget (module T.LFFlat) ~fill_bound:40. ~drain_bound:18.);
        Alcotest.test_case "WFArray insert/remove word budget" `Quick
          (insert_budget (module T.WFArray) ~fill_bound:38. ~drain_bound:29.);
        Alcotest.test_case "AdaptiveOpt insert/remove word budget" `Quick
          (insert_budget (module T.AdaptiveOpt) ~fill_bound:29.
             ~drain_bound:24.);
        Alcotest.test_case "LFArrayOpt grow allocates one bucket block"
          `Quick
          (set_grow (module T.LFArrayOpt) ~blocks:1);
        Alcotest.test_case "Hashmap grow allocates one bucket block" `Quick
          hashmap_grow;
        Alcotest.test_case "AdaptiveOpt grow allocates two slot blocks"
          `Quick
          (set_grow (module T.AdaptiveOpt) ~blocks:2);
        Alcotest.test_case "Wf_hashmap grow allocates two slot blocks"
          `Quick wf_hashmap_grow;
        Alcotest.test_case "Wf_hashmap put/remove word budget" `Quick
          (map_budget ~fill_bound:58. ~drain_bound:48.);
      ] );
  ]
