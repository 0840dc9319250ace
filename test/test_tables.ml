(* Instantiate the hash-set conformance suite for all nine tables. *)

module Dynamic = struct
  let can_grow = true
  let can_shrink = true
end

module GrowOnly = struct
  let can_grow = true
  let can_shrink = false
end

module Fixed = struct
  let can_grow = false
  let can_shrink = false
end

module T = Nbhash.Tables
module LFArray = Set_suite.Make (T.LFArray) (Dynamic)
module LFArrayOpt = Set_suite.Make (T.LFArrayOpt) (Dynamic)
module LFList = Set_suite.Make (T.LFList) (Dynamic)
module LFUlist = Set_suite.Make (T.LFUlist) (Dynamic)
module LFSorted = Set_suite.Make (T.LFSorted) (Dynamic)
module WFArray = Set_suite.Make (T.WFArray) (Dynamic)
module WFList = Set_suite.Make (T.WFList) (Dynamic)
module Adaptive = Set_suite.Make (T.Adaptive) (Dynamic)
module AdaptiveOpt = Set_suite.Make (T.AdaptiveOpt) (Dynamic)
module SplitOrder = Set_suite.Make (Nbhash_splitorder.Split_ordered) (GrowOnly)
module Michael = Set_suite.Make (Nbhash_michael.Michael_hashset) (Fixed)
module Locked = Set_suite.Make (Nbhash_locked.Locked_hashset) (Dynamic)

(* The announce array is sized by [max_threads]: every wait-free table
   rejects an array with no slot at [create], before any [register]. *)
let rejects_no_threads name create () =
  Alcotest.check_raises
    (name ^ " create ~max_threads:0")
    (Invalid_argument "max_threads < 1")
    (fun () -> ignore (create ()))

let max_threads_suite =
  ( "max_threads",
    List.map
      (fun (name, create) ->
        Alcotest.test_case (name ^ " rejects max_threads 0") `Quick
          (rejects_no_threads name create))
      [
        ("WFArray", fun () -> ignore (T.WFArray.create ~max_threads:0 ()));
        ("Adaptive", fun () -> ignore (T.Adaptive.create ~max_threads:0 ()));
        ( "AdaptiveOpt",
          fun () -> ignore (T.AdaptiveOpt.create ~max_threads:0 ()) );
        ( "Wf_hashmap",
          fun () -> ignore (Nbhash.Wf_hashmap.create ~max_threads:0 ()) );
      ] )

let suite =
  [
    max_threads_suite;
    LFArray.suite;
    LFArrayOpt.suite;
    LFList.suite;
    LFUlist.suite;
    LFSorted.suite;
    WFArray.suite;
    WFList.suite;
    Adaptive.suite;
    AdaptiveOpt.suite;
    SplitOrder.suite;
    Michael.suite;
    Locked.suite;
  ]
