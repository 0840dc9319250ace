(* The atomics lint's own tests: the seeded fixture must be flagged
   (each rule once), shim-following source must pass, and comments /
   strings must not trigger. *)

let rules violations = List.map (fun v -> v.Lint_rules.rule) violations

(* dune runtest runs with cwd = _build/default/test (where the dep is
   copied); `dune exec test/test_main.exe` runs from the project
   root. *)
let fixture_path ?(name = "lint_violation.ml.fixture") () =
  List.find Sys.file_exists
    [ "fixtures/" ^ name; "test/fixtures/" ^ name ]

let test_fixture_flagged () =
  let vs = Lint_rules.check_file (fixture_path ()) in
  Alcotest.(check int) "four violations" 4 (List.length vs);
  let has frag =
    List.exists
      (fun r ->
        let n = String.length r and m = String.length frag in
        let rec go i = i + m <= n && (String.sub r i m = frag || go (i + 1)) in
        go 0)
      (rules vs)
  in
  Alcotest.(check bool) "Stdlib.Atomic flagged" true (has "Stdlib.Atomic");
  Alcotest.(check bool) "Mutex flagged" true (has "Mutex");
  Alcotest.(check bool) "Obj.magic flagged" true (has "Obj.magic");
  Alcotest.(check bool) "missing re-point flagged" true (has "re-pointing")

let test_shimmed_source_clean () =
  let src =
    "module Atomic = Nbhash_util.Nb_atomic\n\n\
     type t = int Atomic.t\n\
     let make () = Atomic.make 0\n\
     let bump t = Atomic.fetch_and_add t 1\n"
  in
  Alcotest.(check int)
    "clean" 0
    (List.length (Lint_rules.check_source ~file:"good.ml" src))

let test_comments_and_strings_ignored () =
  let src =
    "module Atomic = Nbhash_util.Nb_atomic\n\
     (* Stdlib.Atomic and Mutex.lock in prose are fine,\n\
    \   (* even nested: Obj.magic *) still a comment *)\n\
     let s = \"Stdlib.Atomic Mutex.create Obj.magic\"\n\
     let x = Atomic.make s\n"
  in
  Alcotest.(check int)
    "clean" 0
    (List.length (Lint_rules.check_source ~file:"prose.ml" src))

let test_each_rule_fires () =
  let flag src =
    List.length (Lint_rules.check_source ~file:"frag.ml" src) > 0
  in
  Alcotest.(check bool) "Stdlib.Atomic" true
    (flag "let x = Stdlib.Atomic.make 0\n");
  Alcotest.(check bool) "Mutex" true (flag "let m = Mutex.create ()\n");
  Alcotest.(check bool) "Condition" true (flag "let c = Condition.create ()\n");
  Alcotest.(check bool) "Semaphore" true
    (flag "let s = Semaphore.Counting.make 1\n");
  Alcotest.(check bool) "Obj.magic" true (flag "let y = Obj.magic 0\n");
  Alcotest.(check bool) "bare Atomic without shim" true
    (flag "let z = Atomic.make 0\n");
  (* longer identifiers must not match *)
  Alcotest.(check bool) "MutexLike is fine" false
    (flag "let m = MutexLike.create ()\n")

(* Evasion fixtures for the alias blind spot: re-exposing Stdlib under
   a new name (or opening it) must be flagged even when the file
   carries the shim alias and never spells "Stdlib.Atomic". *)
let test_alias_evasions_flagged () =
  let flagged src =
    List.length (Lint_rules.check_source ~file:"evade.ml" src) > 0
  in
  Alcotest.(check bool) "module S = Stdlib evasion" true
    (flagged
       "module Atomic = Nbhash_util.Nb_atomic\n\
        module S = Stdlib\n\
        let r = S.Atomic.make 0\n\
        let v = S.Atomic.get r\n");
  Alcotest.(check bool) "open Stdlib evasion" true
    (flagged
       "module Atomic = Nbhash_util.Nb_atomic\n\
        open Stdlib\n\
        let m = max_int\n");
  Alcotest.(check bool) "include Stdlib evasion" true
    (flagged "include Stdlib\n");
  (* dotted Stdlib paths stay legal *)
  Alcotest.(check bool) "Stdlib.max_int is fine" false
    (flagged "let m = Stdlib.max_int\n");
  Alcotest.(check bool) "Stdlib.ref is fine" false
    (flagged "let r = Stdlib.ref 0\n")

(* A seventh hand copy of the HNode scaffolding drives the migration
   sweep itself: every driving call is flagged, while the same source
   as lib/hashset/table_core.ml — the one owner — is clean. *)
let test_sweep_copy_flagged () =
  let path = fixture_path ~name:"lint_sweep_copy.ml.fixture" () in
  let vs = Lint_rules.check_file path in
  Alcotest.(check (list int))
    "make, help, drain, finish flagged by line" [ 11; 14; 17; 18 ]
    (List.map (fun v -> v.Lint_rules.line) vs);
  let ic = open_in_bin path in
  let src = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check int)
    "the owner may drive the sweep" 0
    (List.length
       (Lint_rules.check_source ~file:"lib/hashset/table_core.ml" src))

(* A hand copy of the wait-free protocol installs its own Pending
   operation and draws its own bakery priority: each line is flagged
   except in its one owner. *)
let test_announce_copy_flagged () =
  let path = fixture_path ~name:"lint_announce_copy.ml.fixture" () in
  let lines file =
    let ic = open_in_bin path in
    let src = really_input_string ic (in_channel_length ic) in
    close_in ic;
    List.map
      (fun v -> v.Lint_rules.line)
      (Lint_rules.check_source ~file src)
  in
  Alcotest.(check (list int))
    "install CAS and bakery draw flagged by line" [ 11; 14 ]
    (List.map (fun v -> v.Lint_rules.line) (Lint_rules.check_file path));
  Alcotest.(check (list int))
    "the node module may install" [ 14 ] (lines "lib/fset/wf_node.ml");
  Alcotest.(check (list int))
    "the announce module may draw priorities" [ 11 ]
    (lines "lib/hashset/announce.ml")

let suite =
  [
    ( "lint",
      [
        Alcotest.test_case "fixture violations flagged" `Quick
          test_fixture_flagged;
        Alcotest.test_case "shimmed source clean" `Quick
          test_shimmed_source_clean;
        Alcotest.test_case "comments and strings ignored" `Quick
          test_comments_and_strings_ignored;
        Alcotest.test_case "each rule fires" `Quick test_each_rule_fires;
        Alcotest.test_case "alias evasions flagged" `Quick
          test_alias_evasions_flagged;
        Alcotest.test_case "hand-copied sweep driver flagged" `Quick
          test_sweep_copy_flagged;
        Alcotest.test_case "hand-copied wait-free protocol flagged" `Quick
          test_announce_copy_flagged;
      ] );
  ]
