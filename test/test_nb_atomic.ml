(* The flat atomic int array of the Nb_atomic shim
   ([Nb_atomic.Int_array]): seq_cst C-stub loads and CASes on the
   slots of one OCaml int array, which Flat_fset's slot words live in.
   Pinned here: CAS semantics, OCaml-side bounds checks on every
   backend, exactness of concurrent CASes across two domains, and that
   the checker backend yields a [Step] before each load and CAS (so
   `dune build @check` schedules every slot access). *)

module A = Nbhash_util.Nb_atomic

let backends : (string * (module A.INT_ARRAY)) list =
  [
    ("default", (module A.Int_array));
    ("Real", (module A.Real.Int_array));
  ]

let test_cas () =
  List.iter
    (fun (name, (module I : A.INT_ARRAY)) ->
      let a = I.make 4 7 in
      Alcotest.(check int) (name ^ " length") 4 (I.length a);
      Alcotest.(check bool) (name ^ " CAS from the held value") true
        (I.compare_and_set a 1 7 9);
      Alcotest.(check int) (name ^ " CAS stored") 9 (I.get a 1);
      Alcotest.(check bool) (name ^ " CAS from a stale value") false
        (I.compare_and_set a 1 7 10);
      Alcotest.(check int) (name ^ " failed CAS left the slot") 9 (I.get a 1);
      I.set_private a 3 (-5);
      Alcotest.(check (list int))
        (name ^ " other slots untouched")
        [ 7; 9; 7; -5 ]
        (List.init 4 (I.get a)))
    backends

let test_bounds () =
  let oob name f =
    match f () with
    | _ -> Alcotest.failf "%s: out-of-bounds access was not rejected" name
    | exception Invalid_argument _ -> ()
  in
  let all =
    backends @ [ ("Traced", (module A.Traced.Int_array : A.INT_ARRAY)) ]
  in
  List.iter
    (fun (name, (module I : A.INT_ARRAY)) ->
      let a = I.make 3 0 in
      List.iter
        (fun i ->
          oob (Printf.sprintf "%s get %d" name i) (fun () -> I.get a i);
          oob (Printf.sprintf "%s CAS %d" name i) (fun () ->
              I.compare_and_set a i 0 1);
          oob (Printf.sprintf "%s set_private %d" name i) (fun () ->
              I.set_private a i 1))
        [ -1; 3; max_int; min_int ])
    all

(* Two domains each add [n] to slot 1 through a get/CAS retry loop and
   count their winning CASes. Lost updates or phantom wins would show
   as a final value or win count other than 2n. *)
let test_two_domain_cas_count () =
  let n = 50_000 in
  let a = A.Int_array.make 3 0 in
  let worker () =
    let wins = ref 0 in
    for _ = 1 to n do
      let rec bump () =
        let v = A.Int_array.get a 1 in
        if A.Int_array.compare_and_set a 1 v (v + 1) then incr wins
        else bump ()
      in
      bump ()
    done;
    !wins
  in
  let d = Domain.spawn worker in
  let mine = worker () in
  let theirs = Domain.join d in
  Alcotest.(check int) "winning CASes" (2 * n) (mine + theirs);
  Alcotest.(check int) "final slot value" (2 * n) (A.Int_array.get a 1);
  Alcotest.(check int) "neighbour slot 0" 0 (A.Int_array.get a 0);
  Alcotest.(check int) "neighbour slot 2" 0 (A.Int_array.get a 2)

(* Run [f] under a handler that logs each [Step] label together with
   the value of slot 0 at the moment of the step: the step must come
   before its operation takes effect. *)
let steps_of a f =
  let log = ref [] in
  Effect.Deep.match_with f ()
    {
      retc = (fun () -> List.rev !log);
      exnc = raise;
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | A.Step lbl ->
            Some
              (fun (k : (b, _) Effect.Deep.continuation) ->
                log := (A.label_to_string lbl, A.Real.Int_array.get a 0) :: !log;
                Effect.Deep.continue k ())
          | _ -> None);
    }

let expected_steps =
  [ ("get", 0); ("compare_and_set", 0); ("get", 5); ("compare_and_set", 5) ]

let script (module I : A.INT_ARRAY) a () =
  I.set_private a 0 0;
  ignore (I.get a 0);
  ignore (I.compare_and_set a 0 0 5);
  ignore (I.get a 0);
  ignore (I.compare_and_set a 0 0 6)

let test_traced_steps () =
  let a = A.Int_array.make 2 0 in
  Alcotest.(check (list (pair string int)))
    "Traced: one Step before each get and CAS, none for set_private"
    expected_steps
    (steps_of a (script (module A.Traced.Int_array) a));
  (* The default backend switches on the checker's flag. *)
  let b = A.Int_array.make 2 0 in
  A.tracing := true;
  let logged =
    Fun.protect
      ~finally:(fun () -> A.tracing := false)
      (fun () -> steps_of b (script (module A.Int_array) b))
  in
  Alcotest.(check (list (pair string int)))
    "default with tracing on" expected_steps logged;
  let c = A.Int_array.make 2 0 in
  Alcotest.(check (list (pair string int)))
    "default with tracing off yields nothing" []
    (steps_of c (script (module A.Int_array) c))

let suite =
  [
    ( "nb_atomic",
      [
        Alcotest.test_case "CAS success and failure" `Quick test_cas;
        Alcotest.test_case "out-of-bounds rejected" `Quick test_bounds;
        Alcotest.test_case "two-domain CAS count exact" `Quick
          test_two_domain_cas_count;
        Alcotest.test_case "Traced steps before get and CAS" `Quick
          test_traced_steps;
      ] );
  ]
