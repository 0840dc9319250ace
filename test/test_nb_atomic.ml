(* The flat atomic arrays of the Nb_atomic shim: [Nb_atomic.Int_array]
   (seq_cst C-stub loads and CASes on the slots of one OCaml int
   array, which Flat_fset's slot words live in) and [Nb_atomic.Array]
   (the same over any value, with the runtime's barriered CAS, which
   every table HNode's buckets live in). Pinned here for both: CAS
   semantics, OCaml-side bounds checks on every backend, exactness of
   concurrent CASes across two domains, and that the checker backend
   yields a [Step] before each load and CAS (so `dune build @check`
   schedules every slot access). For the value array also: the write
   barrier of CAS and [set_private] on a major-heap array, and that a
   float element type still gets CAS-able one-word slots. *)

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
   [peek ()], the value of slot 0 at the moment of the step: the step
   must come before its operation takes effect. *)
let steps_with peek f =
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
                log := (A.label_to_string lbl, peek ()) :: !log;
                Effect.Deep.continue k ())
          | _ -> None);
    }

let steps_of a = steps_with (fun () -> A.Real.Int_array.get a 0)

let expected_steps =
  [ ("get", 0); ("compare_and_set", 0); ("get", 5); ("compare_and_set", 5) ]

let script (module I : A.INT_ARRAY) a () =
  I.set_private a 0 0;
  ignore (I.get a 0);
  ignore (I.compare_and_set a 0 0 5);
  ignore (I.get a 0);
  ignore (I.compare_and_set a 0 0 6)

(* [run backend] runs the script on a fresh array through the
   [`Traced] backend or the flag-switched [`Default] one and returns
   the logged steps. *)
let check_steps run =
  Alcotest.(check (list (pair string int)))
    "Traced: one Step before each get and CAS, none for set_private"
    expected_steps (run `Traced);
  (* The default backend switches on the checker's flag. *)
  A.tracing := true;
  let logged =
    Fun.protect ~finally:(fun () -> A.tracing := false) (fun () -> run `Default)
  in
  Alcotest.(check (list (pair string int)))
    "default with tracing on" expected_steps logged;
  Alcotest.(check (list (pair string int)))
    "default with tracing off yields nothing" [] (run `Default)

let test_traced_steps () =
  check_steps (fun backend ->
      let a = A.Int_array.make 2 0 in
      let m : (module A.INT_ARRAY) =
        match backend with
        | `Traced -> (module A.Traced.Int_array)
        | `Default -> (module A.Int_array)
      in
      steps_of a (script m a))

(* Fetch-and-add on an int slot: the previous value comes back, a
   negative addend subtracts, neighbours stay put, out-of-bounds is
   rejected on every backend, two domains lose no increment, and the
   checker sees a fetch_and_add [Step] before the add takes effect. *)
let test_fetch_and_add () =
  List.iter
    (fun (name, (module I : A.INT_ARRAY)) ->
      let a = I.make 3 10 in
      Alcotest.(check int) (name ^ " returns the previous value") 10
        (I.fetch_and_add a 1 5);
      Alcotest.(check int) (name ^ " negative addend") 15
        (I.fetch_and_add a 1 (-20));
      Alcotest.(check (list int)) (name ^ " slots") [ 10; -5; 10 ]
        (List.init 3 (I.get a)))
    backends;
  List.iter
    (fun (name, (module I : A.INT_ARRAY)) ->
      let a = I.make 3 0 in
      List.iter
        (fun i ->
          match I.fetch_and_add a i 1 with
          | _ -> Alcotest.failf "%s fetch_and_add %d was not rejected" name i
          | exception Invalid_argument _ -> ())
        [ -1; 3; max_int; min_int ])
    (backends @ [ ("Traced", (module A.Traced.Int_array : A.INT_ARRAY)) ]);
  let n = 100_000 in
  let a = A.Int_array.make 3 0 in
  let worker () =
    for _ = 1 to n do
      ignore (A.Int_array.fetch_and_add a 1 1)
    done
  in
  let d = Domain.spawn worker in
  worker ();
  Domain.join d;
  Alcotest.(check (list int)) "two domains, no lost increment" [ 0; 2 * n; 0 ]
    (List.init 3 (A.Int_array.get a));
  let a = A.Int_array.make 1 0 in
  Alcotest.(check (list (pair string int)))
    "Traced: one Step before the add"
    [ ("fetch_and_add", 0); ("fetch_and_add", 3) ]
    (steps_of a (fun () ->
         ignore (A.Traced.Int_array.fetch_and_add a 0 3);
         ignore (A.Traced.Int_array.fetch_and_add a 0 4)));
  Alcotest.(check int) "both adds landed" 7 (A.Int_array.get a 0)

(* ---- the value array ---- *)

let value_backends : (string * (module A.ARRAY)) list =
  [ ("default", (module A.Array)); ("Real", (module A.Real.Array)) ]

let test_value_cas () =
  List.iter
    (fun (name, (module V : A.ARRAY)) ->
      let a = V.make 4 "x" in
      Alcotest.(check int) (name ^ " length") 4 (V.length a);
      let held = V.get a 1 in
      let nw = String.make 1 'y' in
      Alcotest.(check bool) (name ^ " CAS from the held value") true
        (V.compare_and_set a 1 held nw);
      Alcotest.(check bool) (name ^ " CAS stored the new block") true
        (V.get a 1 == nw);
      Alcotest.(check bool)
        (name ^ " CAS from an equal but distinct value")
        false
        (V.compare_and_set a 1 (String.make 1 'y') "z");
      V.set_private a 3 "w";
      Alcotest.(check (list string))
        (name ^ " other slots untouched")
        [ "x"; "y"; "x"; "w" ]
        (List.init 4 (V.get a)))
    value_backends

let test_value_bounds () =
  let oob name f =
    match f () with
    | _ -> Alcotest.failf "%s: out-of-bounds access was not rejected" name
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (name, (module V : A.ARRAY)) ->
      let a = V.make 3 None in
      List.iter
        (fun i ->
          oob (Printf.sprintf "%s get %d" name i) (fun () -> V.get a i);
          oob (Printf.sprintf "%s CAS %d" name i) (fun () ->
              V.compare_and_set a i None (Some i));
          oob (Printf.sprintf "%s set_private %d" name i) (fun () ->
              V.set_private a i (Some i)))
        [ -1; 3; max_int; min_int ])
    (value_backends @ [ ("Traced", (module A.Traced.Array : A.ARRAY)) ]);
  oob "make -1" (fun () -> A.Array.make (-1) 0)

(* Overwrite the minor heap the fresh blocks were allocated in, so a
   slot the collector was not told about would point into reused
   memory. *)
let churn_minor_heap () =
  ignore (Sys.opaque_identity (List.init 100_000 (fun i -> ref (-i))))

(* A CAS or [set_private] that stores a fresh minor block into a
   major-heap array must record the major-to-minor pointer (the write
   barrier), or the next minor collection frees the block under the
   array. Small arrays start minor and are promoted by the full major;
   the 1000-slot one is allocated major. *)
let test_value_write_barrier () =
  List.iter
    (fun (name, (module V : A.ARRAY)) ->
      List.iter
        (fun n ->
          let a = V.make n None in
          let b = V.make n None in
          Gc.full_major ();
          for i = 0 to n - 1 do
            if not (V.compare_and_set a i None (Some (ref i))) then
              Alcotest.failf "%s: CAS on empty slot %d of %d failed" name i n;
            V.set_private b i (Some (ref (-i)))
          done;
          Gc.minor ();
          churn_minor_heap ();
          Gc.full_major ();
          churn_minor_heap ();
          for i = 0 to n - 1 do
            (match V.get a i with
            | Some r when !r = i -> ()
            | _ -> Alcotest.failf "%s: CAS slot %d of %d lost" name i n);
            match V.get b i with
            | Some r when !r = -i -> ()
            | _ -> Alcotest.failf "%s: private slot %d of %d lost" name i n
          done)
        [ 16; 200; 1000 ])
    value_backends

(* [Array.make] at a float element type builds a flat float array,
   whose slots are unboxed doubles no word CAS can swap; the shim's
   [make] always builds a tag-0 block of boxed values. *)
let test_value_float () =
  List.iter
    (fun (name, (module V : A.ARRAY)) ->
      let a = V.make 4 (Sys.opaque_identity 1.5) in
      Alcotest.(check int) (name ^ " tag-0 block") 0 (Obj.tag (Obj.repr a));
      let held = Sys.opaque_identity (V.get a 2) in
      Alcotest.(check (float 0.)) (name ^ " initial") 1.5 held;
      Alcotest.(check bool) (name ^ " CAS from the held float") true
        (V.compare_and_set a 2 held (Sys.opaque_identity 2.5));
      Alcotest.(check (float 0.)) (name ^ " CAS stored") 2.5 (V.get a 2);
      Alcotest.(check bool) (name ^ " CAS from a stale float") false
        (V.compare_and_set a 2 held 3.5);
      V.set_private a 0 (-1.0);
      Alcotest.(check (list (float 0.)))
        (name ^ " slots")
        [ -1.0; 1.5; 2.5; 1.5 ]
        (List.init 4 (V.get a)))
    value_backends

(* As the int test: two domains bump slot 1 through get/CAS with a
   fresh boxed value each time, so every winning CAS also exercises
   the write barrier from both domains. *)
let test_value_two_domain_cas_count () =
  let n = 50_000 in
  let a = A.Array.make 3 (Some 0) in
  let worker () =
    let wins = ref 0 in
    for _ = 1 to n do
      let rec bump () =
        let cur = A.Array.get a 1 in
        let v = Option.get cur in
        if A.Array.compare_and_set a 1 cur (Some (v + 1)) then incr wins
        else bump ()
      in
      bump ()
    done;
    !wins
  in
  let d = Domain.spawn worker in
  let mine = worker () in
  let theirs = Domain.join d in
  Gc.full_major ();
  Alcotest.(check int) "winning CASes" (2 * n) (mine + theirs);
  Alcotest.(check (option int)) "final slot value" (Some (2 * n))
    (A.Array.get a 1);
  Alcotest.(check (option int)) "neighbour slot 0" (Some 0) (A.Array.get a 0);
  Alcotest.(check (option int)) "neighbour slot 2" (Some 0) (A.Array.get a 2)

let value_script (module V : A.ARRAY) a () =
  V.set_private a 0 0;
  ignore (V.get a 0);
  ignore (V.compare_and_set a 0 0 5);
  ignore (V.get a 0);
  ignore (V.compare_and_set a 0 0 6)

let test_value_traced_steps () =
  check_steps (fun backend ->
      let a = A.Array.make 2 0 in
      let m : (module A.ARRAY) =
        match backend with
        | `Traced -> (module A.Traced.Array)
        | `Default -> (module A.Array)
      in
      steps_with (fun () -> A.Real.Array.get a 0) (value_script m a))

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
        Alcotest.test_case "fetch-and-add exact, bounded, traced" `Quick
          test_fetch_and_add;
        Alcotest.test_case "value CAS success and failure" `Quick
          test_value_cas;
        Alcotest.test_case "value out-of-bounds rejected" `Quick
          test_value_bounds;
        Alcotest.test_case "value write barrier on a major array" `Quick
          test_value_write_barrier;
        Alcotest.test_case "value float slots stay CAS-able" `Quick
          test_value_float;
        Alcotest.test_case "value two-domain CAS count exact" `Quick
          test_value_two_domain_cas_count;
        Alcotest.test_case "value Traced steps before get and CAS" `Quick
          test_value_traced_steps;
      ] );
  ]
