(* Rules of the atomics lint over the nonblocking libraries
   (lib/fset, lib/hashset, lib/splitorder, lib/michael, lib/telemetry,
   lib/server, lib/generic, lib/workload):

   1. no direct [Stdlib.Atomic] — all atomic operations must go
      through the [Nbhash_util.Nb_atomic] shim so the model checker
      can trace them;
   2. no blocking primitives ([Mutex], [Condition], [Semaphore]) —
      the libraries claim nonblocking progress;
   3. no [Obj.magic];
   4. a file that uses [Atomic.] must re-point it at the shim with
      [module Atomic = Nbhash_util.Nb_atomic].

   5. no *bare* [Stdlib] (as in [open Stdlib], [module S = Stdlib],
      [include Stdlib]) — re-exposing the stdlib namespace smuggles
      [Atomic] / [Mutex] back in under spellings this textual lint
      cannot see. Dotted uses ([Stdlib.max_int]) stay legal.

   6. the migration sweep is driven ([Sweep.make], [Sweep.help],
      [Sweep.drain], [Sweep.finish]) only from
      lib/hashset/table_core.ml — a table that needs the HNode
      scaffolding instantiates [Table_core.Make] with its slot
      protocol instead of copying RESIZE and INITBUCKET.

   7. the wait-free protocol has one owner per mechanism: the
      [Empty -> Pending] install CAS of the Figure 6 node
      ([compare_and_set] on a line naming [Pending]) only in
      lib/fset/wf_node.ml, and the bakery priority of an announce
      ([fetch_and_add] on a line naming [prio]) only in
      lib/hashset/announce.ml — a wait-free table instantiates
      [Wf_node.Make] and [Announce.Make] instead of copying them.

   Matching is done on source text with comments and string literals
   blanked out, so prose mentioning "Mutex" stays legal. The checker
   is deliberately a few dozen lines of string scanning, not a
   compiler plugin: it runs in milliseconds under [dune build @lint]
   and its failure messages point at exact lines. It is a fast
   pre-pass: the authoritative, name-resolved gate is the typed
   analyzer (tools/analyze, [dune build @analyze]), which sees through
   any aliasing this scanner cannot. *)

type violation = { file : string; line : int; rule : string }

let pp_violation ppf v =
  Format.fprintf ppf "%s:%d: %s" v.file v.line v.rule

(* Blank out comments (nested, OCaml-style) and string literals,
   preserving newlines so line numbers survive. Escapes inside
   strings are honored enough for real source ('\"' etc.). *)
let blank_comments_and_strings src =
  let b = Bytes.of_string src in
  let n = String.length src in
  let i = ref 0 in
  let blank j = if Bytes.get b j <> '\n' then Bytes.set b j ' ' in
  while !i < n do
    if !i + 1 < n && src.[!i] = '(' && src.[!i + 1] = '*' then begin
      let depth = ref 1 in
      blank !i;
      blank (!i + 1);
      i := !i + 2;
      while !depth > 0 && !i < n do
        if !i + 1 < n && src.[!i] = '(' && src.[!i + 1] = '*' then begin
          incr depth;
          blank !i;
          blank (!i + 1);
          i := !i + 2
        end
        else if !i + 1 < n && src.[!i] = '*' && src.[!i + 1] = ')' then begin
          decr depth;
          blank !i;
          blank (!i + 1);
          i := !i + 2
        end
        else begin
          blank !i;
          incr i
        end
      done
    end
    else if src.[!i] = '"' then begin
      blank !i;
      incr i;
      let closed = ref false in
      while (not !closed) && !i < n do
        if src.[!i] = '\\' && !i + 1 < n then begin
          blank !i;
          blank (!i + 1);
          i := !i + 2
        end
        else begin
          if src.[!i] = '"' then closed := true;
          blank !i;
          incr i
        end
      done
    end
    else incr i
  done;
  Bytes.to_string b

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* Does [line] contain [needle] as a standalone path/identifier
   (not a substring of a longer identifier)? A '.' before the match
   is also disqualifying: [Foo.Mutex.] is not the stdlib [Mutex]. *)
let mentions line needle =
  let n = String.length line and m = String.length needle in
  let rec go i =
    if i + m > n then false
    else if
      String.sub line i m = needle
      && (i = 0 || ((not (is_ident_char line.[i - 1])) && line.[i - 1] <> '.'))
      && (i + m >= n || not (is_ident_char line.[i + m]))
    then true
    else go (i + 1)
  in
  go 0

(* A standalone [Stdlib] token *not* followed by '.': the head of an
   [open] / alias / [include] that re-exposes banned modules under new
   names. Dotted paths ([Stdlib.max_int]) are fine — [Stdlib.Atomic]
   has its own rule. *)
let mentions_bare_stdlib line =
  let needle = "Stdlib" in
  let n = String.length line and m = String.length needle in
  let rec go i =
    if i + m > n then false
    else if
      String.sub line i m = needle
      && (i = 0 || ((not (is_ident_char line.[i - 1])) && line.[i - 1] <> '.'))
      && (i + m >= n || ((not (is_ident_char line.[i + m])) && line.[i + m] <> '.'))
    then true
    else go (i + 1)
  in
  go 0

(* Does [line] drive the sweep: [Sweep.<name>] for one of the driving
   entry points, under any module prefix ([Nbhash.Sweep.help])? *)
let sweep_entry_points = [ "make"; "help"; "drain"; "finish" ]

let drives_sweep line =
  let n = String.length line in
  let rec go i =
    match String.index_from_opt line i 'S' with
    | None -> false
    | Some j ->
      (j + 6 <= n
      && String.sub line j 6 = "Sweep."
      && (j = 0 || not (is_ident_char line.[j - 1]))
      &&
      let rest = String.sub line (j + 6) (n - j - 6) in
      List.exists
        (fun name ->
          let m = String.length name in
          String.length rest >= m
          && String.sub rest 0 m = name
          && (String.length rest = m || not (is_ident_char rest.[m])))
        sweep_entry_points)
      || go (j + 1)
  in
  go 0

let ends_with file suffix =
  let n = String.length file and m = String.length suffix in
  n >= m && String.sub file (n - m) m = suffix

let sweep_owner = "lib/hashset/table_core.ml"

(* Does [line] contain the identifier [tok], possibly module-qualified
   ([Node.Pending])? Unlike [mentions], a '.' before it is fine. *)
let has_token line tok =
  let n = String.length line and m = String.length tok in
  let rec go i =
    if i + m > n then false
    else if
      String.sub line i m = tok
      && (i = 0 || not (is_ident_char line.[i - 1]))
      && (i + m >= n || not (is_ident_char line.[i + m]))
    then true
    else go (i + 1)
  in
  go 0

(* Rule 7: each wait-free mechanism, its identifying line, its one
   owner, and what to do instead of copying it. *)
let wait_free_owners =
  [
    ( (fun l -> has_token l "compare_and_set" && has_token l "Pending"),
      "lib/fset/wf_node.ml",
      "the Empty -> Pending install CAS of the wait-free node",
      "instantiate Wf_node.Make with a payload" );
    ( (fun l -> has_token l "fetch_and_add" && has_token l "prio"),
      "lib/hashset/announce.ml",
      "drawing a bakery priority for an announce",
      "instantiate Announce.Make with a slot protocol" );
  ]

let shim_alias = "module Atomic = Nbhash_util.Nb_atomic"

let banned =
  [
    ("Stdlib.Atomic", "direct Stdlib.Atomic bypasses the Nb_atomic shim");
    ("Mutex.", "Mutex in a nonblocking library");
    ("Condition.", "Condition in a nonblocking library");
    ("Semaphore.", "Semaphore in a nonblocking library");
    ("Obj.magic", "Obj.magic is forbidden");
  ]

(* [check_source ~file src] is every rule violation in [src]. *)
let check_source ~file src =
  let src = blank_comments_and_strings src in
  let lines = String.split_on_char '\n' src in
  let has_alias =
    List.exists
      (fun l ->
        (* tolerate whitespace variations around '=' *)
        let squash s =
          String.concat " "
            (List.filter (fun w -> w <> "") (String.split_on_char ' ' s))
        in
        squash l = shim_alias)
      lines
  in
  let violations = ref [] in
  let uses_atomic = ref false in
  List.iteri
    (fun idx l ->
      let line = idx + 1 in
      List.iter
        (fun (needle, rule) ->
          let needle =
            (* prefix form: "Mutex." flags any use of the module *)
            if String.length needle > 0 && needle.[String.length needle - 1] = '.'
            then String.sub needle 0 (String.length needle - 1)
            else needle
          in
          if mentions l needle then
            violations := { file; line; rule } :: !violations)
        banned;
      if mentions_bare_stdlib l then
        violations :=
          {
            file;
            line;
            rule =
              "bare Stdlib (open/alias/include) can re-expose Atomic and \
               Mutex under spellings the textual lint cannot see — use \
               dotted Stdlib paths (the typed analyzer, dune build \
               @analyze, resolves the rest)";
          }
          :: !violations;
      if drives_sweep l && not (ends_with file sweep_owner) then
        violations :=
          {
            file;
            line;
            rule =
              "the migration sweep is driven only from " ^ sweep_owner
              ^ " — instantiate Table_core.Make with a slot module \
                 instead of copying the HNode scaffolding";
          }
          :: !violations;
      List.iter
        (fun (matches, owner, what, instead) ->
          if matches l && not (ends_with file owner) then
            violations :=
              {
                file;
                line;
                rule = what ^ " belongs only in " ^ owner ^ " — " ^ instead;
              }
              :: !violations)
        wait_free_owners;
      if mentions l "Atomic" then
        (* ignore the alias declaration itself *)
        if not (mentions l "Nb_atomic") then uses_atomic := true)
    lines;
  if !uses_atomic && not has_alias then
    violations :=
      {
        file;
        line = 1;
        rule =
          "uses Atomic without re-pointing it at the shim (add 'module \
           Atomic = Nbhash_util.Nb_atomic')";
      }
      :: !violations;
  List.rev !violations

let check_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  check_source ~file:path src

let rec ml_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if Sys.is_directory path then ml_files path
         else if
           Filename.check_suffix entry ".ml" || Filename.check_suffix entry ".mli"
         then [ path ]
         else [])
  |> List.sort compare

let check_dirs dirs =
  List.concat_map (fun d -> List.concat_map check_file (ml_files d)) dirs
