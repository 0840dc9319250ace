(* Typed-AST concurrency analyzer over .cmt artifacts (DESIGN.md
   System 16).

   The textual lint in tools/lint is a fast pre-pass: it matches
   spellings, so [module S = Stdlib] followed by [S.Atomic.set] walks
   straight past it. This analyzer works on the *typed* tree the
   compiler already produced ([Cmt_format] artifacts of [dune build
   @check-cmt]), where every identifier carries its resolved [Path.t]:
   aliases, opens and includes are seen through by construction.

   Rule passes (ids are stable; tests and CI match on them):

     atomic-alias    a value, type or module path that resolves to
                     [Stdlib.Atomic] outside the [Nb_atomic] shim, or
                     an [Atomic] that cannot be proven to be the shim
     shared-mutable  a plain [mutable] record field of a type that the
                     escape heuristic considers domain-shared, or an
                     array/ref write to a shared container, without an
                     explicit [@nbhash.plain_ok "reason"]
     cas-rmw         an [Atomic.get] -> [Atomic.set] read-modify-write
                     pair on the same location inside one top-level
                     binding (ABA-prone; use [compare_and_set] or
                     attribute with [@nbhash.cas_ok "reason"])
     cas-ignored     a [compare_and_set] (on a cell, or the 4-argument
                     one on a slot of the shim's [Int_array] or
                     [Array]) whose
                     result is discarded ([ignore ...] or
                     [let _ = ...]) with no retry
     blocking-call   [Mutex] / [Condition] / [Semaphore] in a
                     nonblocking library
     obj-magic       [Obj.magic]
     attr-reason     an allowlist attribute with no reason string —
                     the audit trail is the point of the attribute

   Escape heuristic (what "domain-shared" means here): a type is
   shared if its constructor appears (transitively, through the type
   declarations of the analyzed units) in

     - the payload of an [Atomic.t] or of a slot of the shim's flat
       [Atomic.Array] — anything published through an atomic is
       reachable by every domain;
     - the type of a module-level [let] binding that is not a
       function — process-global state;
     - the type of a value mentioned inside a closure passed to
       [Domain.spawn] — captured state crosses domains.

   Arrays and refs are tracked as containers: [array:<elt>] /
   [ref:<elt>] keys, scoped per compilation unit when the element type
   is a builtin (an [int array] inside Histogram does not make every
   [int array] in the repo shared). Known false-negative classes are
   documented in DESIGN.md System 16: sharing through closures not
   passed to [Domain.spawn] directly, [Bytes], [Hashtbl]-style stdlib
   containers whose mutation happens inside the stdlib, and functions
   stored in shared records (the walk stops at arrows).

   The analyzer is deliberately heuristic where escape is concerned
   and exact where name resolution is concerned: a violation from the
   atomic-alias / blocking-call / obj-magic / cas-* passes is a real,
   name-resolved fact about the code. *)

open Typedtree

type violation = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

let rule_atomic = "atomic-alias"
let rule_plain = "shared-mutable"
let rule_rmw = "cas-rmw"
let rule_ignored = "cas-ignored"
let rule_blocking = "blocking-call"
let rule_magic = "obj-magic"
let rule_attr = "attr-reason"

let all_rules =
  [
    rule_atomic;
    rule_plain;
    rule_rmw;
    rule_ignored;
    rule_blocking;
    rule_magic;
    rule_attr;
  ]

let pp_violation ppf v =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" v.file v.line v.col v.rule v.message

(* ---------- paths ---------- *)

(* "Nbhash_util__Nb_atomic" (the persistent ident dune mangles) reads
   as the two components ["Nbhash_util"; "Nb_atomic"], so both
   spellings of a wrapped-library module normalize alike. *)
let split_mangled s =
  let rec go acc start i =
    if i + 1 >= String.length s then
      List.rev (String.sub s start (String.length s - start) :: acc)
    else if s.[i] = '_' && s.[i + 1] = '_' then
      go (String.sub s start (i - start) :: acc) (i + 2) (i + 2)
    else go acc start (i + 1)
  in
  if s = "" then [ s ] else go [] 0 0 |> List.filter (fun c -> c <> "")

let rec path_components p =
  match p with
  | Path.Pident id -> split_mangled (Ident.name id)
  | Path.Pdot (p, s) -> path_components p @ split_mangled s
  | Path.Papply (p, _) -> path_components p
  | _ -> [ Path.name p ] (* Pextra_ty and friends: opaque, match nothing *)

(* Expand the head component through the unit's [module X = P] alias
   table until a fixed point (bounded, alias cycles are illegal OCaml
   anyway). *)
let normalize aliases p =
  let rec expand fuel comps =
    match comps with
    | head :: rest when fuel > 0 -> (
        match Hashtbl.find_opt aliases head with
        | Some prefix -> expand (fuel - 1) (String.split_on_char '.' prefix @ rest)
        | None -> comps)
    | _ -> comps
  in
  String.concat "." (expand 10 (path_components p))

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let last = function [] -> "" | l -> List.nth l (List.length l - 1)

(* ---------- allowlist attributes ---------- *)

type allow = Atomic_ok | Plain_ok | Cas_ok | Blocking_ok | Magic_ok

let allow_of_name = function
  | "nbhash.atomic_ok" -> Some Atomic_ok
  | "nbhash.plain_ok" -> Some Plain_ok
  | "nbhash.cas_ok" -> Some Cas_ok
  | "nbhash.blocking_ok" -> Some Blocking_ok
  | "nbhash.magic_ok" -> Some Magic_ok
  | _ -> None

let attr_reason (a : Parsetree.attribute) =
  match a.attr_payload with
  | PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ]
    when String.trim s <> "" ->
      Some s
  | _ -> None

(* ---------- shared-type keys ---------- *)

let builtin_heads =
  [
    "int"; "float"; "bool"; "char"; "string"; "bytes"; "unit"; "exn";
    "int32"; "int64"; "nativeint"; "list"; "option"; "result"; "lazy_t";
    "Stdlib.format6"; "format6";
  ]

(* Candidate keys under which a type constructor is known: its last
   two dotted components, plus the last three when available. A bare
   local name is qualified with the unit's simple module name, so
   [t] inside Lf_fset and [Lf_fset.t] from outside coincide. *)
let keys_of_comps ~umod comps =
  match comps with
  | [] -> []
  | [ x ] ->
      if List.mem x builtin_heads then [] else [ umod ^ "." ^ x ]
  | comps ->
      let n = List.length comps in
      let from k =
        String.concat "." (List.filteri (fun i _ -> i >= n - k) comps)
      in
      if n >= 3 then [ from 2; from 3 ] else [ from 2 ]

(* An atomic cell, or the shim's flat value array, whose every slot is
   an atomic cell: [Atomic.t], [Nb_atomic.t], [Atomic.Array.t] (also
   through a backend, [Nb_atomic.Real.Array.t]) and the abbreviation
   they expand to, [Nb_atomic.atomic_array]. *)
let is_atomic_ty comps =
  let shim c = c = "Atomic" || c = "Nb_atomic" in
  match List.rev comps with
  | "t" :: prev :: _ when shim prev -> true
  | "t" :: "Array" :: rest -> List.exists shim rest
  | "atomic_array" :: rest -> List.exists shim rest
  | _ -> false

let container_of comps =
  match comps with
  | [ "array" ] -> Some "array"
  | [ "ref" ] | [ "Stdlib"; "ref" ] -> Some "ref"
  | _ -> None

(* The per-unit scope of container keys over builtin elements. *)
let elt_key ~umod (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> (
      let comps = path_components p in
      match comps with
      | [ x ] when List.mem x builtin_heads -> x ^ "@" ^ umod
      | [] -> "poly@" ^ umod
      | comps -> (
          match keys_of_comps ~umod comps with
          | k :: _ -> k
          | [] -> last comps ^ "@" ^ umod))
  | _ -> "poly@" ^ umod

(* Walk a [Types.type_expr]; call [emit key ~under_atomic] for every
   type-constructor / container key. Stops at arrows: a function in a
   shared slot does not share what its type mentions. *)
let walk_ty ~umod ~emit ty =
  let visited = Hashtbl.create 16 in
  let rec go under ty =
    let id = Types.get_id ty in
    if not (Hashtbl.mem visited id) then begin
      Hashtbl.add visited id ();
      match Types.get_desc ty with
      | Types.Tarrow _ -> ()
      | Types.Ttuple ts -> List.iter (go under) ts
      | Types.Tpoly (t, _) -> go under t
      | Types.Tconstr (p, args, _) ->
          let comps = path_components p in
          if is_atomic_ty comps then List.iter (go true) args
          else begin
            (match container_of comps with
            | Some kind ->
                (match args with
                | [ elt ] -> emit (kind ^ ":" ^ elt_key ~umod elt) ~under_atomic:under
                | _ -> ())
            | None ->
                List.iter (fun k -> emit k ~under_atomic:under)
                  (keys_of_comps ~umod comps));
            List.iter (go under) args
          end
      | _ -> ()
    end
  in
  go false ty

(* ---------- per-unit facts ---------- *)

type mfield = {
  f_keys : string list;  (* candidate keys of the declaring type *)
  f_tname : string;  (* last component of the type's name *)
  f_name : string;
  f_allowed : bool;
  f_loc : Location.t;
}

type facts = {
  u_cmt : string;
  u_mod : string;  (* simple module name, e.g. "Lf_fset" *)
  u_str : structure;
  u_aliases : (string, string) Hashtbl.t;
  u_local_mods : (string, unit) Hashtbl.t;
  mutable u_mfields : mfield list;
  mutable u_seeds : string list;
  mutable u_edges : (string * string list) list;
}

let loc_triple (loc : Location.t) =
  let p = loc.loc_start in
  (p.pos_fname, p.pos_lnum, p.pos_cnum - p.pos_bol)

let mkviol ?loc ~fallback_file rule message =
  let file, line, col =
    match loc with
    | Some l when not l.Location.loc_ghost -> loc_triple l
    | Some l -> loc_triple l
    | None -> (fallback_file, 1, 0)
  in
  let file = if file = "" || file = "_none_" then fallback_file else file in
  { file; line; col; rule; message }

(* Reasonless allowlist attributes are themselves violations: the
   grep-able audit trail is the point. The allow is still granted so a
   missing reason reports once, not twice. [viol] is the raw
   [violation -> unit] sink. *)
let allows_of_attrs ~viol (attrs : Parsetree.attributes) =
  List.filter_map
    (fun (a : Parsetree.attribute) ->
      match allow_of_name a.attr_name.txt with
      | None -> None
      | Some cls ->
          (match attr_reason a with
          | Some _ -> ()
          | None ->
              viol
                (mkviol ~loc:a.attr_loc ~fallback_file:a.attr_name.txt
                   rule_attr
                   (Printf.sprintf
                      "[@%s] needs a reason string: [@%s \"why this is \
                       safe\"]"
                      a.attr_name.txt a.attr_name.txt)));
          Some cls)
    attrs

(* Unwrap [Tmod_constraint] to see the underlying module expression. *)
let rec mod_root (m : module_expr) =
  match m.mod_desc with
  | Tmod_constraint (m, _, _, _) -> mod_root m
  | d -> d

let simple_modname modname = last (split_mangled modname)

(* ---------- pass 1: collect aliases, declarations, seeds, edges ---------- *)

let collect_facts ~cmt_path ~modname (str : structure) ~viol =
  let umod = simple_modname modname in
  let u =
    {
      u_cmt = cmt_path;
      u_mod = umod;
      u_str = str;
      u_aliases = Hashtbl.create 8;
      u_local_mods = Hashtbl.create 8;
      u_mfields = [];
      u_seeds = [];
      u_edges = [];
    }
  in
  let mod_stack = ref [] in
  let record_module id mexpr =
    match (id, mod_root mexpr) with
    | Some id, Tmod_ident (p, _) ->
        Hashtbl.replace u.u_aliases (Ident.name id)
          (String.concat "." (path_components p))
    | Some id, _ -> Hashtbl.replace u.u_local_mods (Ident.name id) ()
    | None, _ -> ()
  in
  let seed k = u.u_seeds <- k :: u.u_seeds in
  (* Walk the types of a type declaration's components: everything
     mentioned is an edge target of the declaring key; anything under
     an Atomic.t is immediately shared. *)
  let decl_targets = ref [] in
  let emit_decl k ~under_atomic =
    decl_targets := k :: !decl_targets;
    if under_atomic then seed k
  in
  let field_allows (ld : label_declaration) decl_attrs =
    let attrs =
      ld.ld_attributes @ ld.ld_type.ctyp_attributes @ decl_attrs
    in
    List.mem Plain_ok (allows_of_attrs ~viol attrs)
  in
  let record_labels ~keys ~tname ~decl_attrs lds =
    List.iter
      (fun (ld : label_declaration) ->
        walk_ty ~umod ~emit:emit_decl ld.ld_type.ctyp_type;
        if ld.ld_mutable = Mutable then
          u.u_mfields <-
            {
              f_keys = keys;
              f_tname = tname;
              f_name = ld.ld_name.txt;
              f_allowed = field_allows ld decl_attrs;
              f_loc = ld.ld_loc;
            }
            :: u.u_mfields)
      lds
  in
  let type_declaration _it (td : type_declaration) =
    let tname = td.typ_name.txt in
    let owner = match !mod_stack with m :: _ -> m | [] -> umod in
    (* Register under both the enclosing-module key and the unit key:
       a type declared inside [module Make (E) = struct ...] is used
       same-unit under its bare name (which [keys_of_comps] qualifies
       with the unit name), so the declaration must answer to both. *)
    let keys =
      (owner ^ "." ^ tname)
      :: (if owner <> umod then [ umod ^ "." ^ tname ] else [])
    in
    decl_targets := [];
    (match td.typ_kind with
    | Ttype_record lds ->
        record_labels ~keys ~tname ~decl_attrs:td.typ_attributes lds
    | Ttype_variant cds ->
        List.iter
          (fun (cd : constructor_declaration) ->
            match cd.cd_args with
            | Cstr_tuple cts ->
                List.iter
                  (fun (ct : core_type) ->
                    walk_ty ~umod ~emit:emit_decl ct.ctyp_type)
                  cts
            | Cstr_record lds ->
                (* inline record: values print as [t.C] *)
                record_labels
                  ~keys:(keys @ [ tname ^ "." ^ cd.cd_name.txt ])
                  ~tname:cd.cd_name.txt ~decl_attrs:td.typ_attributes lds)
          cds
    | Ttype_abstract | Ttype_open -> ());
    (match td.typ_manifest with
    | Some ct -> walk_ty ~umod ~emit:emit_decl ct.ctyp_type
    | None -> ());
    List.iter (fun k -> u.u_edges <- (k, !decl_targets) :: u.u_edges) keys
  in
  (* Seeds: every expression type's Atomic payloads; module-level
     non-function bindings; values mentioned in Domain.spawn'd
     closures. *)
  let emit_expr k ~under_atomic = if under_atomic then seed k in
  let seed_spawned_closure fn =
    let it =
      {
        Tast_iterator.default_iterator with
        expr =
          (fun it e ->
            (match e.exp_desc with
            | Texp_ident (_, _, _) ->
                walk_ty ~umod
                  ~emit:(fun k ~under_atomic:_ -> seed k)
                  e.exp_type
            | _ -> ());
            Tast_iterator.default_iterator.expr it e);
      }
    in
    it.expr it fn
  in
  let expr it (e : expression) =
    walk_ty ~umod ~emit:emit_expr e.exp_type;
    (match e.exp_desc with
    | Texp_letmodule (id, _, _, mexpr, _) -> record_module id mexpr
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
        let n = normalize u.u_aliases p in
        if n = "Stdlib.Domain.spawn" || n = "Domain.spawn" then
          List.iter
            (function _, Some fn -> seed_spawned_closure fn | _ -> ())
            args
    | _ -> ());
    Tast_iterator.default_iterator.expr it e
  in
  let structure_item it (si : structure_item) =
    (match si.str_desc with
    | Tstr_module mb -> record_module mb.mb_id mb.mb_expr
    | Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : value_binding) ->
            walk_ty ~umod
              ~emit:(fun k ~under_atomic:_ -> seed k)
              vb.vb_pat.pat_type)
          vbs
    | _ -> ());
    Tast_iterator.default_iterator.structure_item it si
  in
  let module_binding it (mb : module_binding) =
    let name =
      match mb.mb_id with Some id -> Some (Ident.name id) | None -> None
    in
    (match name with Some n -> mod_stack := n :: !mod_stack | None -> ());
    Tast_iterator.default_iterator.module_binding it mb;
    match name with Some _ -> mod_stack := List.tl !mod_stack | None -> ()
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr;
      structure_item;
      type_declaration;
      module_binding;
    }
  in
  it.structure it str;
  u

(* ---------- sharing propagation ---------- *)

let propagate (units : facts list) =
  let shared = Hashtbl.create 64 in
  let edges = Hashtbl.create 64 in
  List.iter
    (fun u ->
      List.iter
        (fun (k, targets) ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt edges k) in
          Hashtbl.replace edges k (targets @ prev))
        u.u_edges)
    units;
  let queue = Queue.create () in
  let mark k =
    if not (Hashtbl.mem shared k) then begin
      Hashtbl.add shared k ();
      Queue.add k queue
    end
  in
  List.iter (fun u -> List.iter mark u.u_seeds) units;
  while not (Queue.is_empty queue) do
    let k = Queue.pop queue in
    (* a shared container shares its (non-builtin) element type *)
    (match String.index_opt k ':' with
    | Some i ->
        let elt = String.sub k (i + 1) (String.length k - i - 1) in
        if not (String.contains elt '@') then mark elt
    | None -> ());
    match Hashtbl.find_opt edges k with
    | Some targets -> List.iter mark targets
    | None -> ()
  done;
  shared

(* ---------- pass 2: rule checks ---------- *)

let atomic_op_prefixes =
  [ "Stdlib.Atomic."; "Nbhash_util.Nb_atomic."; "Atomic." ]

let atomic_op n =
  if
    List.exists (fun p -> starts_with ~prefix:p n) atomic_op_prefixes
    (* Real/Traced backends of the shim count too *)
    || (let comps = String.split_on_char '.' n in
        List.mem "Nb_atomic" comps)
  then
    match List.rev (String.split_on_char '.' n) with
    | op :: _ -> Some op
    | [] -> None
  else None

let blocking_prefixes =
  [
    "Stdlib.Mutex."; "Stdlib.Condition."; "Stdlib.Semaphore.";
    "Mutex."; "Condition."; "Semaphore."; "Thread."; "Stdlib.Thread.";
  ]

let blocking_modules =
  [
    "Stdlib.Mutex"; "Stdlib.Condition"; "Stdlib.Semaphore";
    "Mutex"; "Condition"; "Semaphore"; "Thread"; "Stdlib.Thread";
  ]

let array_writes =
  [
    ("Stdlib.Array.set", 0); ("Stdlib.Array.unsafe_set", 0);
    ("Stdlib.Array.fill", 0); ("Stdlib.Array.blit", 2);
    ("Array.set", 0); ("Array.unsafe_set", 0);
    ("Array.fill", 0); ("Array.blit", 2);
  ]

let ref_writes = [ "Stdlib.:="; "Stdlib.incr"; "Stdlib.decr" ]

let check_unit ~shared ~flagged_fields ~allowed_fields (u : facts) ~viol =
  let raw_viol = viol in
  let fallback = u.u_cmt in
  let viol ?loc rule msg =
    raw_viol (mkviol ?loc ~fallback_file:fallback rule msg)
  in
  let norm p = normalize u.u_aliases p in
  let allows = ref [] in
  let allowed cls = List.mem cls !allows in
  let allows_of attrs = allows_of_attrs ~viol:raw_viol attrs in
  let grant attrs = allows := allows_of attrs @ !allows in
  (* shared-mutable: mutable field declarations of shared types *)
  List.iter
    (fun f ->
      if
        (not f.f_allowed)
        && List.exists (fun k -> Hashtbl.mem shared k) f.f_keys
      then
        viol ~loc:f.f_loc rule_plain
          (Printf.sprintf
             "mutable field '%s' of domain-shared type %s needs \
              [@nbhash.plain_ok \"reason\"] (or an atomic)"
             f.f_name
             (match f.f_keys with k :: _ -> k | [] -> f.f_tname)))
    u.u_mfields;
  (* per-top-level-binding get/set RMW scope *)
  let scope_gets : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let scope_sets = ref [] in
  let rec lvalue_key (e : expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> Some (norm p)
    | Texp_field (e', _, lbl) ->
        Option.map (fun k -> k ^ "." ^ lbl.lbl_name) (lvalue_key e')
    | _ -> None
  in
  let positional args =
    List.filter_map (function Asttypes.Nolabel, Some a -> Some a | _ -> None) args
  in
  (* A full CAS application: [compare_and_set cell old new] on an
     atomic cell, or [compare_and_set array index old new] on the
     shim's flat [Int_array]. *)
  let is_cas_apply (e : expression) =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) -> (
        match atomic_op (norm p) with
        | Some "compare_and_set" ->
            let n = List.length (positional args) in
            n = 3 || n = 4
        | _ -> false)
    | _ -> false
  in
  let head_keys (ty : Types.type_expr) =
    match Types.get_desc ty with
    | Types.Tconstr (p, _, _) -> keys_of_comps ~umod:u.u_mod (path_components p)
    | _ -> []
  in
  let container_key (ty : Types.type_expr) =
    match Types.get_desc ty with
    | Types.Tconstr (p, [ elt ], _) -> (
        match container_of (path_components p) with
        | Some kind -> Some (kind ^ ":" ^ elt_key ~umod:u.u_mod elt)
        | None -> None)
    | _ -> None
  in
  let check_value_path n loc =
    if starts_with ~prefix:"Stdlib.Atomic." n then begin
      if not (allowed Atomic_ok) then
        viol ~loc rule_atomic
          (Printf.sprintf
             "%s resolves to Stdlib.Atomic — go through the Nb_atomic shim \
              (or justify with [@nbhash.atomic_ok \"reason\"])"
             n)
    end
    else if n = "Stdlib.Obj.magic" || n = "Obj.magic" then begin
      if not (allowed Magic_ok) then
        viol ~loc rule_magic
          "Obj.magic is forbidden in the nonblocking libraries \
           ([@nbhash.magic_ok \"reason\"] to override)"
    end
    else if List.exists (fun p -> starts_with ~prefix:p n) blocking_prefixes
    then begin
      if not (allowed Blocking_ok) then
        viol ~loc rule_blocking
          (Printf.sprintf
             "%s is a blocking primitive in a nonblocking library \
              ([@nbhash.blocking_ok \"reason\"] to override)"
             n)
    end
    else
      match String.split_on_char '.' n with
      | "Atomic" :: _
        when not
               (Hashtbl.mem u.u_aliases "Atomic"
               || Hashtbl.mem u.u_local_mods "Atomic") ->
          if not (allowed Atomic_ok) then
            viol ~loc rule_atomic
              (Printf.sprintf
                 "%s: cannot prove this Atomic is the Nb_atomic shim — \
                  re-point it with [module Atomic = Nbhash_util.Nb_atomic]"
                 n)
      | _ -> ()
  in
  let expr it (e : expression) =
    let saved = !allows in
    grant e.exp_attributes;
    (match e.exp_desc with
    | Texp_ident (p, lid, _) -> check_value_path (norm p) lid.loc
    | Texp_letmodule (_, _, _, _, _) -> ()
    | Texp_setfield (er, lid, lbl, _) ->
        let keys = head_keys er.exp_type @ head_keys lbl.lbl_res in
        let fkey tname = tname ^ "." ^ lbl.lbl_name in
        (* Suppress the per-write report only when the declaration is
           itself flagged (one report at the decl, not one per write)
           or carries [@nbhash.plain_ok]. A same-named field of some
           *unshared* type elsewhere must not mask this write. *)
        let decl_handles tbl =
          List.exists
            (fun k ->
              Hashtbl.mem tbl (fkey (last (String.split_on_char '.' k))))
            keys
        in
        if
          List.exists (fun k -> Hashtbl.mem shared k) keys
          && (not (decl_handles flagged_fields))
          && (not (decl_handles allowed_fields))
          && not (allowed Plain_ok)
        then
          viol ~loc:lid.loc rule_plain
            (Printf.sprintf
               "write to mutable field '%s' of a domain-shared value \
                needs [@nbhash.plain_ok \"reason\"] (or an atomic)"
               lbl.lbl_name)
    | Texp_apply ({ exp_desc = Texp_ident (p, lid, _); _ }, args) -> (
        let n = norm p in
        let pos = positional args in
        (* cas-ignored: ignore (compare_and_set ...) *)
        (if n = "Stdlib.ignore" || n = "ignore" then
           match pos with
           | [ a ] when is_cas_apply a ->
               let inner_allow = List.mem Cas_ok (allows_of a.exp_attributes) in
               if (not (allowed Cas_ok)) && not inner_allow then
                 viol ~loc:lid.loc rule_ignored
                   "compare_and_set result discarded with no retry branch \
                    ([@nbhash.cas_ok \"reason\"] if the lost race is benign)"
           | _ -> ());
        (* array/ref writes on shared containers *)
        (match List.assoc_opt n array_writes with
        | Some dst_idx when List.length pos > dst_idx -> (
            let dst = List.nth pos dst_idx in
            match container_key dst.exp_type with
            | Some ck when Hashtbl.mem shared ck && not (allowed Plain_ok) ->
                viol ~loc:lid.loc rule_plain
                  (Printf.sprintf
                     "%s on a domain-shared array (%s) needs \
                      [@nbhash.plain_ok \"reason\"] — shared slots want \
                      atomics or frozen copy-on-write"
                     n ck)
            | _ -> ())
        | _ ->
            if List.mem n ref_writes then
              match pos with
              | r :: _ -> (
                  match container_key r.exp_type with
                  | Some ck when Hashtbl.mem shared ck && not (allowed Plain_ok)
                    ->
                      viol ~loc:lid.loc rule_plain
                        (Printf.sprintf
                           "%s on a domain-shared ref (%s) needs \
                            [@nbhash.plain_ok \"reason\"] — use an Atomic"
                           n ck)
                  | _ -> ())
              | [] -> ());
        (* atomic get/set collection for the RMW pass *)
        match atomic_op n with
        | Some "get" -> (
            match pos with
            | [ a ] -> (
                match lvalue_key a with
                | Some k -> Hashtbl.replace scope_gets k ()
                | None -> ())
            | _ -> ())
        | Some "set" -> (
            match pos with
            | a :: _ :: _ -> (
                match lvalue_key a with
                | Some k ->
                    scope_sets :=
                      (k, lid.loc, allowed Cas_ok) :: !scope_sets
                | None -> ())
            | _ -> ())
        | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr it e;
    allows := saved
  in
  let typ it (ct : core_type) =
    (match ct.ctyp_desc with
    | Ttyp_constr (p, lid, _) ->
        let n = norm p in
        if
          starts_with ~prefix:"Stdlib.Atomic." n
          && (not (allowed Atomic_ok))
          && not (List.mem Atomic_ok (allows_of ct.ctyp_attributes))
        then
          viol ~loc:lid.loc rule_atomic
            (Printf.sprintf
               "type %s spells out Stdlib.Atomic — use the shim's \
                [Atomic.t] so the lint discipline stays alias-proof"
               n)
    | _ -> ());
    Tast_iterator.default_iterator.typ it ct
  in
  let module_expr it (m : module_expr) =
    (match m.mod_desc with
    | Tmod_ident (p, lid) ->
        let n = norm p in
        if
          (n = "Stdlib.Atomic" || starts_with ~prefix:"Stdlib.Atomic." n)
          && not (allowed Atomic_ok)
        then
          viol ~loc:lid.loc rule_atomic
            (Printf.sprintf
               "module path %s aliases Stdlib.Atomic — alias the shim \
                (Nbhash_util.Nb_atomic) instead"
               n)
        else if List.mem n blocking_modules && not (allowed Blocking_ok) then
          viol ~loc:lid.loc rule_blocking
            (Printf.sprintf "module path %s is a blocking primitive" n)
    | _ -> ());
    Tast_iterator.default_iterator.module_expr it m
  in
  let value_binding it (vb : value_binding) =
    let saved = !allows in
    grant vb.vb_attributes;
    (match (vb.vb_pat.pat_desc, is_cas_apply vb.vb_expr) with
    | Tpat_any, true when not (allowed Cas_ok) ->
        viol ~loc:vb.vb_loc rule_ignored
          "compare_and_set result bound to _ with no retry branch \
           ([@nbhash.cas_ok \"reason\"] if the lost race is benign)"
    | _ -> ());
    Tast_iterator.default_iterator.value_binding it vb;
    allows := saved
  in
  let flush_scope () =
    List.iter
      (fun (k, loc, was_allowed) ->
        if Hashtbl.mem scope_gets k && not was_allowed then
          viol ~loc rule_rmw
            (Printf.sprintf
               "Atomic.get -> Atomic.set read-modify-write on '%s' is \
                ABA-prone — use compare_and_set (or [@nbhash.cas_ok \
                \"reason\"])"
               k))
      (List.rev !scope_sets);
    Hashtbl.reset scope_gets;
    scope_sets := []
  in
  let structure_item it (si : structure_item) =
    match si.str_desc with
    | Tstr_value (_, vbs) ->
        (* one RMW scope per top-level binding *)
        List.iter
          (fun vb ->
            flush_scope ();
            it.Tast_iterator.value_binding it vb;
            flush_scope ())
          vbs
    | _ -> Tast_iterator.default_iterator.structure_item it si
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr;
      typ;
      module_expr;
      value_binding;
      structure_item;
    }
  in
  it.structure it u.u_str;
  flush_scope ()

(* ---------- driver ---------- *)

(* The shim itself is the one place allowed to touch Stdlib.Atomic. *)
let exempt_unit modname =
  match List.rev (split_mangled modname) with
  | "Nb_atomic" :: _ -> true
  | _ -> false

let load_cmt path =
  match Cmt_format.read_cmt path with
  | exception exn ->
      Error (Printf.sprintf "%s: cannot read cmt: %s" path (Printexc.to_string exn))
  | infos -> Ok infos

(* [analyze cmt_paths] loads every artifact, runs both passes and
   returns the violations sorted by location, together with the number
   of units actually analyzed. *)
let analyze cmt_paths =
  let violations = ref [] in
  let seen = Hashtbl.create 64 in
  let viol v =
    let key = (v.file, v.line, v.col, v.rule) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      violations := v :: !violations
    end
  in
  let units =
    List.filter_map
      (fun path ->
        match load_cmt path with
        | Error msg -> failwith msg
        | Ok infos -> (
            if exempt_unit infos.Cmt_format.cmt_modname then None
            else
              match infos.Cmt_format.cmt_annots with
              | Cmt_format.Implementation str ->
                  Some
                    (collect_facts ~cmt_path:path
                       ~modname:infos.Cmt_format.cmt_modname str ~viol)
              | _ -> None))
      cmt_paths
  in
  let shared = propagate units in
  (* [flagged_fields]: declarations the shared-mutable pass reports, so
     per-write checks don't repeat them. [allowed_fields]:
     declarations carrying [@nbhash.plain_ok], which covers writes
     everywhere. *)
  let flagged_fields = Hashtbl.create 64 in
  let allowed_fields = Hashtbl.create 64 in
  List.iter
    (fun u ->
      List.iter
        (fun f ->
          let key = f.f_tname ^ "." ^ f.f_name in
          if f.f_allowed then Hashtbl.replace allowed_fields key ()
          else if List.exists (fun k -> Hashtbl.mem shared k) f.f_keys then
            Hashtbl.replace flagged_fields key ())
        u.u_mfields)
    units;
  List.iter
    (fun u -> check_unit ~shared ~flagged_fields ~allowed_fields u ~viol)
    units;
  let vs =
    List.sort
      (fun a b ->
        compare (a.file, a.line, a.col, a.rule) (b.file, b.line, b.col, b.rule))
      !violations
  in
  (vs, List.length units)

(* Shared sets are exposed for the analyzer's [--debug-shared]. *)
let debug_shared cmt_paths =
  let units =
    List.filter_map
      (fun path ->
        match load_cmt path with
        | Error _ -> None
        | Ok infos -> (
            if exempt_unit infos.Cmt_format.cmt_modname then None
            else
              match infos.Cmt_format.cmt_annots with
              | Cmt_format.Implementation str ->
                  Some
                    (collect_facts ~cmt_path:path
                       ~modname:infos.Cmt_format.cmt_modname str
                       ~viol:(fun _ -> ()))
              | _ -> None))
      cmt_paths
  in
  let shared = propagate units in
  Hashtbl.fold (fun k () acc -> k :: acc) shared [] |> List.sort compare
