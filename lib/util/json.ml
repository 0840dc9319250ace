type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of int * string

type state = { s : string; mutable pos : int }

let fail st msg = raise (Bad (st.pos, msg))
let eof st = st.pos >= String.length st.s
let peek st = st.s.[st.pos]

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  if (not (eof st)) &&
     (match peek st with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
  then (advance st; skip_ws st)

let expect st c =
  if eof st || peek st <> c then
    fail st (Printf.sprintf "expected %C" c)
  else advance st

let literal st word v =
  let n = String.length word in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = word then (
    st.pos <- st.pos + n;
    v)
  else fail st (Printf.sprintf "expected %s" word)

let hex_digit st c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail st "bad hex digit in \\u escape"

(* UTF-8 encode one code point into [b]. *)
let encode_utf8 b cp =
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then (
    Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F))))
  else if cp < 0x10000 then (
    Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F))))
  else (
    Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F))))

let parse_u16 st =
  if st.pos + 4 > String.length st.s then fail st "truncated \\u escape";
  let d i = hex_digit st st.s.[st.pos + i] in
  let v = (d 0 lsl 12) lor (d 1 lsl 8) lor (d 2 lsl 4) lor d 3 in
  st.pos <- st.pos + 4;
  v

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec loop () =
    if eof st then fail st "unterminated string";
    match peek st with
    | '"' -> advance st; Buffer.contents b
    | '\\' ->
      advance st;
      if eof st then fail st "unterminated escape";
      let c = peek st in
      advance st;
      (match c with
      | '"' -> Buffer.add_char b '"'
      | '\\' -> Buffer.add_char b '\\'
      | '/' -> Buffer.add_char b '/'
      | 'b' -> Buffer.add_char b '\b'
      | 'f' -> Buffer.add_char b '\012'
      | 'n' -> Buffer.add_char b '\n'
      | 'r' -> Buffer.add_char b '\r'
      | 't' -> Buffer.add_char b '\t'
      | 'u' ->
        (* Surrogate handling: a high+low pair combines into one
           supplementary code point; anything unpaired becomes U+FFFD
           (never a raw D800–DFFF code unit, which UTF-8 cannot
           validly encode). An unpaired high surrogate consumes only
           itself, so whatever \u escape follows is re-parsed
           normally. *)
        let u = parse_u16 st in
        if u >= 0xD800 && u <= 0xDBFF then
          let lo =
            if st.pos + 6 <= String.length st.s
               && st.s.[st.pos] = '\\' && st.s.[st.pos + 1] = 'u'
            then (
              let save = st.pos in
              st.pos <- st.pos + 2;
              let lo = parse_u16 st in
              if lo >= 0xDC00 && lo <= 0xDFFF then Some lo
              else (st.pos <- save; None))
            else None
          in
          (match lo with
          | Some lo ->
            encode_utf8 b (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
          | None -> encode_utf8 b 0xFFFD)
        else if u >= 0xDC00 && u <= 0xDFFF then encode_utf8 b 0xFFFD
        else encode_utf8 b u
      | _ -> fail st "bad escape");
      loop ()
    | c when c < ' ' -> fail st "unescaped control character in string"
    | c -> advance st; Buffer.add_char b c; loop ()
  in
  loop ()

(* [float_of_string] is laxer than RFC 8259 (leading zeros, "1.",
   hex): check the token against the RFC number grammar first —
   optional minus, "0" or a nonzero-led digit run, optional fraction
   (dot plus at least one digit), optional exponent. *)
let rfc_number text =
  let n = String.length text in
  let i = ref 0 in
  let digit () = !i < n && text.[!i] >= '0' && text.[!i] <= '9' in
  let digits1 () =
    if digit () then begin
      while digit () do incr i done;
      true
    end
    else false
  in
  if !i < n && text.[!i] = '-' then incr i;
  let int_ok = if digit () && text.[!i] = '0' then (incr i; true) else digits1 () in
  int_ok
  && (if !i < n && text.[!i] = '.' then (incr i; digits1 ()) else true)
  && (if !i < n && (text.[!i] = 'e' || text.[!i] = 'E') then begin
        incr i;
        if !i < n && (text.[!i] = '+' || text.[!i] = '-') then incr i;
        digits1 ()
      end
      else true)
  && !i = n

let parse_number st =
  let start = st.pos in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (not (eof st)) && is_num_char (peek st) do advance st done;
  let text = String.sub st.s start (st.pos - start) in
  match (if rfc_number text then float_of_string_opt text else None) with
  | Some f -> Num f
  | None -> st.pos <- start; fail st "bad number"

let rec parse_value st =
  skip_ws st;
  if eof st then fail st "unexpected end of input";
  match peek st with
  | 'n' -> literal st "null" Null
  | 't' -> literal st "true" (Bool true)
  | 'f' -> literal st "false" (Bool false)
  | '"' -> Str (parse_string st)
  | '{' ->
    advance st;
    skip_ws st;
    if (not (eof st)) && peek st = '}' then (advance st; Obj [])
    else
      let rec fields acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        if eof st then fail st "unterminated object"
        else
          match peek st with
          | ',' -> advance st; fields ((k, v) :: acc)
          | '}' -> advance st; Obj (List.rev ((k, v) :: acc))
          | _ -> fail st "expected ',' or '}'"
      in
      fields []
  | '[' ->
    advance st;
    skip_ws st;
    if (not (eof st)) && peek st = ']' then (advance st; Arr [])
    else
      let rec items acc =
        let v = parse_value st in
        skip_ws st;
        if eof st then fail st "unterminated array"
        else
          match peek st with
          | ',' -> advance st; items (v :: acc)
          | ']' -> advance st; Arr (List.rev (v :: acc))
          | _ -> fail st "expected ',' or ']'"
      in
      items []
  | '-' | '0' .. '9' -> parse_number st
  | _ -> fail st "unexpected character"

let parse s =
  let st = { s; pos = 0 } in
  match
    let v = parse_value st in
    skip_ws st;
    if not (eof st) then fail st "trailing content";
    v
  with
  | v -> Ok v
  | exception Bad (pos, msg) ->
    Error (Printf.sprintf "JSON error at byte %d: %s" pos msg)

let parse_exn s =
  match parse s with Ok v -> v | Error msg -> failwith msg

(* File variant with I/O errors folded into the result, so CLI
   consumers get a printable message for a missing or unreadable path
   instead of an exception. *)
let parse_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | s -> (
    match parse s with
    | Ok v -> Ok v
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
  | exception Sys_error msg -> Error msg
  | exception End_of_file ->
    Error (Printf.sprintf "%s: truncated while reading" path)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_num = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr l -> Some l | _ -> None
let keys = function Obj fields -> Some (List.map fst fields) | _ -> None

(* --- encoding --- *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let number x =
  let x = if Float.is_finite x then x else 0. in
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x
