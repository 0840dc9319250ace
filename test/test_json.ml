(* The minimal JSON reader in Nbhash_util.Json: it exists to validate
   the repo's own emitters (snapshot, bench, trace exporter) and to
   diff bench files, so the tests focus on RFC 8259 conformance of
   what those emitters produce plus loud rejection of malformed
   input. *)

module Json = Nbhash_util.Json

let ok s =
  match Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected parse failure on %S: %s" s e

let bad s =
  match Json.parse s with
  | Ok _ -> Alcotest.failf "expected parse failure on %S" s
  | Error _ -> ()

let test_scalars () =
  Alcotest.(check bool) "null" true (ok "null" = Json.Null);
  Alcotest.(check bool) "true" true (ok "true" = Json.Bool true);
  Alcotest.(check bool) "false" true (ok " false " = Json.Bool false);
  Alcotest.(check bool) "int" true (ok "42" = Json.Num 42.);
  Alcotest.(check bool) "negative" true (ok "-7" = Json.Num (-7.));
  Alcotest.(check bool) "fraction" true (ok "1.5" = Json.Num 1.5);
  Alcotest.(check bool) "exponent" true (ok "25e-1" = Json.Num 2.5);
  Alcotest.(check bool) "string" true (ok {|"hi"|} = Json.Str "hi")

let test_escapes () =
  Alcotest.(check bool) "common escapes" true
    (ok {|"a\"b\\c\/d\n\t"|} = Json.Str "a\"b\\c/d\n\t");
  Alcotest.(check bool) "unicode escape" true
    (ok "\"\\u0041\"" = Json.Str "A");
  (* U+1F600 as a surrogate pair must decode to 4-byte UTF-8. *)
  Alcotest.(check bool) "surrogate pair" true
    (ok "\"\\ud83d\\ude00\"" = Json.Str "\xf0\x9f\x98\x80");
  (* Unpaired surrogates can't be represented in valid UTF-8: they
     decode to U+FFFD, never to a raw D800-DFFF encoding. *)
  let fffd = "\xef\xbf\xbd" in
  Alcotest.(check bool) "lone high surrogate" true
    (ok "\"\\ud800\"" = Json.Str fffd);
  Alcotest.(check bool) "lone low surrogate" true
    (ok "\"\\udc00\"" = Json.Str fffd);
  (* An unpaired high surrogate consumes only itself: the following
     escape is decoded on its own. *)
  Alcotest.(check bool) "high surrogate then BMP escape" true
    (ok "\"\\ud800\\u0041\"" = Json.Str (fffd ^ "A"));
  Alcotest.(check bool) "high surrogate then high surrogate" true
    (ok "\"\\ud800\\ud83d\\ude00\"" = Json.Str (fffd ^ "\xf0\x9f\x98\x80"))

let test_structures () =
  Alcotest.(check bool) "empty array" true (ok "[]" = Json.Arr []);
  Alcotest.(check bool) "empty object" true (ok "{}" = Json.Obj []);
  let v = ok {|{"a":[1,2],"b":{"c":null},"a":3}|} in
  (match Json.member "a" v with
  | Some (Json.Arr [ Json.Num 1.; Json.Num 2. ]) -> ()
  | _ -> Alcotest.fail "member returns the FIRST binding of a key");
  Alcotest.(check (option (list string)))
    "keys in document order"
    (Some [ "a"; "b"; "a" ])
    (Json.keys v);
  match Option.bind (Json.member "b" v) (Json.member "c") with
  | Some Json.Null -> ()
  | _ -> Alcotest.fail "nested member"

let test_rejects () =
  bad "";
  bad "nul";
  bad "01";
  bad "[1,]";
  bad "{\"a\":}";
  bad "{\"a\" 1}";
  bad "\"unterminated";
  bad "[1] trailing";
  bad "'single quotes'";
  (* RFC 8259: control characters below 0x20 must be escaped. *)
  bad "\"tab\there\"";
  bad "\"newline\nhere\"";
  bad "\"nul\x00here\""

let test_accessors () =
  Alcotest.(check (option (float 0.))) "to_num" (Some 3.) (Json.to_num (ok "3"));
  Alcotest.(check (option string)) "to_str" (Some "x") (Json.to_str (ok {|"x"|}));
  Alcotest.(check bool) "to_list" true
    (Json.to_list (ok "[null]") = Some [ Json.Null ]);
  Alcotest.(check (option (float 0.))) "shape mismatch" None
    (Json.to_num (ok "[]"));
  Alcotest.(check (option string)) "member on non-object" None
    (Option.bind (Json.member "k" (ok "[]")) Json.to_str)

(* [parse_file] is what nbhash_cli stats/trace --from reads through: a
   missing path must come back as a printable [Error] (the CLI turns
   it into exit 1 + stderr), not an exception; a real file round-trips. *)
let test_parse_file () =
  (match Json.parse_file "/nonexistent/nbhash-no-such-file.json" with
  | Error msg ->
    Alcotest.(check bool) "error names the path" true
      (String.length msg > 0)
  | Ok _ -> Alcotest.fail "missing file parsed");
  let path = Filename.temp_file "nbhash_json_test" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"a\":[1,2,3],\"b\":\"x\"}";
      close_out oc;
      match Json.parse_file path with
      | Ok v ->
        Alcotest.(check (option (list string)))
          "round-trip keys"
          (Some [ "a"; "b" ])
          (Json.keys v)
      | Error msg -> Alcotest.failf "parse_file failed on real file: %s" msg);
  let bad = Filename.temp_file "nbhash_json_test" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove bad with Sys_error _ -> ())
    (fun () ->
      let oc = open_out bad in
      output_string oc "{not json";
      close_out oc;
      match Json.parse_file bad with
      | Error msg ->
        (* Parse errors are prefixed with the path for CLI messages. *)
        Alcotest.(check bool) "parse error carries the path" true
          (String.length msg > String.length bad
          && String.sub msg 0 (String.length bad) = bad)
      | Ok _ -> Alcotest.fail "malformed file parsed")

(* The encoder pair every emitter shares: any byte string escapes to
   a literal the reader decodes back unchanged (control characters
   included), and numbers print short, round-trip, and stay finite. *)
let test_encode () =
  let all_bytes = String.init 256 Char.chr in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%S round-trips" s)
        true
        (ok ("\"" ^ Json.escape s ^ "\"") = Json.Str s))
    [ ""; "plain"; "q\"uote\\slash"; "tab\tnl\ncr\r"; "\000\031\127";
      String.sub all_bytes 0 128 ];
  Alcotest.(check string) "short escapes" {|\n\r\t\"\\|}
    (Json.escape "\n\r\t\"\\");
  Alcotest.(check string) "other controls use \\u" {|\u0000\u001f|}
    (Json.escape "\000\031");
  List.iter
    (fun (x, want) -> Alcotest.(check string) want want (Json.number x))
    [ (3., "3"); (-0.5, "-0.5"); (1.5, "1.5"); (0.1, "0.10000000000000001");
      (1e20, "1e+20"); (Float.nan, "0"); (Float.infinity, "0") ];
  List.iter
    (fun x ->
      Alcotest.(check bool) "number parses back" true
        (ok (Json.number x) = Json.Num x))
    [ 0.; 42.; 1.5; 0.1; 1e20; -7.25; 123456789.125 ]

let suite =
  [
    ( "json",
      [
        Alcotest.test_case "scalars" `Quick test_scalars;
        Alcotest.test_case "string escapes" `Quick test_escapes;
        Alcotest.test_case "arrays and objects" `Quick test_structures;
        Alcotest.test_case "malformed input rejected" `Quick test_rejects;
        Alcotest.test_case "accessors" `Quick test_accessors;
        Alcotest.test_case "escape and number encode" `Quick test_encode;
        Alcotest.test_case "parse_file errors and round-trip" `Quick
          test_parse_file;
      ] );
  ]
