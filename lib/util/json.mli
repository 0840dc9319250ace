(** A minimal JSON reader for the repo's own tooling, plus the two
    encoding helpers every hand-written emitter shares.

    The telemetry and bench layers hand-encode their JSON
    ([Snapshot.to_json], the bench emitter, the trace exporter) with
    {!escape} and {!number}; {!parse} is the matching decoder, used by [tools/bench_compare] to diff two
    bench files and by the test suite to validate that the emitters
    produce well-formed documents. It accepts standard JSON (RFC 8259)
    with no extensions: unescaped control characters in strings are
    rejected, numbers must match the RFC grammar, and [\uXXXX] escapes
    are decoded to UTF-8 — surrogate pairs combine, unpaired
    surrogates become U+FFFD so the output is always valid UTF-8.
    Numbers become [float]. Not optimized and not streaming — bench
    files are a few hundred KB at most. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** fields in document order *)

val parse : string -> (t, string) result
(** [Error msg] carries a byte offset and a description. Trailing
    whitespace is allowed; any other trailing content is an error. *)

val parse_exn : string -> t
(** @raise Failure on invalid input. *)

val parse_file : string -> (t, string) result
(** Read and parse a whole file. I/O failures (missing, unreadable,
    truncated) come back as [Error] with a printable message, never as
    an exception. *)

(** Accessors; all return [None] on a shape mismatch. [member] returns
    the first binding of the key. *)

val member : string -> t -> t option
val to_num : t -> float option
val to_str : t -> string option
val to_list : t -> t list option
val keys : t -> string list option

(** {2 Encoding} *)

val escape : string -> string
(** The body of a JSON string literal (no surrounding quotes): double
    quote and backslash are backslash-escaped, newline, carriage return and tab use
    their short escapes, and every other control character below
    0x20 becomes a [\u00XX] escape. Bytes from 0x20 up pass through, so UTF-8
    input stays UTF-8. *)

val number : float -> string
(** A JSON number: integral values below 1e15 print bare (["3"]), the
    rest through [%.17g], which round-trips a double. A non-finite
    value, which JSON cannot carry, prints as ["0"]. *)
