(* A minimal HTTP/1.1 observability endpoint on stdlib Unix sockets,
   run on its own domain so scraping never borrows a workload thread.

   Routes:
     /metrics        OpenMetrics text (counters, span histograms, gauges)
     /snapshot.json  ambient-probe snapshot with the bench meta block
     /health         watchdog verdict: 200 when no announced operation
                     is stalled, 503 with the stall list otherwise
     /trace.json     Chrome trace-event JSON of the active flight
                     recorder; 404 when tracing is off
     /profile.json   ranked contended sites, false-sharing scores and
                     registered table views from the active profiler;
                     404 when profiling is off

   Deliberately minimal: GET only, one request per connection
   (Connection: close), no keep-alive, no TLS — the intended client is
   curl, a Prometheus scraper on localhost, or nbhash_cli top. The
   accept loop handles one request at a time; a scrape is a few
   milliseconds, and serializing scrapes is what makes the exporter's
   monotone accumulators safe.

   The watchdog passed to [start] (or created by it) becomes owned by
   the server domain: watchdogs are single-owner, so the caller must
   not poll it elsewhere. Graceful shutdown: [stop] raises a flag and
   closes the listening socket, which wakes the blocked accept. *)

module Atomic = Nbhash_util.Nb_atomic

type t = {
  port : int;
  addr : string;
  stopping : bool Atomic.t;
  listen_fd : Unix.file_descr;
  domain : unit Domain.t;
}

let port t = t.port

exception Bind_error of string

(* Writing to a peer that already closed its end raises SIGPIPE, whose
   default action kills the whole process before any Unix_error
   handler can run; every server/client entry point that writes to
   sockets calls this first so broken pipes surface as Unix_error
   EPIPE instead. No-op on platforms without the signal. *)
let ignore_sigpipe () =
  try ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore)
  with Invalid_argument _ | Sys_error _ -> ()

(* Resolve a host string to an IPv4 address: dotted-quad fast path,
   getaddrinfo for names like "localhost". Raises [Failure] with a
   one-line message on an unresolvable host — never a bare Unix_error
   — so callers can catch it next to their other [Failure] paths. *)
let resolve_inet host =
  match Unix.inet_addr_of_string host with
  | inet -> inet
  | exception Failure _ -> (
    let candidates =
      try
        Unix.getaddrinfo host ""
          [ Unix.AI_FAMILY Unix.PF_INET; Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
      with Unix.Unix_error _ | Failure _ | Not_found -> []
    in
    match
      List.find_map
        (fun ai ->
          match ai.Unix.ai_addr with
          | Unix.ADDR_INET (inet, _) -> Some inet
          | Unix.ADDR_UNIX _ -> None)
        candidates
    with
    | Some inet -> inet
    | None -> failwith (Printf.sprintf "cannot resolve host %S" host))

(* Shared TCP-listener setup (this server and the KV server): create,
   set SO_REUSEADDR before bind so restarts never trip over
   TIME_WAIT, bind (port 0 = "pick a free port"), listen, and return
   the socket with the actually-bound port. A port already in use is
   an ordinary operational error, reported as [Bind_error] with a
   one-line message so CLI callers can print it and exit nonzero
   instead of dumping a Unix_error backtrace. *)
let listen_tcp ?(backlog = 16) ~addr ~port () =
  let inet =
    try resolve_inet addr with Failure msg -> raise (Bind_error msg)
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (inet, port));
     Unix.listen fd backlog
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     (match e with
     | Unix.Unix_error (Unix.EADDRINUSE, _, _) ->
       raise
         (Bind_error
            (Printf.sprintf "%s:%d is already in use (EADDRINUSE)" addr port))
     | Unix.Unix_error (Unix.EACCES, _, _) ->
       raise
         (Bind_error (Printf.sprintf "binding %s:%d refused (EACCES)" addr port))
     | e -> raise e));
  let bound_port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  (fd, bound_port)

let http_status = function
  | 200 -> "200 OK"
  | 404 -> "404 Not Found"
  | 500 -> "500 Internal Server Error"
  | 503 -> "503 Service Unavailable"
  | code -> string_of_int code ^ " Error"

(* Extensible GET routes, so subsystems outside the telemetry library
   (the KV server's /slow.json) can publish documents through the
   scrape endpoint without this module depending on them; a
   [Registry] instance. A registered path shadows nothing: built-in
   routes are matched first. Handlers return [(status, content_type, body)] and
   run on the server domain; one that raises answers 500 for that
   scrape only. *)

type route = { path : string; handler : unit -> int * string * string }
type route_registration = Registry.handle

let routes : route Registry.t = Registry.create ()

let register_route ~path handler = Registry.register routes { path; handler }
let unregister_route = Registry.unregister routes

(* Newest registration of a path wins. *)
let find_route path =
  List.fold_left
    (fun found r -> if r.path = path then Some r else found)
    None (Registry.to_list routes)

let write_response fd ~code ~content_type body =
  let head =
    Printf.sprintf
      "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
       close\r\n\r\n"
      (http_status code) content_type (String.length body)
  in
  let send s =
    let n = String.length s in
    let sent = ref 0 in
    while !sent < n do
      sent := !sent + Unix.write_substring fd s !sent (n - !sent)
    done
  in
  send head;
  send body

let health_body watchdog =
  match watchdog with
  | None -> (200, "ok (no watchdog)\n")
  | Some w -> (
    match Watchdog.poll w with
    | [] -> (200, "ok\n")
    | stalls ->
      ( 503,
        String.concat ""
          (List.map
             (fun s -> Format.asprintf "%a@." Watchdog.pp_stall s)
             stalls) ))

(* The snapshot's flight-recorder block: activity plus loss accounting
   (satellite of the slow-request work — overwrite-oldest used to be
   silent). Lanes listed only when they lost something. *)
let trace_block () =
  match Trace.active () with
  | None -> "{\"active\":false}"
  | Some tr ->
    let d = Trace.drops tr in
    let lanes =
      Trace.lane_drops tr |> Array.to_list
      |> List.filter (fun (_, o, t) -> o > 0 || t > 0)
      |> List.map (fun (i, o, t) ->
             Printf.sprintf "{\"lane\":%d,\"overwritten\":%d,\"torn\":%d}" i o
               t)
      |> String.concat ","
    in
    Printf.sprintf
      "{\"active\":true,\"written\":%d,\"dropped\":{\"overwritten\":%d,\"torn\":%d},\"lanes\":[%s]}"
      (Trace.written tr) d.Trace.overwritten d.Trace.torn lanes

let handle_request ~watchdog fd target =
  match target with
  | "/metrics" ->
    write_response fd ~code:200 ~content_type:Openmetrics.content_type
      (Openmetrics.render ())
  | "/snapshot.json" ->
    let probe = Global.get () in
    write_response fd ~code:200 ~content_type:"application/json"
      (Snapshot.to_json ~meta:(Meta.json ())
         ~families:(Labeled.families_json ())
         ~trace:(trace_block ())
         ~profile:(Profile.snapshot_block ~retries:(Probe.site_retries probe) ())
         (Probe.snapshot probe))
  | "/profile.json" -> (
    match Profile.active () with
    | Some p ->
      write_response fd ~code:200 ~content_type:"application/json"
        (Profile.json_body ~retries:(Probe.site_retries (Global.get ())) p)
    | None ->
      write_response fd ~code:404 ~content_type:"text/plain"
        "profiling is not active\n")
  | "/health" ->
    let code, body = health_body watchdog in
    write_response fd ~code ~content_type:"text/plain" body
  | "/trace.json" -> (
    match Trace.active () with
    | Some tr ->
      write_response fd ~code:200 ~content_type:"application/json"
        (Trace.to_chrome_string tr)
    | None ->
      write_response fd ~code:404 ~content_type:"text/plain"
        "tracing is not active\n")
  | target -> (
    match find_route target with
    | Some r ->
      let code, content_type, body =
        try r.handler ()
        with _ -> (500, "text/plain", "route handler failed\n")
      in
      write_response fd ~code ~content_type body
    | None ->
      write_response fd ~code:404 ~content_type:"text/plain" "not found\n")

(* Read up to the end of the request head; only the request line
   matters. Bounded read so a misbehaving client cannot hold the
   server: 8 KiB of headers or we answer anyway. *)
let read_request_line fd =
  let buf = Bytes.create 8192 in
  let filled = ref 0 in
  let done_ = ref false in
  (try
     while (not !done_) && !filled < Bytes.length buf do
       let n = Unix.read fd buf !filled (Bytes.length buf - !filled) in
       if n = 0 then done_ := true
       else begin
         filled := !filled + n;
         let s = Bytes.sub_string buf 0 !filled in
         if
           String.length s >= 4
           && (String.index_opt s '\n' <> None)
           && (let len = String.length s in
               String.sub s (len - 4) 4 = "\r\n\r\n"
               || String.sub s (len - 2) 2 = "\n\n")
         then done_ := true
         else if String.index_opt s '\n' <> None then
           (* We have the request line; headers may still be in
              flight, but we never read a body, so proceed. *)
           done_ := true
       end
     done
   with Unix.Unix_error _ -> ());
  let s = Bytes.sub_string buf 0 !filled in
  match String.index_opt s '\n' with
  | None -> None
  | Some i -> (
    let line = String.trim (String.sub s 0 i) in
    match String.split_on_char ' ' line with
    | [ "GET"; target; _version ] -> Some target
    | [ "GET"; target ] -> Some target
    | _ -> None)

let serve_connection ~watchdog fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      match read_request_line fd with
      | Some target -> handle_request ~watchdog fd target
      | None ->
        write_response fd ~code:404 ~content_type:"text/plain"
          "unsupported request\n")

let accept_loop ~watchdog ~stopping listen_fd =
  let continue = ref true in
  while !continue do
    match Unix.accept listen_fd with
    | fd, _ ->
      if Atomic.get stopping then begin
        (try Unix.close fd with Unix.Unix_error _ -> ());
        continue := false
      end
      else begin
        (try serve_connection ~watchdog fd
         with Unix.Unix_error _ | Sys_error _ -> ());
        if Atomic.get stopping then continue := false
      end
    | exception Unix.Unix_error _ ->
      (* stop closed the listening socket (or accept failed hard);
         either way the server is done. *)
      continue := false
  done

let start ?(addr = "127.0.0.1") ?(port = 0) ?watchdog () =
  ignore_sigpipe ();
  let listen_fd, bound_port = listen_tcp ~addr ~port () in
  let stopping = Atomic.make false in
  let domain =
    Domain.spawn (fun () -> accept_loop ~watchdog ~stopping listen_fd)
  in
  { port = bound_port; addr; stopping; listen_fd; domain }

let stop t =
  Atomic.set t.stopping true;
  (* Waking the blocked accept needs [shutdown], not [close]: on
     Linux, closing a socket another thread is blocked in accept(2) on
     does NOT interrupt the accept. shutdown(2) on the listening
     socket wakes it with EINVAL; the self-connection below is the
     belt-and-braces fallback for stacks where shutdown on a listening
     socket is a no-op. *)
  (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
   with Unix.Unix_error _ -> ());
  (try
     let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
     Fun.protect
       ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
       (fun () ->
         Unix.connect fd (Unix.ADDR_INET (resolve_inet t.addr, t.port)))
   with Unix.Unix_error _ | Sys_error _ | Failure _ -> ());
  Domain.join t.domain;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ())

(* Minimal matching client (nbhash_cli top, the test suite): one GET,
   [(status, body)] or [Error msg] on any socket-level failure. *)
let http_get ?(host = "127.0.0.1") ~port path =
  match
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect fd (Unix.ADDR_INET (resolve_inet host, port));
        let req =
          Printf.sprintf "GET %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n"
            path host
        in
        let n = String.length req in
        let sent = ref 0 in
        while !sent < n do
          sent := !sent + Unix.write_substring fd req !sent (n - !sent)
        done;
        let buf = Bytes.create 65536 in
        let b = Buffer.create 65536 in
        let rec drain () =
          let r = Unix.read fd buf 0 (Bytes.length buf) in
          if r > 0 then begin
            Buffer.add_subbytes b buf 0 r;
            drain ()
          end
        in
        drain ();
        Buffer.contents b)
  with
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | exception Failure msg -> Error msg
  | raw -> (
    (* "HTTP/1.1 <code> ...\r\n...\r\n\r\n<body>" *)
    match String.index_opt raw ' ' with
    | None -> Error "malformed response"
    | Some sp -> (
      let code =
        try int_of_string (String.trim (String.sub raw (sp + 1) 3))
        with _ -> 0
      in
      let rec body_from i =
        if i + 3 >= String.length raw then None
        else if String.sub raw i 4 = "\r\n\r\n" then Some (i + 4)
        else if String.sub raw i 2 = "\n\n" then Some (i + 2)
        else body_from (i + 1)
      in
      match body_from 0 with
      | None -> Error "malformed response (no header terminator)"
      | Some start ->
        Ok (code, String.sub raw start (String.length raw - start))))
