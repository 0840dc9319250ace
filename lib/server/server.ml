(* nbhash_server: the sharded KV service.

   One listening socket; [workers] domains each run a blocking
   accept/serve loop (accept(2) on a shared fd is safe on every
   platform we target), so up to [workers] connections are served
   concurrently and the rest queue in the listen backlog. Each worker
   registers one Backend handle bundle at startup — per-domain, as the
   wait-free map's announce protocol requires — and serves its
   connection request-by-request: read frame, decode, execute, reply.

   Observability: requests, connections and protocol errors feed the
   ambient telemetry probe (server_request/server_conn/server_error
   counters and the server_request_ns span histogram), and the Backend
   registered per-shard health gauges and watchdog sources at
   creation, so a Metrics_server started alongside exposes the whole
   picture with no extra wiring.

   Graceful shutdown (the DRAIN opcode, or [stop]): new connections
   stop being accepted, in-flight requests run to completion (workers
   check the stopping flag only between requests), any in-flight
   migration is driven to completion by the draining thread, and open
   connections are shut down for reading — which unblocks workers
   parked in read_frame with a clean EOF while letting their pending
   writes finish. Acknowledged writes are readable from the backend
   after [wait] returns: nothing is torn down but the sockets. *)

module Atomic = Nbhash_util.Nb_atomic
module Tm = Nbhash_telemetry
module Ev = Nbhash_telemetry.Event

type config = {
  addr : string;
  port : int;  (** 0 = pick a free port; the bound port is {!port} *)
  backend : Backend.kind;
  shards : int;
  workers : int;
  max_frame : int;
  policy : Nbhash.Policy.t option;
  slow_threshold_ns : int option;
      (** slow-request capture threshold; [None] = rolling p999
          estimate, [Some 0] captures every attributed request *)
  slow_capacity : int;  (** slow-request ring size *)
  slow_log : string option;  (** append captures as JSON lines here *)
}

let default_config =
  {
    addr = "127.0.0.1";
    port = 0;
    backend = Backend.Lockfree;
    shards = 2;
    workers = 2;
    max_frame = Protocol.default_max_frame;
    policy = None;
    slow_threshold_ns = None;
    slow_capacity = 64;
    slow_log = None;
  }

type t = {
  config : config;
  port : int;
  inet : Unix.inet_addr;  (* config.addr, resolved once at start *)
  backend : Backend.t;
  listen_fd : Unix.file_descr;
  stopping : bool Atomic.t;
  conns : Unix.file_descr list Atomic.t;
  slowlog : Slowlog.t;
  slow_route : Tm.Metrics_server.route_registration;
  profile_view : Tm.Profile.view_registration;
  mutable domains : unit Domain.t list
      [@nbhash.plain_ok
        "written once by the booting thread before any worker can observe \
         [t], then only read at drain/join time by that same thread"];
}

let port t = t.port
let backend t = t.backend
let config t = t.config
let slowlog t = t.slowlog

let conn_track t fd =
  let rec go () =
    let cur = Atomic.get t.conns in
    if not (Atomic.compare_and_set t.conns cur (fd :: cur)) then go ()
  in
  go ()

let conn_untrack t fd =
  let rec go () =
    let cur = Atomic.get t.conns in
    let next = List.filter (fun f -> f != fd) cur in
    if not (Atomic.compare_and_set t.conns cur next) then go ()
  in
  go ()

(* Flip to stopping and wake everything that blocks: the listener (so
   accepting workers exit) and every tracked connection (shutdown for
   reading unblocks a worker parked in read_frame with EOF, while a
   response still being written goes out). Idempotent. *)
let initiate_stop t =
  if Atomic.compare_and_set t.stopping false true then begin
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
     with Unix.Unix_error _ -> ());
    (* Fallback for stacks where shutdown on a listening socket is a
       no-op (see Metrics_server.stop): connect once per worker so
       every parked accept wakes. *)
    for _ = 1 to t.config.workers do
      try
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () -> Unix.connect fd (Unix.ADDR_INET (t.inet, t.port)))
      with Unix.Unix_error _ | Sys_error _ -> ()
    done;
    List.iter
      (fun fd ->
        try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
        with Unix.Unix_error _ -> ())
      (Atomic.get t.conns)
  end

(* STAT carries the protocol revision and, when the probe records,
   per-opcode service-time percentiles — the server half of the load
   generator's client/server p999 join. *)
let stat_body t =
  let ops =
    String.concat ","
      (List.map
         (fun op ->
           match Stages.op_summary op with
           | None -> Printf.sprintf "\"%s\":null" (Stages.op_name op)
           | Some (n, p50, p99, p999) ->
             Printf.sprintf
               "\"%s\":{\"n\":%d,\"p50_ns\":%.0f,\"p99_ns\":%.0f,\"p999_ns\":%.0f}"
               (Stages.op_name op) n p50 p99 p999)
         [ Stages.Get; Stages.Put; Stages.Del ])
  in
  Printf.sprintf
    "{\"backend\":\"%s\",\"shards\":%d,\"workers\":%d,\"cardinal\":%d,\"proto_rev\":2,\"ops\":{%s}}"
    (Backend.kind_name (Backend.kind t.backend))
    (Backend.shard_count t.backend)
    t.config.workers
    (Backend.cardinal t.backend)
    ops

(* Perform one decoded request — the shard stage, response writing
   excluded so the write stage can be timed separately. Returns the
   response and [true] to keep serving the connection. DRAIN finishes
   the shards' migrations with the worker's own handle bundle before
   acking, then brings the whole server down. *)
let perform t h (req : Protocol.request) : Protocol.response * bool =
  match req with
  | Get k ->
    ((match Backend.get h k with Some v -> Value v | None -> Not_found), true)
  | Put (k, v) ->
    Backend.put h k v;
    (Ok, true)
  | Del k -> ((if Backend.del h k then Ok else Not_found), true)
  | Ping -> (Ok, true)
  | Hello -> (Value Protocol.hello_ack, true)
  | Stat -> (Value (stat_body t), true)
  | Force_resize shard ->
    if shard < 0 || shard >= Backend.shard_count t.backend then
      ( Err
          (Printf.sprintf "shard %d out of range [0, %d)" shard
             (Backend.shard_count t.backend)),
        true )
    else begin
      Backend.force_resize h ~shard ~grow:true;
      (Ok, true)
    end
  | Drain ->
    Backend.drain h;
    initiate_stop t;
    (Ok, false)

(* The shard a keyed request is routed to, for the slow-request
   capture's table_view attachment; -1 when no shard owns it. *)
let shard_of_request t (req : Protocol.request) =
  match req with
  | Get k | Put (k, _) | Del k -> Backend.shard_of_key t.backend k
  | Force_resize shard -> shard
  | Ping | Drain | Stat | Hello -> -1

let key_of_request (req : Protocol.request) =
  match req with
  | Get k | Put (k, _) | Del k -> k
  | Ping | Drain | Stat | Hello | Force_resize _ -> -1

let write_reply fd rev ~id resp =
  match (rev : Protocol.rev) with
  | V1 -> Protocol.write_response fd resp
  | V2 -> Protocol.write_response_v2 fd ~id resp

let serve_connection t h fd =
  Tm.Global.emit Ev.Server_conn;
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
  let ctx = Stages.make () in
  let rev = ref Protocol.V1 in
  let continue = ref true in
  while !continue do
    Stages.frame_start ctx;
    let frame, t_first =
      Protocol.read_frame_timed ~max_frame:t.config.max_frame
        ~timed:(Stages.enabled ctx) fd
    in
    match frame with
    | Ok None ->
      Stages.frame_abandoned ctx;
      continue := false
    | Error msg ->
      (* Framing is lost (truncated or oversized): answer with a
         protocol error, then drop the connection — there is no way
         back in sync. *)
      Stages.frame_abandoned ctx;
      Tm.Global.emit Ev.Server_error;
      (try write_reply fd !rev ~id:0 (Err msg) with Unix.Unix_error _ -> ());
      continue := false
    | Ok (Some payload) -> (
      Stages.read_done ctx ~t_first;
      let id, decoded =
        match !rev with
        | Protocol.V1 -> (0, Protocol.request_of_payload payload)
        | Protocol.V2 ->
          (Protocol.v2_frame_id payload, Protocol.request_of_payload_v2 payload)
      in
      Stages.decode_done ctx;
      (match decoded with
      | Error msg ->
        (* The frame was well-delimited, only its payload is bad: the
           connection stays usable. *)
        Tm.Global.emit Ev.Server_error;
        write_reply fd !rev ~id (Err msg);
        Stages.abandon_request ctx
      | Ok req ->
        Tm.Global.emit Ev.Server_request;
        let op = Stages.opclass_of_request req in
        Stages.shard_start ctx;
        let resp, keep = perform t h req in
        Stages.shard_done ctx;
        write_reply fd !rev ~id resp;
        Stages.finish ctx ~op;
        (* HELLO's ack goes out in the revision the client sent it
           under; the switch takes effect from the next frame. *)
        (match req with Protocol.Hello -> rev := Protocol.V2 | _ -> ());
        if Stages.enabled ctx then
          Slowlog.note t.slowlog ~op:(Stages.op_name op)
            ~key:(key_of_request req) ~shard:(shard_of_request t req)
            ~total_ns:(Stages.total_ns ctx) ~read_ns:(Stages.read_ns ctx)
            ~decode_ns:(Stages.decode_ns ctx) ~shard_ns:(Stages.shard_ns ctx)
            ~help_ns:(Stages.help_ns ctx) ~write_ns:(Stages.write_ns ctx);
        continue := keep);
      if Atomic.get t.stopping then continue := false)
  done

let worker_loop t =
  let h = Backend.register t.backend in
  let continue = ref true in
  while !continue do
    match Unix.accept t.listen_fd with
    | fd, _ ->
      if Atomic.get t.stopping then begin
        (try Unix.close fd with Unix.Unix_error _ -> ());
        continue := false
      end
      else begin
        conn_track t fd;
        (* initiate_stop may have snapshotted [conns] between the
           check above and conn_track, in which case it never saw this
           fd: re-check and shut the read side down ourselves
           (mirroring initiate_stop) so the worker cannot park in
           read_frame past the stop. Any response already in flight
           still goes out; the reader just sees EOF next. *)
        if Atomic.get t.stopping then
          (try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
           with Unix.Unix_error _ -> ());
        (try serve_connection t h fd
         with Unix.Unix_error _ | Sys_error _ -> ());
        conn_untrack t fd;
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if Atomic.get t.stopping then continue := false
      end
    | exception Unix.Unix_error _ ->
      (* initiate_stop shut the listener down (or accept failed hard);
         either way this worker is done. *)
      continue := false
  done;
  Backend.unregister h

let start ?(config = default_config) () =
  if config.shards < 1 then invalid_arg "Server.start: shards < 1";
  if config.workers < 1 then invalid_arg "Server.start: workers < 1";
  (* A client that disconnects while a response is being written must
     surface as EPIPE in the per-connection handlers, not as a
     process-killing SIGPIPE. *)
  Nbhash_telemetry.Metrics_server.ignore_sigpipe ();
  let backend =
    Backend.create ?policy:config.policy ~kind:config.backend
      ~shards:config.shards
      ~max_threads:(config.workers + 8)
      ()
  in
  let listen_fd, port =
    Nbhash_telemetry.Metrics_server.listen_tcp ~backlog:64 ~addr:config.addr
      ~port:config.port ()
  in
  (* listen_tcp already resolved (or rejected) the same addr, so this
     cannot fail here; storing the inet keeps initiate_stop's wake
     fallback from re-resolving — Failure-free — on the stop path. *)
  let inet = Nbhash_telemetry.Metrics_server.resolve_inet config.addr in
  let slowlog =
    Slowlog.create ~capacity:config.slow_capacity
      ?threshold_ns:config.slow_threshold_ns ?log:config.slow_log
      ~inspect:(fun shard ->
        if shard >= 0 && shard < Backend.shard_count backend then
          Some (Backend.inspect_shard backend shard)
        else None)
      ()
  in
  (* Published through the metrics endpoint like the gauges: any
     Metrics_server running in this process serves /slow.json. *)
  let slow_route =
    Tm.Metrics_server.register_route ~path:"/slow.json" (fun () ->
        (200, "application/json", Slowlog.to_json slowlog))
  in
  (* The per-shard table views published under /profile.json: the
     contention report names the hot site, these say which shard's
     table (size, skew, migration state) it was hot in. *)
  let profile_view =
    Tm.Profile.register_view ~name:"kv_shards" (fun () ->
        let shard i =
          let v = Backend.inspect_shard backend i in
          Printf.sprintf
            "{\"shard\":%d,\"buckets\":%d,\"cardinal\":%d,\"load_factor\":%s,\"max_depth\":%d,\"frozen_buckets\":%d,\"migrating\":%b}"
            i v.Nbhash.Hashset_intf.buckets v.Nbhash.Hashset_intf.cardinal
            (Nbhash_util.Json.number
               v.Nbhash.Hashset_intf.load_factor)
            v.Nbhash.Hashset_intf.max_depth
            v.Nbhash.Hashset_intf.frozen_buckets
            v.Nbhash.Hashset_intf.migrating
        in
        "["
        ^ String.concat ","
            (List.init (Backend.shard_count backend) shard)
        ^ "]")
  in
  let t =
    {
      config;
      port;
      inet;
      backend;
      listen_fd;
      stopping = Atomic.make false;
      conns = Atomic.make [];
      slowlog;
      slow_route;
      profile_view;
      domains = [];
    }
  in
  t.domains <-
    List.init config.workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

(* Block until every worker has exited (i.e. until a DRAIN request or
   [stop] brought the server down), then release the listener and the
   backend's gauge/watchdog registrations. The backend's tables stay
   readable — that is what "restart-less drain loses no acknowledged
   write" means. *)
let wait t =
  List.iter Domain.join t.domains;
  t.domains <- [];
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  Tm.Metrics_server.unregister_route t.slow_route;
  Tm.Profile.unregister_view t.profile_view;
  Slowlog.close t.slowlog;
  Backend.close t.backend

(* Programmatic shutdown with the same drain guarantee as the DRAIN
   opcode: finish migrations first, then stop and wait. *)
let stop t =
  let h = Backend.register t.backend in
  Backend.drain h;
  Backend.unregister h;
  initiate_stop t;
  wait t
