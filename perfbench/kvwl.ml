(* The socket path, driven in the traced mode: `nbhash_cli serve` in
   its own process with its default settings (lockfree backend, 2
   shards, 2 workers, metrics endpoint on), driven from this process by
   one domain over 2 protocol-v2 connections multiplexed with select(2).

   Connection [c] owns the keys [k] with [k land 1 = c] and keeps a
   model of them, so every GET, PUT and DEL reply is predicted exactly:
   requests on one connection are processed in order, and no other
   connection touches its keys. Request ids are echoed and checked.

   closed loop each connection sends its next request as soon as the
               previous reply is in.
   open loop   2000 req/s in total; each latency is timed from the
               request's due time, so stalls are charged to the
               requests they delay. *)

open Common
module P = Nbhash_server.Protocol
module X = Nbhash_util.Xoshiro

let keys = 1 lsl 16
let open_rate = 2000.
let fifo_cap = 1 lsl 16

type server = { pid : int; port : int; mport : int }

(* Servers still running, killed on any exit path. *)
let live : server list ref = ref []

let kill_all () =
  List.iter
    (fun s ->
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let read_port path =
  match In_channel.with_open_text path In_channel.input_all with
  | s when String.length s > 0 && s.[String.length s - 1] = '\n' ->
    int_of_string_opt (String.trim s)
  | _ -> None
  | exception Sys_error _ -> None

let spawn ~cli ~tmp =
  let pf = Filename.concat tmp "kv.port"
  and mf = Filename.concat tmp "metrics.port" in
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ pf; mf ];
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log =
    Unix.openfile (Filename.concat tmp "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--port-file"; pf; "--metrics-port-file"; mf |]
      null log log
  in
  Unix.close null;
  Unix.close log;
  let deadline = now () + 30_000_000_000 in
  let rec wait () =
    match (read_port pf, read_port mf) with
    | Some port, Some mport ->
      let s = { pid; port; mport } in
      live := s :: !live;
      s
    | _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "server exited during start-up (see its log)");
      if now () > deadline then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        failwith "server did not publish its ports"
      end;
      Unix.sleepf 0.001;
      wait ()
  in
  wait ()

(* --- connections and their models --- *)

type conn = {
  fd : Unix.file_descr;
  part : int;  (* owns keys with [k land 1 = part] *)
  rng : X.t;
  present : Bytes.t;  (* model: key present? *)
  ver : int array;  (* model: version of the stored value *)
  mutable next_id : int;
  (* in-flight requests, oldest first *)
  q_id : int array;
  q_due : int array;
  q_send : int array;
  q_op : int array;
  q_key : int array;
  q_exp : int array;
  mutable head : int;
  mutable tail : int;
  mutable last_recv : int;
  mutable inserts : int;  (* PUTs of absent keys *)
}

let value k ver = Printf.sprintf "%016x%016x" k ver

let connect ~port ~seed part =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  P.write_request fd P.Hello;
  (match P.read_response fd with
  | Ok (P.Value ack) when ack = P.hello_ack -> ()
  | _ -> failwith "server refused protocol revision 2");
  {
    fd;
    part;
    rng = X.create ((seed * 104729) + part);
    present = Bytes.make keys '\000';
    ver = Array.make keys 0;
    next_id = 1;
    q_id = Array.make fifo_cap 0;
    q_due = Array.make fifo_cap 0;
    q_send = Array.make fifo_cap 0;
    q_op = Array.make fifo_cap 0;
    q_key = Array.make fifo_cap 0;
    q_exp = Array.make fifo_cap 0;
    head = 0;
    tail = 0;
    last_recv = 0;
    inserts = 0;
  }

let in_flight cn = cn.tail - cn.head

exception Conn_lost of string

(* Ops: 0 GET, 1 PUT, 2 DEL. The expectation: GET the stored version
   or -1; PUT nothing; DEL 1 if the key was present. *)
let send cn ~op ~k ~due =
  if in_flight cn >= fifo_cap then raise (Conn_lost "client queue overflow");
  let present = Bytes.get cn.present k = '\001' in
  let req, exp =
    match op with
    | 0 -> (P.Get k, if present then cn.ver.(k) else -1)
    | 1 ->
      let v = cn.ver.(k) + 1 in
      cn.ver.(k) <- v;
      if not present then cn.inserts <- cn.inserts + 1;
      Bytes.set cn.present k '\001';
      (P.Put (k, value k v), 0)
    | _ ->
      Bytes.set cn.present k '\000';
      (P.Del k, if present then 1 else 0)
  in
  let id = cn.next_id in
  cn.next_id <- (id + 1) land 0x3fff_ffff;
  let slot = cn.tail land (fifo_cap - 1) in
  cn.q_id.(slot) <- id;
  cn.q_due.(slot) <- due;
  cn.q_op.(slot) <- op;
  cn.q_key.(slot) <- k;
  cn.q_exp.(slot) <- exp;
  cn.tail <- cn.tail + 1;
  let t = now () in
  cn.q_send.(slot) <- t;
  (try P.write_request_v2 cn.fd ~id req
   with Unix.Unix_error (e, _, _) -> raise (Conn_lost (Unix.error_message e)));
  t

(* The measurement a run keeps: latency from due time, how late the
   client sent (open loop) or its turnaround from a reply to the next
   send (closed loop), service time (send to reply), and completions
   of requests due inside the window. *)
type rec_ = {
  lat : Hist.t;
  late : Hist.t;
  service : Hist.t;
  mutable done_in_window : int;
  mutable last_done : int;  (* when the last recorded reply arrived *)
  rounds : int array;  (* replies that arrived in each round of the window *)
  from : int;  (* requests due from here on are recorded *)
}

let round_ns = 500_000_000

let recorder ~from ~until =
  {
    lat = Hist.create ();
    late = Hist.create ();
    service = Hist.create ();
    done_in_window = 0;
    last_done = from;
    rounds = Array.make (max 0 ((until - from) / round_ns)) 0;
    from;
  }

let recv cn r =
  match P.read_response_v2 cn.fd with
  | Error msg -> raise (Conn_lost msg)
  | Ok (id, resp) ->
    let t = now () in
    if in_flight cn = 0 then raise (Conn_lost "reply with nothing in flight");
    let slot = cn.head land (fifo_cap - 1) in
    cn.head <- cn.head + 1;
    cn.last_recv <- t;
    attempt 1;
    let k = cn.q_key.(slot) and exp = cn.q_exp.(slot) in
    if id <> cn.q_id.(slot) then fail "conn %d: reply id %d, want %d" cn.part id cn.q_id.(slot)
    else begin
      match (cn.q_op.(slot), resp) with
      | 0, P.Value v when exp >= 0 ->
        check (v = value k exp) "GET %d: wrong value %S" k v
      | 0, P.Not_found when exp < 0 -> ()
      | 1, P.Ok -> ()
      | 2, P.Ok when exp = 1 -> ()
      | 2, P.Not_found when exp = 0 -> ()
      | op, _ -> fail "op %d on key %d: unexpected reply (expectation %d)" op k exp
    end;
    let due = cn.q_due.(slot) and sent = cn.q_send.(slot) in
    if due >= r.from then begin
      Hist.add r.lat (t - due);
      Hist.add r.service (t - sent);
      r.done_in_window <- r.done_in_window + 1;
      r.last_done <- t;
      let i = (t - r.from) / round_ns in
      if i < Array.length r.rounds then r.rounds.(i) <- r.rounds.(i) + 1
    end

let draw cn =
  let r = X.below cn.rng 20 in
  let op = if r < 16 then 0 else if r < 19 then 1 else 2 in
  (op, (X.below cn.rng (keys / 2) lsl 1) lor cn.part)

let select_read conns timeout =
  match Unix.select (List.map (fun cn -> cn.fd) conns) [] [] timeout with
  | r, _, _ -> List.filter (fun cn -> List.mem cn.fd r) conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* Wait for every in-flight reply; a reply that never comes within
   10 s is a lost request. *)
let settle conns r =
  let deadline = now () + 10_000_000_000 in
  let pending () = List.exists (fun cn -> in_flight cn > 0) conns in
  while pending () && now () < deadline do
    List.iter (fun cn -> recv cn r) (select_read conns 0.1)
  done;
  List.iter
    (fun cn ->
      if in_flight cn > 0 then begin
        attempt (in_flight cn);
        fail ~n:(in_flight cn) "conn %d: %d replies never arrived" cn.part (in_flight cn)
      end)
    conns

(* Request [i] is due at [from + i * interval], on connection i mod 2. *)
let run_open conns ~from ~until r =
  let arr = Array.of_list conns in
  let interval = int_of_float (1e9 /. open_rate) in
  let i = ref 0 in
  let due () = from + (!i * interval) in
  while due () < until do
    let t = now () in
    if t >= due () then begin
      let cn = arr.(!i land 1) in
      let op, k = draw cn in
      let sent = send cn ~op ~k ~due:(due ()) in
      if due () >= r.from then Hist.add r.late (sent - due ());
      incr i
    end
    else
      List.iter (fun cn -> recv cn r) (select_read conns (s_of_ns (due () - t)))
  done;
  settle conns r

(* Closed loop: due = send time, and [late] records the client's own
   turnaround from a reply to the next send on that connection. *)
let run_closed conns ~until r =
  let go cn =
    let op, k = draw cn in
    send cn ~op ~k ~due:(now ())
  in
  List.iter (fun cn -> ignore (go cn)) conns;
  while now () < until do
    List.iter
      (fun cn ->
        recv cn r;
        if now () < until then begin
          let sent = go cn in
          if cn.last_recv >= r.from then Hist.add r.late (sent - cn.last_recv)
        end)
      (select_read conns 1.0)
  done;
  settle conns r

(* Prefill half the key space (a seeded choice), each key through its
   owning connection, pipelined in batches. *)
let prefill conns ~seed =
  let order = shuffled ~seed keys in
  let arr = Array.of_list conns in
  let r = recorder ~from:max_int ~until:max_int in
  let n = keys / 2 and batch = 256 in
  let i = ref 0 in
  while !i < n do
    for j = !i to min n (!i + batch) - 1 do
      let k = order.(j) in
      ignore (send arr.(k land 1) ~op:1 ~k ~due:0)
    done;
    settle conns r;
    i := !i + batch
  done

type session = { srv : server; conns : conn list }

let start ~cli ~tmp ~seed =
  let srv = spawn ~cli ~tmp in
  let conns = List.init 2 (connect ~port:srv.port ~seed) in
  prefill conns ~seed;
  { srv; conns }

(* Synchronous request on connection 0 with nothing in flight. *)
let call cn req =
  let id = cn.next_id in
  cn.next_id <- (id + 1) land 0x3fff_ffff;
  P.write_request_v2 cn.fd ~id req;
  match P.read_response_v2 cn.fd with
  | Ok (rid, resp) when rid = id -> resp
  | Ok (rid, _) -> raise (Conn_lost (Printf.sprintf "reply id %d, want %d" rid id))
  | Error msg -> raise (Conn_lost msg)

let model_cardinal conns =
  List.fold_left
    (fun acc cn ->
      let n = ref 0 in
      Bytes.iter (fun c -> if c = '\001' then incr n) cn.present;
      acc + !n)
    0 conns

(* The STAT ledger check: the server holds exactly the keys the models
   say it holds. *)
let check_cardinal s =
  attempt 1;
  let want = model_cardinal s.conns in
  match call (List.hd s.conns) P.Stat with
  | P.Value body -> (
    let j = Nbhash_util.Json.parse_exn body in
    match Option.bind (Nbhash_util.Json.member "cardinal" j) Nbhash_util.Json.to_num with
    | Some c -> check (int_of_float c = want) "server cardinal %.0f, models say %d" c want
    | None -> fail "STAT without cardinal: %s" body)
  | _ -> fail "STAT did not return a value"

(* DRAIN must be acknowledged and the server must exit 0. *)
let finish s =
  attempt 2;
  (match call (List.hd s.conns) P.Drain with
  | P.Ok -> ()
  | _ -> fail "DRAIN not acknowledged");
  List.iter (fun cn -> try Unix.close cn.fd with Unix.Unix_error _ -> ()) s.conns;
  let deadline = now () + 30_000_000_000 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.srv.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.005;
      wait ()
    | 0, _ -> fail "server did not exit after DRAIN"
    | _, Unix.WEXITED 0 -> live := List.filter (fun x -> x != s.srv) !live
    | _, _ ->
      live := List.filter (fun x -> x != s.srv) !live;
      fail "server exited abnormally after DRAIN"
  in
  wait ()

(* The same 2 kHz schedule with no server: how late the machine alone
   wakes a sleeper (the floor under the open loop's lateness). *)
let sleep_schedule ~seconds =
  let h = Hist.create () in
  let interval = int_of_float (1e9 /. open_rate) in
  let from = now () in
  let n = int_of_float (seconds *. open_rate) in
  for i = 1 to n do
    let due = from + (i * interval) in
    let t = ref (now ()) in
    while !t < due do
      (try ignore (Unix.select [] [] [] (s_of_ns (due - !t)))
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      t := now ()
    done;
    Hist.add h (!t - due)
  done;
  h
