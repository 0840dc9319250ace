(* kv-inproc: the KV request path in process, with no sockets. Two
   domains each run a closed loop of requests through the wire codec
   and the server's store: encode and decode the request (Protocol),
   execute it on a Backend (lockfree, 2 shards, its default policy, as
   `nbhash_cli serve` builds it), encode and decode the response. The
   mix is 80% GET, 15% PUT, 5% DEL, uniform over 2^16 keys prefilled
   to half, 32-byte values. Domain [d] owns the keys [k] with
   [k land 1 = d] and models them, so every reply is predicted. *)

open Common
module P = Nbhash_server.Protocol
module B = Nbhash_server.Backend
module X = Nbhash_util.Xoshiro

let keys = Kvwl.keys
let round_ns = 100_000_000

type model = { present : Bytes.t; ver : int array }

type t = {
  backend : B.t;
  handles : B.handle array;  (* handle [d] is only ever used by worker [d] *)
  models : model array;
  rngs : X.t array;
}

let build ~seed =
  let backend = B.create ~kind:B.Lockfree ~shards:2 ~max_threads:2 () in
  let t =
    {
      backend;
      handles = Array.init 2 (fun _ -> B.register backend);
      models = Array.init 2 (fun _ -> { present = Bytes.make keys '\000'; ver = Array.make keys 0 });
      rngs = Array.init 2 (fun d -> X.create ((seed * 104729) + d));
    }
  in
  let order = shuffled ~seed keys in
  for j = 0 to (keys / 2) - 1 do
    let k = order.(j) in
    let m = t.models.(k land 1) in
    B.put t.handles.(0) k (Kvwl.value k 0);
    Bytes.set m.present k '\001'
  done;
  t

let close t =
  Array.iter B.unregister t.handles;
  B.close t.backend

(* The server's execution of a decoded request (Server.perform). *)
let perform h (req : P.request) : P.response =
  match req with
  | P.Get k -> ( match B.get h k with Some v -> P.Value v | None -> P.Not_found)
  | P.Put (k, v) ->
    B.put h k v;
    P.Ok
  | P.Del k -> if B.del h k then P.Ok else P.Not_found
  | _ -> P.Err "unexpected request"

(* One domain's share of a round; every request is timed. Returns
   requests done, elapsed ns and mismatched replies. *)
let worker t (a : Setwl.acc) ~barrier d =
  let h = t.handles.(d) and m = t.models.(d) and rng = t.rngs.(d) in
  let lat = a.Setwl.lat.(d) and kinds = a.Setwl.kinds.(d) in
  let ops = ref 0 and bad = ref 0 in
  Nbhash_workload.Barrier.wait barrier;
  let t0 = now () in
  let deadline = t0 + round_ns in
  let t_end = ref t0 in
  while !t_end < deadline do
    let r = X.below rng 20 and k = (X.below rng (keys / 2) lsl 1) lor d in
    let present = Bytes.get m.present k = '\001' in
    let kind, req, want =
      if r < 16 then (0, P.Get k, if present then P.Value (Kvwl.value k m.ver.(k)) else P.Not_found)
      else if r < 19 then begin
        let v = m.ver.(k) + 1 in
        m.ver.(k) <- v;
        Bytes.set m.present k '\001';
        (1, P.Put (k, Kvwl.value k v), P.Ok)
      end
      else begin
        Bytes.set m.present k '\000';
        (2, P.Del k, if present then P.Ok else P.Not_found)
      end
    in
    let t1 = now () in
    let got =
      match P.request_of_payload (P.request_to_payload req) with
      | Ok decoded -> P.response_of_payload (P.response_to_payload (perform h decoded))
      | Error msg -> Error msg
    in
    let t2 = now () in
    Hist.add lat (t2 - t1);
    if a.Setwl.traced then Hist.add kinds.(kind) (t2 - t1);
    if got <> Ok want then incr bad;
    incr ops;
    t_end := t2
  done;
  (!ops, !t_end - t0, !bad)

let pass t (a : Setwl.acc) =
  let barrier = Nbhash_workload.Barrier.create 2 in
  let (o0, e0, b0), (o1, e1, b1) = par2 (worker t a ~barrier) in
  attempt (o0 + o1);
  if b0 + b1 > 0 then fail ~n:(b0 + b1) "kv-inproc: %d replies differ from the model" (b0 + b1);
  Setwl.note_round a 0 ~ops:(o0 + o1) ~rate:(float_of_int (o0 + o1) /. s_of_ns (max e0 e1))

(* The ledger: the store holds exactly the keys the models hold, and
   its invariants hold. *)
let check t =
  attempt 2;
  let want =
    Array.fold_left
      (fun acc m ->
        let n = ref 0 in
        Bytes.iter (fun c -> if c = '\001' then incr n) m.present;
        acc + !n)
      0 t.models
  in
  let got = B.cardinal t.backend in
  check (got = want) "kv-inproc cardinal %d, models say %d" got want;
  match B.check_invariants t.backend with
  | () -> ()
  | exception Failure msg -> fail "kv-inproc invariants: %s" msg

let buckets t =
  List.fold_left (fun acc i -> acc + (B.inspect_shard t.backend i).Nbhash.Hashset_intf.buckets) 0 [ 0; 1 ]
