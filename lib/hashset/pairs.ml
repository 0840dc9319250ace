(* Copy-on-write (key, value) pair arrays: the bucket entries of
   Hashmap and Wf_hashmap. An array is immutable once published and
   free of duplicate keys; every update builds a fresh one. *)

let find pairs k =
  let n = Array.length pairs in
  let rec go i =
    if i >= n then None
    else begin
      let ki, v = pairs.(i) in
      if ki = k then Some (i, v) else go (i + 1)
    end
  in
  go 0

let put pairs k v =
  match find pairs k with
  | Some (i, _) ->
    let b = Array.copy pairs in
    b.(i) <- (k, v);
    b
  | None ->
    let n = Array.length pairs in
    let b = Array.make (n + 1) (k, v) in
    Array.blit pairs 0 b 0 n;
    b
[@@nbhash.plain_ok
  "copy-on-write: [b] is freshly allocated here and stays private until \
   published by a bucket CAS"]

let remove pairs i =
  let n = Array.length pairs in
  let b = Array.sub pairs 0 (n - 1) in
  if i < n - 1 then b.(i) <- pairs.(n - 1);
  b
[@@nbhash.plain_ok
  "copy-on-write: [b] is freshly allocated here and stays private until \
   published by a bucket CAS"]

let filter_mask pairs ~mask ~target =
  let keep (k, _) = k land mask = target in
  let count = ref 0 in
  Array.iter (fun p -> if keep p then incr count) pairs;
  if !count = Array.length pairs then pairs
  else begin
    let b = Array.make !count (0, snd pairs.(0)) in
    let j = ref 0 in
    Array.iter
      (fun p ->
        if keep p then begin
          b.(!j) <- p;
          incr j
        end)
      pairs;
    b
  end
[@@nbhash.plain_ok
  "copy-on-write: [b] is freshly allocated here and stays private until \
   published by a bucket CAS"]

(* The entry operations of Table_core.SLOT, for [include] in the maps'
   slot modules: an int key is its own hash. *)
module Keys = struct
  type 'v elt = int * 'v

  let split = filter_mask
  let merge = Array.append
  let hash ((k, _) : 'v elt) = k
  let same_key ((a, _) : 'v elt) ((b, _) : 'v elt) = a = b
end
