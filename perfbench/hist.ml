(* Log-linear latency histogram over non-negative integer nanoseconds:
   values below 128 are counted exactly, larger ones in 128 linear
   sub-buckets per power of two, so a reported percentile is within
   0.4% of a recorded value. The sum and max are exact. Not thread
   safe: keep one per domain and [merge] after the join. *)

let sub_bits = 7
let sub = 1 lsl sub_bits
let size = sub + ((62 - sub_bits) * sub)

type t = {
  counts : int array;
  mutable n : int;
  mutable sum : int;
  mutable max : int;
}

let create () = { counts = Array.make size 0; n = 0; sum = 0; max = 0 }

let[@inline] index v =
  if v < sub then v
  else
    let shift = Nbhash_util.Bits.log2 v - sub_bits in
    ((shift + 1) lsl sub_bits) + ((v lsr shift) - sub)

let[@inline] add t v =
  let v = if v < 0 then 0 else v in
  let i = index v in
  t.counts.(i) <- t.counts.(i) + 1;
  t.n <- t.n + 1;
  t.sum <- t.sum + v;
  if v > t.max then t.max <- v

let merge_into ~dst src =
  Array.iteri (fun i c -> dst.counts.(i) <- dst.counts.(i) + c) src.counts;
  dst.n <- dst.n + src.n;
  dst.sum <- dst.sum + src.sum;
  if src.max > dst.max then dst.max <- src.max

let merge hs =
  let dst = create () in
  List.iter (fun h -> merge_into ~dst h) hs;
  dst

let count t = t.n
let mean t = if t.n = 0 then 0. else float_of_int t.sum /. float_of_int t.n

(* The [p]-th percentile, [p] in [0, 100]: the sample of rank
   ceil(p/100 * n), placed by linear interpolation inside its bucket.
   0 for an empty histogram. *)
let percentile t p =
  if t.n = 0 then 0.
  else
    let rank = max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int t.n))) in
    let rec go i seen =
      let c = t.counts.(i) in
      if seen + c >= rank || i = size - 1 then (i, seen) else go (i + 1) (seen + c)
    in
    let i, seen = go 0 0 in
    let lo, width =
      if i < sub then (float_of_int i, 1.)
      else
        let shift = (i lsr sub_bits) - 1 in
        (float_of_int (((i land (sub - 1)) + sub) lsl shift), float_of_int (1 lsl shift))
    in
    let frac = (float_of_int (rank - seen) -. 0.5) /. float_of_int (max 1 t.counts.(i)) in
    Float.min (lo +. (width *. frac)) (float_of_int t.max)
