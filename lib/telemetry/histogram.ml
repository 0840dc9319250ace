(* Lock-free log2-bucketed histogram for durations. Bucket [i] holds
   observations v with floor(log2 v) = i (v <= 1 lands in bucket 0),
   so the value range up to 2^63 ns needs 64 buckets. A histogram is a
   lane set (see [Lanes]) of 64 cells per domain shard, merged only at
   snapshot time; percentiles are read from the merged counts using
   each bucket's geometric midpoint as its representative value. *)

let buckets = 64

type t = Lanes.t

let make ?(name = "histogram") ?(shards = Lanes.default_lanes) () =
  Lanes.make ~name ~lanes:shards ~width:buckets ()

let[@inline] bucket_of v =
  if v <= 1 then 0 else min (buckets - 1) (Nbhash_util.Bits.log2 v)

let[@inline] observe t v = Lanes.add t (bucket_of v) 1

(* Merged per-bucket counts. *)
let counts t = Array.init buckets (Lanes.sum t)

let total t = Array.fold_left ( + ) 0 (counts t)

let reset = Lanes.reset

(* Representative value of bucket [i]: the midpoint of [2^i, 2^(i+1)).
   Computed in float to stay safe at the top buckets. *)
let representative i = 1.5 *. Float.ldexp 1. i

let percentile_of_counts counts total p =
  assert (total > 0 && p >= 0. && p <= 100.);
  let target =
    max 1 (int_of_float (Float.ceil (p /. 100. *. Float.of_int total)))
  in
  let rec go i seen =
    if i >= buckets then representative (buckets - 1)
    else begin
      let seen = seen + counts.(i) in
      if seen >= target then representative i else go (i + 1) seen
    end
  in
  go 0 0

(* Approximate summary from the merged buckets: every observation in a
   bucket is attributed its representative value, so mean/stddev and
   the percentiles are exact to within a factor of sqrt(2). [None]
   when nothing was observed. *)
let summary_of_counts counts : Nbhash_util.Stats.summary option =
  let n = Array.fold_left ( + ) 0 counts in
  if n = 0 then None
  else begin
    let fn = Float.of_int n in
    let sum = ref 0. in
    Array.iteri
      (fun i c -> sum := !sum +. (Float.of_int c *. representative i))
      counts;
    let mean = !sum /. fn in
    let sq = ref 0. in
    Array.iteri
      (fun i c ->
        let d = representative i -. mean in
        sq := !sq +. (Float.of_int c *. d *. d))
      counts;
    let stddev = if n < 2 then 0. else sqrt (!sq /. Float.of_int (n - 1)) in
    let first = ref (buckets - 1) and last = ref 0 in
    Array.iteri
      (fun i c ->
        if c > 0 then begin
          if i < !first then first := i;
          if i > !last then last := i
        end)
      counts;
    Some
      {
        Nbhash_util.Stats.n;
        mean;
        stddev;
        min = Float.ldexp 1. !first;
        max = Float.ldexp 1. (!last + 1) -. 1.;
        median = percentile_of_counts counts n 50.;
        p95 = percentile_of_counts counts n 95.;
        p99 = percentile_of_counts counts n 99.;
      }
  end

let summary t = summary_of_counts (counts t)
