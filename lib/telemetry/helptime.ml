(* Per-domain monotone accumulators of cooperative-migration help
   time. The sweep's chunk-claim site adds each chunk's duration to
   the lane of the domain that did the helping; the server reads its
   own lane before and after the shard stage of a request, and the
   delta is that request's [server_help_ns] attribution — the answer
   to "was this outlier slow because it got drafted into a resize?".

   A lane set (see [Lanes]) of one cell per lane, so each domain's
   accumulator has its cache line to itself. Two domains that collide
   on a lane merge their help time (the delta read by one may include
   chunks claimed by the other). With 1024 lanes and tens of domains
   that is vanishingly rare, and the failure mode is an
   over-attribution, never a negative or lost reading — each lane
   only ever grows. *)

let lanes = Lanes.make ~name:"helptime" ~lanes:1024 ~width:1 ()

(* Called from the sweep after a chunk migration; [ns] <= 0 is
   ignored so a clock hiccup can never make a lane non-monotone. *)
let[@inline] add ns = if ns > 0 then Lanes.add lanes 0 ns

(* The calling domain's accumulated help time, nanoseconds. Sample it
   before and after a region to attribute the help done inside. *)
let[@inline] read () = Lanes.get_own lanes 0
