(* Event counters: a lane set (see [Lanes]) with one cell per
   [Event.t], so each domain shard counts into its own cache lines and
   totals are summed only at snapshot time. [Event.Cas_retry] is not
   counted here: the probe keeps retries per site and derives their
   total (see [Probe]). *)

type t = Lanes.t

let default_shards = Lanes.default_lanes

let make ?(shards = default_shards) () =
  Lanes.make ~name:"probe_counters" ~lanes:shards ~width:Event.count ()

let[@inline] incr t ev = Lanes.add t (Event.index ev) 1
let[@inline] add t ev n = if n <> 0 then Lanes.add t (Event.index ev) n
let read t ev = Lanes.sum t (Event.index ev)
let reset = Lanes.reset
