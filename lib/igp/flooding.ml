module Graph = Netgraph.Graph

(* A flood sends one message over every edge between reached routers;
   only [reached - 1] of those deliver news, the rest are duplicates the
   receiver suppresses. *)
let m_messages = Obs.Metrics.counter "flooding.messages"
let m_suppressed = Obs.Metrics.counter "flooding.suppressed"

type cost = { messages : int; rounds : int }

let zero = { messages = 0; rounds = 0 }

let add a b = { messages = a.messages + b.messages; rounds = max a.rounds b.rounds }

type loss = { prng : Kit.Prng.t; drop : float }

let loss ?(drop = 0.1) ~seed () =
  if drop < 0. || drop >= 1. then invalid_arg "Flooding.loss: drop must be in [0, 1)";
  { prng = Kit.Prng.create ~seed; drop }

(* Retransmission backoff cap, in rounds, and attempt budget per
   adjacency. *)
let max_backoff = 8
let max_retries = 16

type jitter = { jitter_prng : Kit.Prng.t; max_delay : int }

let jitter ?(max_delay = 4) ~seed () =
  if max_delay < 1 then invalid_arg "Flooding.jitter: max_delay must be >= 1";
  { jitter_prng = Kit.Prng.create ~seed; max_delay }

(* One reliable transmission over a lossy adjacency: attempts are lost
   independently with probability [drop]; after the k-th loss the sender
   waits min(2^k, max_backoff) rounds before retransmitting (OSPF's
   RxmtInterval, exponentiated). Returns how many copies were sent and
   how many rounds after the first transmission the LSA lands. The
   attempt budget is capped — the last retransmission always delivers,
   modelling retransmit-until-acked without unbounded tails. *)
let transmit l =
  let attempts = ref 1 and delay = ref 0 and backoff = ref 1 in
  while
    !attempts < max_retries && Kit.Prng.float l.prng 1.0 < l.drop
  do
    incr attempts;
    delay := !delay + !backoff;
    backoff := min (2 * !backoff) max_backoff
  done;
  (!attempts, 1 + !delay)

(* Sampled flooding: per-edge delivery latencies combine retransmission
   delay (loss) with scheduling jitter (delay/reorder), and the LSA's
   arrival time at each router is the shortest-path closure of those
   latencies (a router re-floods the instant the first copy arrives).
   With jitter, a router two cheap hops away can be informed before a
   direct but slow neighbor — LSA reordering falls out of the closure
   rather than being modelled separately. Deterministic: edges are
   relaxed in increasing (arrival, node, neighbor insertion) order, so
   one seed = one outcome. *)
let flood_sampled ~loss ~jitter g ~origin =
  let edge_latency () =
    let attempts, latency =
      match loss with Some l -> transmit l | None -> (1, 1)
    in
    let latency =
      match jitter with
      | Some j -> latency + Kit.Prng.int j.jitter_prng (j.max_delay + 1)
      | None -> latency
    in
    (attempts, latency)
  in
  let n = Graph.node_count g in
  let arrival = Array.make n infinity in
  let settled = Array.make n false in
  arrival.(origin) <- 0.;
  let rec settle () =
    (* O(n^2) extract-min: flooding graphs are small and this keeps the
       relaxation order (and hence the PRNG stream) deterministic. *)
    let next = ref (-1) in
    for v = n - 1 downto 0 do
      if (not settled.(v)) && arrival.(v) < infinity
         && (!next < 0 || arrival.(v) <= arrival.(!next))
      then next := v
    done;
    if !next >= 0 then begin
      let u = !next in
      settled.(u) <- true;
      Graph.iter_succ g u (fun v _ ->
          if not settled.(v) then begin
            let _, latency = edge_latency () in
            let at = arrival.(u) +. float_of_int latency in
            if at < arrival.(v) then arrival.(v) <- at
          end);
      settle ()
    end
  in
  settle ();
  let reached = ref 0 and rounds = ref 0 in
  Array.iter
    (fun a ->
      if a < infinity then begin
        incr reached;
        rounds := max !rounds (int_of_float (Float.round a))
      end)
    arrival;
  (* As in the lossless model, every directed edge between informed
     routers carries the update (the loser is suppressed as a
     duplicate) — but under loss each copy is retried until acked, so an
     edge costs its sampled attempt count rather than exactly one
     message. Jitter delays copies without duplicating them. *)
  let messages =
    Graph.fold_edges g ~init:0 ~f:(fun acc u v _ ->
        if settled.(u) && settled.(v) then
          acc + (match loss with Some l -> fst (transmit l) | None -> 1)
        else acc)
  in
  Obs.Metrics.add m_messages messages;
  Obs.Metrics.add m_suppressed (max 0 (messages - (!reached - 1)));
  { messages; rounds = !rounds }

let flood_lossless g ~origin =
  let n = Graph.node_count g in
  let depth = Array.make n (-1) in
  depth.(origin) <- 0;
  let queue = Queue.create () in
  Queue.push origin queue;
  let rounds = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Graph.iter_succ g u (fun v _ ->
        if depth.(v) < 0 then begin
          depth.(v) <- depth.(u) + 1;
          rounds := max !rounds depth.(v);
          Queue.push v queue
        end)
  done;
  let messages =
    Graph.fold_edges g ~init:0 ~f:(fun acc u v _ ->
        if depth.(u) >= 0 && depth.(v) >= 0 then acc + 1 else acc)
  in
  let reached = Array.fold_left (fun k d -> if d >= 0 then k + 1 else k) 0 depth in
  Obs.Metrics.add m_messages messages;
  Obs.Metrics.add m_suppressed (max 0 (messages - (reached - 1)));
  { messages; rounds = !rounds }

let flood ?loss ?jitter g ~origin =
  let lossy = match loss with Some l -> l.drop > 0. | None -> false in
  if lossy || jitter <> None then
    flood_sampled ~loss:(if lossy then loss else None) ~jitter g ~origin
  else flood_lossless g ~origin
