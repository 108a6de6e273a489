(* The residual network in forward-star layout over flat arrays.  Arc [2i]
   is user arc [i] and arc [2i+1] its reverse; [a lxor 1] is the partner of
   [a].  [head.(u)] is the last arc added leaving [u] (-1 when none) and
   [next.(a)] the arc added before [a] leaving the same node.  A reverse
   arc starts empty, so its capacity is the flow on its forward arc. *)

module Ipq = Df_util.Ipq

type t = {
  n : int;
  head : int array;
  mutable dst : int array;
  mutable cap : int array;  (* remaining residual capacity *)
  mutable cost : int array;
  mutable next : int array;
  mutable arcs : int;  (* residual arcs in use: twice the user arcs *)
}

let create n =
  { n; head = Array.make n (-1); dst = [||]; cap = [||]; cost = [||];
    next = [||]; arcs = 0 }

let node_count t = t.n

let grow t =
  let size = max 16 (2 * Array.length t.dst) in
  let extend a =
    let b = Array.make size 0 in
    Array.blit a 0 b 0 t.arcs;
    b
  in
  t.dst <- extend t.dst;
  t.cap <- extend t.cap;
  t.cost <- extend t.cost;
  t.next <- extend t.next

let push_arc t ~src ~dst ~cap ~cost =
  let a = t.arcs in
  t.dst.(a) <- dst;
  t.cap.(a) <- cap;
  t.cost.(a) <- cost;
  t.next.(a) <- t.head.(src);
  t.head.(src) <- a;
  t.arcs <- a + 1

let add_arc t ~src ~dst ~capacity ~cost =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Mincost_flow.add_arc: endpoint out of range";
  if capacity < 0 then
    invalid_arg "Mincost_flow.add_arc: negative capacity";
  if t.arcs = Array.length t.dst then grow t;
  push_arc t ~src ~dst ~cap:capacity ~cost;
  push_arc t ~src:dst ~dst:src ~cap:0 ~cost:(-cost);
  (t.arcs / 2) - 1

type solution = { flow : int; cost : int }

(* Label correcting (Bellman-Ford-Moore) over the residual network: lower
   [dist] until no residual arc [u -> v] has [dist v > dist u + cost],
   scanning in each round only the nodes whose label changed in the last
   one.  Nodes at [max_int] are unreached.  After round [k] every label is
   at most the cheapest walk of [k] arcs from the initial labels, so
   without a negative cycle the labels settle within [n] rounds; false
   when round [n + 1] still changes one. *)
let label_correct t dist =
  let n = t.n in
  let cur = ref (Array.make n 0) and nxt = ref (Array.make n 0) in
  let queued = Array.make n false in
  let len = ref 0 in
  for v = 0 to n - 1 do
    if dist.(v) < max_int then begin
      !cur.(!len) <- v;
      incr len
    end
  done;
  let rounds = ref 0 in
  while !len > 0 && !rounds <= n do
    incr rounds;
    let c = !cur and nx = !nxt and nlen = ref 0 in
    for i = 0 to !len - 1 do
      let u = c.(i) in
      let du = dist.(u) in
      let a = ref t.head.(u) in
      while !a >= 0 do
        let v = t.dst.(!a) in
        if t.cap.(!a) > 0 && du + t.cost.(!a) < dist.(v) then begin
          dist.(v) <- du + t.cost.(!a);
          if not queued.(v) then begin
            queued.(v) <- true;
            nx.(!nlen) <- v;
            incr nlen
          end
        end;
        a := t.next.(!a)
      done
    done;
    for i = 0 to !nlen - 1 do
      queued.(nx.(i)) <- false
    done;
    cur := nx;
    nxt := c;
    len := !nlen
  done;
  !len = 0

(* Primal-dual successive shortest paths.  [pi] are node potentials that
   keep every reduced cost [cost a + pi u - pi v] of a residual arc the
   source reaches >= 0.  Each phase runs one Dijkstra over reduced costs
   and lifts [pi] by its distances, which makes every cheapest
   source-to-sink path a path of zero-reduced-cost arcs; blocking flows
   then saturate those arcs before the next phase.  The reduced cost is
   written out inline: without flambda, a closure call per arc measurably
   slows the small solves of ordinary programs. *)
let min_cost_max_flow t ~source ~sink =
  if source = sink then invalid_arg "Mincost_flow: source = sink";
  let n = t.n and head = t.head and dst = t.dst and cap = t.cap
  and cost = t.cost and next = t.next in
  (* exact distances from the source, so the first phase needs no
     Dijkstra: its cheapest paths already have zero reduced cost *)
  let pi = Array.make n max_int in
  pi.(source) <- 0;
  if not (label_correct t pi) then failwith "Mincost_flow: negative cycle";
  (* nodes the source never reaches stay out of every search *)
  Array.iteri (fun v p -> if p = max_int then pi.(v) <- 0) pi;
  let dist = Array.make n max_int and settled = Array.make n false in
  let heap = Ipq.create ~capacity:n () in
  (* Dijkstra from the source, stopped when the sink settles.  Settled
     nodes lift by their distance and all others by the sink's, which
     keeps every reduced cost >= 0.  False when the sink is unreachable. *)
  let dijkstra () =
    Array.fill dist 0 n max_int;
    Array.fill settled 0 n false;
    Ipq.clear heap;
    dist.(source) <- 0;
    Ipq.push heap 0 source;
    while (not settled.(sink)) && not (Ipq.is_empty heap) do
      let u = Ipq.pop_payload heap in
      if not settled.(u) then begin
        settled.(u) <- true;
        let du = dist.(u) in
        let a = ref head.(u) in
        while !a >= 0 do
          let v = dst.(!a) in
          if cap.(!a) > 0 then begin
            let dv = du + cost.(!a) + pi.(u) - pi.(v) in
            if dv < dist.(v) then begin
              dist.(v) <- dv;
              Ipq.push heap dv v
            end
          end;
          a := next.(!a)
        done
      end
    done;
    settled.(sink)
    && begin
      let lift = dist.(sink) in
      for v = 0 to n - 1 do
        pi.(v) <- pi.(v) + (if settled.(v) then dist.(v) else lift)
      done;
      true
    end
  in
  (* Dinic-style BFS levels over the admissible arcs (residual capacity,
     zero reduced cost), stopped once the sink has its level *)
  let level = Array.make n (-1) and queue = Array.make n 0 in
  let bfs () =
    Array.fill level 0 n (-1);
    level.(source) <- 0;
    queue.(0) <- source;
    let qh = ref 0 and qt = ref 1 in
    while !qh < !qt && level.(sink) < 0 do
      let u = queue.(!qh) in
      incr qh;
      let a = ref head.(u) in
      while !a >= 0 do
        let v = dst.(!a) in
        if level.(v) < 0 && cap.(!a) > 0 && cost.(!a) + pi.(u) = pi.(v)
        then begin
          level.(v) <- level.(u) + 1;
          queue.(!qt) <- v;
          incr qt
        end;
        a := next.(!a)
      done
    done;
    level.(sink) >= 0
  in
  (* push up to [limit] from [u] down the levels; [current.(u)] skips the
     arcs already found blocked in this blocking flow *)
  let current = Array.make n (-1) in
  let rec push u limit =
    if u = sink then limit
    else begin
      let pushed = ref 0 in
      while !pushed < limit && current.(u) >= 0 do
        let a = current.(u) in
        let v = dst.(a) in
        if
          level.(v) = level.(u) + 1
          && cap.(a) > 0
          && cost.(a) + pi.(u) = pi.(v)
        then begin
          let rest = limit - !pushed in
          let want = if cap.(a) < rest then cap.(a) else rest in
          let d = push v want in
          cap.(a) <- cap.(a) - d;
          cap.(a lxor 1) <- cap.(a lxor 1) + d;
          pushed := !pushed + d;
          if d < want then current.(u) <- next.(a)
        end
        else current.(u) <- next.(a)
      done;
      !pushed
    end
  in
  let flow = ref 0 and total = ref 0 in
  let more = ref true in
  while !more do
    while bfs () do
      Array.blit head 0 current 0 n;
      let f = push source max_int in
      flow := !flow + f;
      total := !total + (f * (pi.(sink) - pi.(source)))
    done;
    more := dijkstra ()
  done;
  { flow = !flow; cost = !total }

let flow_on t id =
  if id < 0 || 2 * id >= t.arcs then
    invalid_arg "Mincost_flow.flow_on: bad arc id";
  t.cap.((2 * id) + 1)

let residual_shortest_distances t ~root =
  let dist = Array.make t.n max_int in
  dist.(root) <- 0;
  if label_correct t dist then Some dist else None

let potentials t =
  let dist = Array.make t.n 0 in
  if label_correct t dist then Some dist else None
