(* Min-cost flow and balancing tests, including the paper's Section 8
   claims: naive >= reduced >= optimal = LP dual bound, and that balanced
   graphs run fully pipelined. *)

open Dfg
open Sim

(* ------------------------------------------------------------------ *)
(* Min-cost flow                                                        *)
(* ------------------------------------------------------------------ *)

let test_mcf_simple () =
  (* two parallel paths, cheap one has low capacity *)
  let net = Mcf.Mincost_flow.create 4 in
  let e_cheap = Mcf.Mincost_flow.add_arc net ~src:0 ~dst:1 ~capacity:2 ~cost:1 in
  let e_dear = Mcf.Mincost_flow.add_arc net ~src:0 ~dst:2 ~capacity:5 ~cost:3 in
  let e1 = Mcf.Mincost_flow.add_arc net ~src:1 ~dst:3 ~capacity:2 ~cost:0 in
  let e2 = Mcf.Mincost_flow.add_arc net ~src:2 ~dst:3 ~capacity:5 ~cost:0 in
  let s = Mcf.Mincost_flow.min_cost_max_flow net ~source:0 ~sink:3 in
  Alcotest.(check int) "flow" 7 s.Mcf.Mincost_flow.flow;
  Alcotest.(check int) "cost" ((2 * 1) + (5 * 3)) s.Mcf.Mincost_flow.cost;
  Alcotest.(check int) "cheap saturated" 2 (Mcf.Mincost_flow.flow_on net e_cheap);
  Alcotest.(check int) "dear used" 5 (Mcf.Mincost_flow.flow_on net e_dear);
  Alcotest.(check int) "e1" 2 (Mcf.Mincost_flow.flow_on net e1);
  Alcotest.(check int) "e2" 5 (Mcf.Mincost_flow.flow_on net e2)

let test_mcf_prefers_cheap () =
  let net = Mcf.Mincost_flow.create 2 in
  let _ = Mcf.Mincost_flow.add_arc net ~src:0 ~dst:1 ~capacity:10 ~cost:5 in
  let _ = Mcf.Mincost_flow.add_arc net ~src:0 ~dst:1 ~capacity:3 ~cost:1 in
  let s = Mcf.Mincost_flow.min_cost_max_flow net ~source:0 ~sink:1 in
  Alcotest.(check int) "flow" 13 s.Mcf.Mincost_flow.flow;
  Alcotest.(check int) "cost" ((3 * 1) + (10 * 5)) s.Mcf.Mincost_flow.cost

let test_mcf_negative_costs () =
  (* negative-cost arc in a DAG: must be exploited *)
  let net = Mcf.Mincost_flow.create 3 in
  let _ = Mcf.Mincost_flow.add_arc net ~src:0 ~dst:1 ~capacity:4 ~cost:(-2) in
  let _ = Mcf.Mincost_flow.add_arc net ~src:1 ~dst:2 ~capacity:4 ~cost:1 in
  let _ = Mcf.Mincost_flow.add_arc net ~src:0 ~dst:2 ~capacity:4 ~cost:0 in
  let s = Mcf.Mincost_flow.min_cost_max_flow net ~source:0 ~sink:2 in
  Alcotest.(check int) "flow" 8 s.Mcf.Mincost_flow.flow;
  Alcotest.(check int) "cost" (-4) s.Mcf.Mincost_flow.cost

let test_mcf_residual_distances () =
  let net = Mcf.Mincost_flow.create 3 in
  let _ = Mcf.Mincost_flow.add_arc net ~src:0 ~dst:1 ~capacity:2 ~cost:4 in
  let _ = Mcf.Mincost_flow.add_arc net ~src:1 ~dst:2 ~capacity:2 ~cost:1 in
  let _ = Mcf.Mincost_flow.add_arc net ~src:0 ~dst:2 ~capacity:1 ~cost:9 in
  (match Mcf.Mincost_flow.residual_shortest_distances net ~root:0 with
  | Some d ->
    Alcotest.(check int) "d(1)" 4 d.(1);
    Alcotest.(check int) "d(2)" 5 d.(2)
  | None -> Alcotest.fail "no negative cycle expected");
  let _ = Mcf.Mincost_flow.min_cost_max_flow net ~source:0 ~sink:2 in
  (* after an optimal flow the residual network still has no negative
     cycle, and potentials exist *)
  match Mcf.Mincost_flow.potentials net with
  | Some _ -> ()
  | None -> Alcotest.fail "optimal flow must admit potentials"

let test_mcf_disconnected () =
  let net = Mcf.Mincost_flow.create 3 in
  let _ = Mcf.Mincost_flow.add_arc net ~src:0 ~dst:1 ~capacity:1 ~cost:1 in
  let s = Mcf.Mincost_flow.min_cost_max_flow net ~source:0 ~sink:2 in
  Alcotest.(check int) "no flow" 0 s.Mcf.Mincost_flow.flow

(* ------------------------------------------------------------------ *)
(* Balancing                                                            *)
(* ------------------------------------------------------------------ *)

(* Random layered DAG builder: [layers] layers of [width] arithmetic cells;
   each cell reads two random cells from any earlier layer (or an input),
   all terminal cells join into a tree feeding one output.  Deterministic
   via a seed. *)
let random_dag ~seed ~layers ~width =
  let rng = Random.State.make [| seed |] in
  let g = Graph.create () in
  let input = Graph.add g (Opcode.Input "a") [||] in
  let all = ref [ input ] in
  for _ = 1 to layers do
    let layer =
      List.init width (fun _ ->
          let pool = Array.of_list !all in
          let pick () = pool.(Random.State.int rng (Array.length pool)) in
          let n =
            Graph.add g (Opcode.Arith Opcode.Add)
              [| Graph.In_arc; Graph.In_arc |]
          in
          Graph.connect g ~src:(pick ()) ~dst:n ~port:0;
          Graph.connect g ~src:(pick ()) ~dst:n ~port:1;
          n)
    in
    all := layer @ !all
  done;
  (* join all cells with no successors into one output *)
  let sinks =
    List.filter (fun id -> Analysis.successors g id = []) !all
  in
  let rec join = function
    | [] -> assert false
    | [ x ] -> x
    | x :: y :: rest ->
      let n =
        Graph.add g (Opcode.Arith Opcode.Add)
          [| Graph.In_arc; Graph.In_arc |]
      in
      Graph.connect g ~src:x ~dst:n ~port:0;
      Graph.connect g ~src:y ~dst:n ~port:1;
      join (rest @ [ n ])
  in
  let root = join sinks in
  let out = Graph.add g (Opcode.Output "r") [| Graph.In_arc |] in
  Graph.connect g ~src:root ~dst:out ~port:0;
  g

(* ------------------------------------------------------------------ *)
(* Min-cost flow against a reference solver                            *)
(* ------------------------------------------------------------------ *)

(* The reference: plain successive shortest paths, one Bellman-Ford from
   scratch per augmenting path, over [arcs] as (src, dst, capacity, cost).
   Residual arc [2i] is arc [i] and [2i+1] its reverse.  Returns the flow,
   its cost and the potentials of the final residual network (label
   correcting from 0 at every node). *)
let reference_mcf n arcs ~source ~sink =
  let m = 2 * List.length arcs in
  let src = Array.make m 0 and dst = Array.make m 0 in
  let cap = Array.make m 0 and cost = Array.make m 0 in
  List.iteri
    (fun i (u, v, c, w) ->
      src.(2 * i) <- u; dst.(2 * i) <- v; cap.(2 * i) <- c; cost.(2 * i) <- w;
      src.((2 * i) + 1) <- v; dst.((2 * i) + 1) <- u;
      cost.((2 * i) + 1) <- -w)
    arcs;
  (* Bellman-Ford from the labels in [dist]; the last arc into each node *)
  let relax dist =
    let pred = Array.make n (-1) and changed = ref true and passes = ref 0 in
    while !changed do
      changed := false;
      incr passes;
      if !passes > n + 1 then failwith "reference_mcf: negative cycle";
      for a = 0 to m - 1 do
        let u = src.(a) and v = dst.(a) in
        if cap.(a) > 0 && dist.(u) < max_int && dist.(u) + cost.(a) < dist.(v)
        then begin
          dist.(v) <- dist.(u) + cost.(a);
          pred.(v) <- a;
          changed := true
        end
      done
    done;
    pred
  in
  let flow = ref 0 and total = ref 0 and continue = ref true in
  while !continue do
    let dist = Array.make n max_int in
    dist.(source) <- 0;
    let pred = relax dist in
    if dist.(sink) = max_int then continue := false
    else begin
      let rec bottleneck v acc =
        if v = source then acc
        else bottleneck src.(pred.(v)) (min acc cap.(pred.(v)))
      in
      let delta = bottleneck sink max_int in
      let rec apply v =
        if v <> source then begin
          let a = pred.(v) in
          cap.(a) <- cap.(a) - delta;
          cap.(a lxor 1) <- cap.(a lxor 1) + delta;
          apply src.(a)
        end
      in
      apply sink;
      flow := !flow + delta;
      total := !total + (delta * dist.(sink))
    end
  done;
  let pi = Array.make n 0 in
  ignore (relax pi);
  (!flow, !total, pi)

(* The transshipment network [Balancer.optimal_levels] solves for [g]:
   arc [u -> v] at cost [-delay u], nodes with more outputs than inputs
   fed from the source, the others drained to the sink. *)
let balance_network g =
  let n = Graph.node_count g in
  let arcs =
    Graph.fold_nodes g ~init:[] ~f:(fun acc nd ->
        let w = Analysis.node_delay nd in
        Array.fold_left
          (List.fold_left (fun acc { Graph.ep_node; _ } ->
               (nd.Graph.id, ep_node, w) :: acc))
          acc nd.Graph.dests)
  in
  let c = Array.make n 0 in
  List.iter (fun (u, v, _) -> c.(v) <- c.(v) + 1; c.(u) <- c.(u) - 1) arcs;
  let big = (4 * List.length arcs) + n + 16 in
  let terminal v cv =
    if cv > 0 then [ (v, n + 1, cv, 0) ]
    else if cv < 0 then [ (n, v, -cv, 0) ]
    else []
  in
  ( n + 2,
    List.map (fun (u, v, w) -> (u, v, big, -w)) arcs
    @ List.concat (List.mapi terminal (Array.to_list c)),
    n,
    n + 1 )

(* A network drawn from [seed] alone, so a failure replays from the
   printed seed: either arbitrary arcs (cycles allowed) whose costs are
   [p v - p u] plus a non-negative extra for random node prices [p], so
   costs go negative but no cycle does, or the balancing network of a
   [random_dag] of up to 10x10 cells. *)
let mcf_case seed =
  let rng = Random.State.make [| seed |] in
  let int k = Random.State.int rng k in
  (* one draw per [let], so the draw order is fixed *)
  if int 4 = 0 then begin
    let layers = 1 + int 10 in
    let width = 1 + int 10 in
    balance_network (random_dag ~seed ~layers ~width)
  end
  else begin
    let n = 2 + int 9 in
    let price = Array.init n (fun _ -> int 11 - 5) in
    let arcs =
      List.init (int (3 * n)) (fun _ ->
          let u = int n in
          let v = int n in
          let capacity = int 6 in
          (u, v, capacity, price.(v) - price.(u) + int 4))
    in
    (n, arcs, 0, n - 1)
  end

let prop_mcf_matches_reference =
  QCheck.Test.make ~count:400
    ~name:"mcf primal-dual = Bellman-Ford reference (flow, cost, potentials)"
    (QCheck.make (QCheck.Gen.int_bound 1_000_000_000)
       ~print:(fun seed ->
         let n, arcs, _, _ = mcf_case seed in
         Printf.sprintf "mcf_case %d (%d nodes, %d arcs)" seed n
           (List.length arcs)))
    (fun seed ->
      let n, arcs, source, sink = mcf_case seed in
      let net = Mcf.Mincost_flow.create n in
      let ids =
        List.map
          (fun (src, dst, capacity, cost) ->
            Mcf.Mincost_flow.add_arc net ~src ~dst ~capacity ~cost)
          arcs
      in
      let s = Mcf.Mincost_flow.min_cost_max_flow net ~source ~sink in
      let flow, cost, pi = reference_mcf n arcs ~source ~sink in
      let arc_cost =
        List.fold_left2
          (fun acc id (_, _, capacity, c) ->
            let f = Mcf.Mincost_flow.flow_on net id in
            if f < 0 || f > capacity then QCheck.Test.fail_report "arc flow";
            acc + (f * c))
          0 ids arcs
      in
      s.Mcf.Mincost_flow.flow = flow
      && s.Mcf.Mincost_flow.cost = cost
      && arc_cost = cost
      && Mcf.Mincost_flow.potentials net = Some pi)

let test_levels_feasible () =
  List.iter
    (fun seed ->
      let g = random_dag ~seed ~layers:5 ~width:4 in
      let naive = Balance.Balancer.naive_levels g in
      Alcotest.(check bool) "naive feasible" true
        (Balance.Balancer.is_feasible g naive);
      let reduced = Balance.Balancer.reduce_levels g naive in
      Alcotest.(check bool) "reduced feasible" true
        (Balance.Balancer.is_feasible g reduced);
      let optimal = Balance.Balancer.optimal_levels g in
      Alcotest.(check bool) "optimal feasible" true
        (Balance.Balancer.is_feasible g optimal))
    [ 1; 2; 3; 4; 5 ]

let test_cost_ordering () =
  List.iter
    (fun seed ->
      let g = random_dag ~seed ~layers:6 ~width:5 in
      let cost l = Balance.Balancer.buffer_cost g l in
      let naive = cost (Balance.Balancer.naive_levels g) in
      let reduced =
        cost
          (Balance.Balancer.reduce_levels g (Balance.Balancer.naive_levels g))
      in
      let optimal = cost (Balance.Balancer.optimal_levels g) in
      let bound = Balance.Balancer.dual_lower_bound g in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: naive %d >= reduced %d" seed naive reduced)
        true (naive >= reduced);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: reduced %d >= optimal %d" seed reduced
           optimal)
        true (reduced >= optimal);
      Alcotest.(check int)
        (Printf.sprintf "seed %d: optimal = dual bound (strong duality)" seed)
        bound optimal)
    [ 7; 11; 13; 17; 23; 42 ]

let test_optimal_exact_small () =
  (* Hand-checkable: input fans to a 1-cell arm and a 3-cell arm joining
     at an ADD; optimal balancing needs exactly 2 buffer stages. *)
  let g = Graph.create () in
  let a = Graph.add g (Opcode.Input "a") [||] in
  let short = Graph.add g Opcode.Id [| Graph.In_arc |] in
  Graph.connect g ~src:a ~dst:short ~port:0;
  let l1 = Graph.add g Opcode.Id [| Graph.In_arc |] in
  let l2 = Graph.add g Opcode.Id [| Graph.In_arc |] in
  let l3 = Graph.add g Opcode.Id [| Graph.In_arc |] in
  Graph.connect g ~src:a ~dst:l1 ~port:0;
  Graph.connect g ~src:l1 ~dst:l2 ~port:0;
  Graph.connect g ~src:l2 ~dst:l3 ~port:0;
  let join =
    Graph.add g (Opcode.Arith Opcode.Add) [| Graph.In_arc; Graph.In_arc |]
  in
  Graph.connect g ~src:short ~dst:join ~port:0;
  Graph.connect g ~src:l3 ~dst:join ~port:1;
  let out = Graph.add g (Opcode.Output "r") [| Graph.In_arc |] in
  Graph.connect g ~src:join ~dst:out ~port:0;
  let optimal = Balance.Balancer.optimal_levels g in
  Alcotest.(check int) "2 stages" 2
    (Balance.Balancer.buffer_cost g optimal)

let test_insert_buffers_balances () =
  List.iter
    (fun seed ->
      let g = random_dag ~seed ~layers:4 ~width:3 in
      let balanced = Balance.Balancer.balance ~strategy:`Optimal g in
      (match Analysis.strict_balance_check balanced with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "seed %d: not balanced: %s" seed msg);
      (* and it runs fully pipelined *)
      let n = 200 in
      let result =
        Engine.run_cfg Run_config.default balanced
          ~inputs:[ ("a", List.init n (fun i -> Value.Int i)) ]
      in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d fully pipelined" seed)
        true
        (Metrics.fully_pipelined result "r"))
    [ 3; 9; 27 ]

let test_values_unchanged_by_balancing () =
  let g = random_dag ~seed:5 ~layers:4 ~width:3 in
  let n = 50 in
  let inputs = [ ("a", List.init n (fun i -> Value.Int (i + 1))) ] in
  let raw = Engine.run_cfg Run_config.default g ~inputs in
  List.iter
    (fun strategy ->
      let b = Balance.Balancer.balance ~strategy g in
      let res = Engine.run_cfg Run_config.default b ~inputs in
      Alcotest.(check (list int)) "same values"
        (List.map
           (function Value.Int i -> i | _ -> -1)
           (Engine.output_values raw "r"))
        (List.map
           (function Value.Int i -> i | _ -> -1)
           (Engine.output_values res "r")))
    [ `Naive; `Reduced; `Optimal ]

let test_cyclic_rejected () =
  let g = Graph.create () in
  let a = Graph.add g Opcode.Id [| Graph.In_arc_init (Value.Int 0) |] in
  let b = Graph.add g Opcode.Id [| Graph.In_arc |] in
  Graph.connect g ~src:a ~dst:b ~port:0;
  Graph.connect g ~src:b ~dst:a ~port:0;
  (match Balance.Balancer.naive_levels g with
  | _ -> Alcotest.fail "expected Cyclic"
  | exception Balance.Balancer.Cyclic -> ());
  match Balance.Balancer.optimal_levels g with
  | _ -> Alcotest.fail "expected Cyclic"
  | exception Balance.Balancer.Cyclic -> ()

let test_fifo_weights_respected () =
  (* A pre-existing FIFO(3) counts as 3 stages of delay. *)
  let g = Graph.create () in
  let a = Graph.add g (Opcode.Input "a") [||] in
  let f = Graph.add g (Opcode.Fifo 3) [| Graph.In_arc |] in
  Graph.connect g ~src:a ~dst:f ~port:0;
  let s = Graph.add g Opcode.Id [| Graph.In_arc |] in
  Graph.connect g ~src:a ~dst:s ~port:0;
  let join =
    Graph.add g (Opcode.Arith Opcode.Add) [| Graph.In_arc; Graph.In_arc |]
  in
  Graph.connect g ~src:f ~dst:join ~port:0;
  Graph.connect g ~src:s ~dst:join ~port:1;
  let out = Graph.add g (Opcode.Output "r") [| Graph.In_arc |] in
  Graph.connect g ~src:join ~dst:out ~port:0;
  let optimal = Balance.Balancer.optimal_levels g in
  (* short arm needs 2 more stages to match FIFO(3) *)
  Alcotest.(check int) "stages" 2 (Balance.Balancer.buffer_cost g optimal)

(* Balanced graphs are a function of the graph alone (docs/THEORY.md), so
   their text must not move when the solver changes.  Digests of
   [Dfg.Text.to_string], recorded with the Bellman-Ford solver the library
   used before its primal-dual one. *)
let kernel_digests =
  [
    ("hydro", 2236124702026290926);
    ("first_difference", 2716942612487953309);
    ("state_eos", 1357064466496757079);
    ("tridiag", 1584786382277566669);
    ("prefix_sum", 1809915545756136922);
    ("smooth_chain", 4429638563031377911);
    ("planckian", 628546801965880043);
    ("integrate_predictors", 644540283872598590);
  ]

(* seed, phase_balance digest, balance `Optimal digest (20x10 DAGs) *)
let dag_digests =
  [
    (101, 2728136911925740875, 3272757165390010452);
    (202, 3807965173816734710, 2138102484104378810);
    (303, 2836077917217561025, 1942636317508543607);
  ]

let test_balanced_text_pinned () =
  let digest g = Integrity.checksum_string (Text.to_string g) in
  Alcotest.(check (list string)) "every kernel pinned"
    (List.map (fun (k : Kernels.kernel) -> k.Kernels.name) Kernels.all)
    (List.map fst kernel_digests);
  List.iter
    (fun (k : Kernels.kernel) ->
      let _, c =
        Compiler.Driver.compile_source ~scalar_inputs:k.Kernels.scalar_inputs
          (k.Kernels.source 48)
      in
      Alcotest.(check int) k.Kernels.name
        (List.assoc k.Kernels.name kernel_digests)
        (digest c.Compiler.Program_compile.cp_graph))
    Kernels.all;
  List.iter
    (fun (seed, phase, optimal) ->
      let g = random_dag ~seed ~layers:20 ~width:10 in
      Alcotest.(check bool) "at least 200 nodes" true (Graph.node_count g >= 200);
      Alcotest.(check int)
        (Printf.sprintf "dag %d phase_balance" seed)
        phase
        (digest (Balance.Balancer.phase_balance ~shift:(fun _ -> 0) g));
      Alcotest.(check int)
        (Printf.sprintf "dag %d balance" seed)
        optimal
        (digest (Balance.Balancer.balance ~strategy:`Optimal g)))
    dag_digests

let suite =
  [
    Alcotest.test_case "mcf simple network" `Quick test_mcf_simple;
    Alcotest.test_case "mcf prefers cheap arcs" `Quick test_mcf_prefers_cheap;
    Alcotest.test_case "mcf negative costs" `Quick test_mcf_negative_costs;
    Alcotest.test_case "mcf disconnected" `Quick test_mcf_disconnected;
    Alcotest.test_case "mcf residual distances and potentials" `Quick
      test_mcf_residual_distances;
    QCheck_alcotest.to_alcotest
      ~rand:(Random.State.make [| 20261017 |])
      prop_mcf_matches_reference;
    Alcotest.test_case "levels feasible" `Quick test_levels_feasible;
    Alcotest.test_case "cost ordering naive>=reduced>=optimal=dual" `Quick
      test_cost_ordering;
    Alcotest.test_case "optimal exact on small graph" `Quick
      test_optimal_exact_small;
    Alcotest.test_case "balanced graphs run at max rate" `Quick
      test_insert_buffers_balances;
    Alcotest.test_case "balancing preserves values" `Quick
      test_values_unchanged_by_balancing;
    Alcotest.test_case "cyclic graphs rejected" `Quick test_cyclic_rejected;
    Alcotest.test_case "FIFO weights respected" `Quick
      test_fifo_weights_respected;
    Alcotest.test_case "balanced graph text pinned across solvers" `Quick
      test_balanced_text_pinned;
  ]
