(* The benchmark's calls into each layer, each wrapped in a span, and
   the counters the per-layer metrics are computed from.

   Compilation is split into the calls [Driver.compile_source] makes —
   parse, classify (which type-checks), compile without balancing, then
   [Balancer.phase_balance] with the compiler's gate shifts — so each
   layer gets its own span; [compile_equivalent] checks that the split
   produces the same graph text as the one-call default compile. *)

module PC = Compiler.Program_compile
module ME = Machine.Machine_engine
module Outcome = Exec.Outcome

type counts = {
  mutable tokens : int;
  mutable cells_unbalanced : int;
  mutable fifo_cells : int;
  mutable ports : int;
  (* engine work: every run, for rates *)
  mutable sim_s : float;
  mutable sim_firings : int;
  mutable sim_words : int;
  mutable machine_s : float;
  mutable machine_dispatches : int;
  mutable machine_words : int;
  (* engine work: each distinct run once, for counts that repeat *)
  mutable sim_firings_once : int;
  mutable dispatches_once : int;
  mutable packets_once : int;
  mutable fu_ops_once : int;
  mutable am_ops_once : int;
}

type t = { tr : Spans.t; counts : counts; seen : (string, unit) Hashtbl.t }

let create ~trace =
  { tr = Spans.create trace;
    counts =
      { tokens = 0; cells_unbalanced = 0; fifo_cells = 0; ports = 0;
        sim_s = 0.0; sim_firings = 0; sim_words = 0; machine_s = 0.0;
        machine_dispatches = 0; machine_words = 0; sim_firings_once = 0;
        dispatches_once = 0; packets_once = 0; fu_ops_once = 0;
        am_ops_once = 0 };
    seen = Hashtbl.create 64 }

let span t ?rid name f = Spans.span t.tr ?rid name f

(* [first t key] is true the first time [key] is seen. *)
let first t key =
  if Hashtbl.mem t.seen key then false
  else begin
    Hashtbl.add t.seen key ();
    true
  end

type compiled = {
  prog : Val_lang.Ast.program;
  cp : PC.compiled;  (** balanced *)
  arena : Arena.t;
}

let cells (c : compiled) = Dfg.Graph.node_count c.cp.PC.cp_graph

(* Source text to arena.  [key] names the program for the counters,
   which count each distinct program once. *)
let compile t ~key ?(scalar_inputs = []) source =
  let prog =
    span t "val_lang.parse" (fun () -> Val_lang.Parser.parse_program source)
  in
  let pp =
    span t "val_lang.classify" (fun () ->
        Val_lang.Classify.classify_program prog)
  in
  let unbalanced =
    span t "compiler.compile" (fun () ->
        PC.compile
          ~options:{ PC.default_options with balance = `None }
          ~scalar_inputs pp)
  in
  let shift id =
    Option.value ~default:0 (Hashtbl.find_opt unbalanced.PC.cp_shifts id)
  in
  let graph =
    span t "balance.phase_balance" (fun () ->
        Balance.Balancer.phase_balance ~strategy:`Optimal ~shift
          unbalanced.PC.cp_graph)
  in
  let cp = { unbalanced with PC.cp_graph = graph } in
  let arena = span t "arena.build" (fun () -> Arena.build graph) in
  if first t ("program:" ^ key) then begin
    let c = t.counts in
    let before = Dfg.Graph.node_count unbalanced.PC.cp_graph in
    if Spans.enabled t.tr then
      c.tokens <- c.tokens + List.length (Val_lang.Lexer.tokenize source);
    c.cells_unbalanced <- c.cells_unbalanced + before;
    c.fifo_cells <- c.fifo_cells + Dfg.Graph.node_count graph - before;
    c.ports <- c.ports + arena.Arena.n_ports
  end;
  { prog; cp; arena }

(* The split compile must yield exactly the default compile's graph. *)
let compile_equivalent ?(scalar_inputs = []) source (c : compiled) =
  let _, reference = Compiler.Driver.compile_source ~scalar_inputs source in
  Dfg.Text.to_string reference.PC.cp_graph
  = Dfg.Text.to_string c.cp.PC.cp_graph

type run = {
  outcome : Outcome.t;
  digest : int;
  engine_s : float;  (** host seconds inside the engine call *)
  words : int;  (** minor words allocated by the engine call *)
  firings : int;
}

(* One engine call plus the outcome assembly every consumer does
   (outcome record, digest, metrics registry).  [key] names the run for
   the counts that repeat exactly. *)
let run t ~key engine graph ~feeds =
  let c = t.counts in
  let raw, engine_s, words =
    match engine with
    | `Sim ->
      let r, dt, words =
        span t "sim.run" (fun () ->
            Common.measured (fun () ->
                Sim.Engine.run_cfg Run_config.default graph ~inputs:feeds))
      in
      (`Sim r, dt, words)
    | `Machine ->
      let r, dt, words =
        span t "machine.run" (fun () ->
            Common.measured (fun () ->
                ME.run_cfg ME.default_config ~arch:Machine.Arch.default graph
                  ~inputs:feeds))
      in
      (`Machine r, dt, words)
  in
  let outcome, digest =
    span t "exec.outcome" (fun () ->
        let o =
          match raw with
          | `Sim r -> Outcome.of_sim ~name:key r
          | `Machine r -> Outcome.of_machine ~name:key r
        in
        ignore (Sys.opaque_identity (Outcome.metrics o));
        (o, Outcome.digest o))
  in
  let k = outcome.Outcome.counters in
  let firings = k.Outcome.firings in
  let once =
    first t ((match engine with `Sim -> "sim:" | `Machine -> "machine:") ^ key)
  in
  (match engine with
  | `Sim ->
    c.sim_s <- c.sim_s +. engine_s;
    c.sim_firings <- c.sim_firings + firings;
    c.sim_words <- c.sim_words + words;
    if once then c.sim_firings_once <- c.sim_firings_once + firings
  | `Machine ->
    c.machine_s <- c.machine_s +. engine_s;
    c.machine_dispatches <- c.machine_dispatches + firings;
    c.machine_words <- c.machine_words + words;
    if once then begin
      c.dispatches_once <- c.dispatches_once + firings;
      c.packets_once <-
        c.packets_once + k.Outcome.result_packets + k.Outcome.ack_packets;
      c.fu_ops_once <- c.fu_ops_once + k.Outcome.fu_ops;
      c.am_ops_once <- c.am_ops_once + k.Outcome.am_ops
    end);
  { outcome; digest; engine_s; words; firings }

(* ---- per-layer metrics ----------------------------------------------- *)

let ratio a b = if b = 0.0 then nan else a /. b

let percentiles t ~span:name ~metric:base =
  let d = Spans.durations_ms t.tr name in
  [ Common.metric (base ^ ".p50") "ms" (Common.median d);
    Common.metric (base ^ ".p99") "ms" (Common.quantile d 0.99) ]

(* The per-layer metrics every workload reports from its traced run. *)
let metrics t =
  let c = t.counts and m = Common.metric in
  let fi = float_of_int in
  let front =
    Spans.total_s t.tr "val_lang.parse"
    +. Spans.total_s t.tr "val_lang.classify"
    +. Spans.total_s t.tr "compiler.compile"
  in
  let balance_s = Spans.total_s t.tr "balance.phase_balance" in
  percentiles t ~span:"val_lang.parse" ~metric:"val_lang.parse_ms"
  @ percentiles t ~span:"val_lang.classify" ~metric:"val_lang.classify_ms"
  @ [ m "val_lang.tokens" "count" (fi c.tokens) ]
  @ percentiles t ~span:"compiler.compile" ~metric:"compiler.compile_ms"
  @ [ m "compiler.cells_unbalanced" "cells" (fi c.cells_unbalanced) ]
  @ percentiles t ~span:"balance.phase_balance"
      ~metric:"balance.phase_balance_ms"
  @ [ m "balance.fifo_cells" "cells" (fi c.fifo_cells);
      m "balance.share_of_compile" "fraction"
        (ratio balance_s (front +. balance_s)) ]
  @ percentiles t ~span:"arena.build" ~metric:"arena.build_ms"
  @ [ m "arena.ports" "count" (fi c.ports);
      m "sim.ns_per_firing" "ns" (ratio (c.sim_s *. 1e9) (fi c.sim_firings));
      m "sim.alloc_words_per_firing" "words"
        (ratio (fi c.sim_words) (fi c.sim_firings));
      m "sim.firings" "firings" (fi c.sim_firings_once);
      m "machine.ns_per_dispatch" "ns"
        (ratio (c.machine_s *. 1e9) (fi c.machine_dispatches));
      m "machine.alloc_words_per_dispatch" "words"
        (ratio (fi c.machine_words) (fi c.machine_dispatches));
      m "machine.dispatches" "dispatches" (fi c.dispatches_once);
      m "machine.packets_per_dispatch" "packets"
        (ratio (fi c.packets_once) (fi c.dispatches_once));
      m "machine.fu_ops" "count" (fi c.fu_ops_once);
      m "machine.am_ops" "count" (fi c.am_ops_once) ]
  @ percentiles t ~span:"exec.outcome" ~metric:"exec.outcome_ms"
