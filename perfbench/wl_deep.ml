(* deep-compile: a seeded set of deep pipe-structured programs (see
   [Deep_gen]) taken from source through [Arena.build], set after set,
   until the time is up.  One caller, batch.  Balancing dominates.  Each
   compile is followed by three 2-wave sim runs of the program, timed
   apart.

   Checks, after the timed loop: the generator's self-check (same seed,
   same sources; pipe-structured; the companion scheme for every
   recurrence; the Val interpreter over two waves, on the sim engine),
   the timed split compile against the default compile, the machine engine
   against the sim, value for value, and the same cell count on every
   pass. *)

module PC = Compiler.Program_compile

let count = 3
let min_blocks = 40
let max_blocks = 100

(* set-ups timed per pass, so that the set-up samples are spread over
   the run like the compile samples; [setup_s] is their median *)
let setups_per_pass = 5

(* sim runs after each compile: the first pays for collecting the
   compile's garbage, so [firings_per_s], a median over the runs, is
   taken mostly from the runs after it *)
let sims_per_compile = 3

let run ~seed ~seconds ~trace ~corrupt =
  let lay = Layers.create ~trace in
  let checks = Common.checks () in
  let setups = Common.samples () in
  let set_up_timed () =
    let t0 = Common.now () in
    let programs = Deep_gen.program_set ~seed ~count ~lo:min_blocks ~hi:max_blocks in
    Common.record setups (Common.now () -. t0);
    programs
  in
  let programs = set_up_timed () in
  let key i = Printf.sprintf "deep%d" i in
  let cells = Array.make count 0 and compiled = Array.make count None in
  let attempted = ref 0 and compiles = Common.rate () in
  (* each compile is followed by 2-wave sim runs of its graph, so the
     engine samples are spread over the run like the compile samples *)
  let firings = Common.rate () and words = Array.make count (-1) in
  let sim index (c : Layers.compiled) =
    let feeds =
      Runspec.feeds c.Layers.cp ~waves:2 (Deep_gen.inputs ~seed ~index c.Layers.cp)
    in
    let r = Layers.run lay ~key:(key index) `Sim c.Layers.cp.PC.cp_graph ~feeds in
    Common.add_sample firings (key index) ~work:r.Layers.firings
      ~seconds:r.Layers.engine_s;
    if words.(index) < 0 then words.(index) <- r.Layers.words
    else if words.(index) <> r.Layers.words then
      Common.fail checks "program %d: sim runs differ in allocated words" index
  in
  let deadline = Common.now () +. seconds in
  let pass = ref 0 in
  while !pass = 0 || Common.now () < deadline do
    for _ = 1 to setups_per_pass do
      ignore (set_up_timed ())
    done;
    List.iteri
      (fun i (p : Deep_gen.program) ->
        Common.reference ();
        incr attempted;
        let t0 = Common.now () in
        match Layers.compile lay ~key:(key i) p.Deep_gen.source with
        | exception e ->
          Common.fail checks "program %d: compile raised %s" i
            (Printexc.to_string e)
        | c ->
          Common.add_sample compiles (key i) ~work:1
            ~seconds:(Common.now () -. t0);
          if !pass = 0 then begin
            cells.(i) <- Layers.cells c;
            compiled.(i) <- Some c
          end
          else if Layers.cells c <> cells.(i) then
            Common.fail checks "program %d: pass %d gave %d cells, pass 0 %d" i
              !pass (Layers.cells c) cells.(i);
          for _ = 1 to sims_per_compile do
            sim i c
          done)
      programs;
    incr pass
  done;
  (* the checks: interpreter, default compile and machine, on the
     default compile's graph *)
  let end_time = ref 0 in
  let check index (c : PC.compiled) ~inputs =
    (match compiled.(index) with
    | Some timed
      when Dfg.Text.to_string timed.Layers.cp.PC.cp_graph
           <> Dfg.Text.to_string c.PC.cp_graph ->
      Common.fail checks "program %d: split compile differs from the default"
        index
    | _ -> ());
    let feeds = Runspec.feeds c ~waves:2 inputs in
    let r = Layers.run lay ~key:(key index) `Sim c.PC.cp_graph ~feeds in
    end_time := !end_time + r.Layers.outcome.Exec.Outcome.end_time;
    let m = Layers.run lay ~key:(key index) `Machine c.PC.cp_graph ~feeds in
    let sim_outputs =
      if corrupt && index = 0 then
        Common.corrupt_outputs r.Layers.outcome.Exec.Outcome.outputs
      else r.Layers.outcome.Exec.Outcome.outputs
    in
    if not (Common.same_values m.Layers.outcome.Exec.Outcome.outputs sim_outputs)
    then Common.fail checks "program %d: machine and sim outputs differ" index;
    match r.Layers.outcome.Exec.Outcome.detail with
    | Exec.Outcome.Sim_detail d -> { d with Sim.Engine.outputs = sim_outputs }
    | Exec.Outcome.Machine_detail _ -> assert false
  in
  List.iter
    (fun m -> Common.fail checks "%s" m)
    (Deep_gen.self_check ~seed ~count ~lo:min_blocks ~hi:max_blocks ~run:check
       programs);
  let fired =
    Hashtbl.fold (fun _ (w, _) acc -> acc + w) firings 0
  in
  let m = Common.metric in
  let ok = !attempted - checks.Common.bad in
  let e2e =
    [ m "firings_per_s" "firings/s" (Common.per_second firings);
      m "alloc_words_per_firing" "words"
        (float_of_int (Array.fold_left ( + ) 0 words) /. float_of_int fired);
      m "simulated_time" "itimes" (float_of_int !end_time);
      m "programs_per_s" "programs/s" (Common.per_second compiles);
      m "graph_cells" "cells" (float_of_int (Array.fold_left ( + ) 0 cells));
      m "latency_p50_ms" "ms" (Common.median (Common.median_ms compiles));
      m "latency_p99_ms" "ms" (Common.quantile (Common.median_ms compiles) 0.99);
      m "slo_met_frac" "fraction" (float_of_int (max ok 0) /. float_of_int !attempted);
      m "peak_heap_mb" "MB" (Common.peak_heap_mb ());
      m "setup_s" "s" (Common.median_normalised setups) ]
  in
  ( { Common.attempted = !attempted;
      failed = checks.Common.bad;
      failures = List.rev checks.Common.msgs;
      e2e;
      layers = (if trace then Layers.metrics lay else []);
      extra_layers = [] },
    lay )
