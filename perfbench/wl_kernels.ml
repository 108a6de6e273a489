(* kernels-sim and kernels-machine: the eight kernels of [Kernels.all],
   compiled in set-up, each run for [waves engine] waves on one engine, pass
   after pass, until the time is up.  One caller, batch.  Each pass also
   repeats the set-up, timed apart from the runs, so that the set-up and
   compile samples are spread over the run like the engine samples.

   Checks: the first pass's outputs against [Kernels.reference]
   (hand-written OCaml, not the compiler); the two engines against each
   other, value for value; and every later pass against the first —
   same digest, same firings, same end time and the same allocated
   words, since all of these repeat exactly. *)

module PC = Compiler.Program_compile

let size = 128

(* waves per run: the machine is about four times slower per firing, so
   with a quarter of the waves a machine run takes about as long as a
   sim run *)
let waves = function `Sim -> 100 | `Machine -> 25

(* waves of the short machine run that cross-checks kernels-sim *)
let machine_check_waves = 4

type subject = {
  kernel : Kernels.kernel;
  compiled : Layers.compiled;
  wave : (string * Dfg.Value.t list) list;  (** one input wave *)
  feeds : (string * Dfg.Value.t list) list;  (** [waves engine] waves *)
}

type first_pass = {
  digest : int;
  firings : int;
  words : int;
  end_time : int;
}

(* One set-up: compile the kernels, then draw their inputs.  Returns the
   subjects, the set-up's time and the compiles' time. *)
let set_up lay ~engine ~seed =
  let t0 = Common.now () in
  let compiled =
    List.map
      (fun (k : Kernels.kernel) ->
        ( k,
          Layers.compile lay ~key:k.Kernels.name
            ~scalar_inputs:k.Kernels.scalar_inputs (k.Kernels.source size) ))
      Kernels.all
  in
  let t1 = Common.now () in
  let subjects =
    List.map
      (fun ((k : Kernels.kernel), compiled) ->
        let st = Random.State.make [| seed; Hashtbl.hash k.Kernels.name |] in
        let wave = k.Kernels.inputs size st in
        { kernel = k;
          compiled;
          wave;
          feeds = Runspec.feeds compiled.Layers.cp ~waves:(waves engine) wave })
      compiled
  in
  (subjects, Common.now () -. t0, t1 -. t0)

let first_wave (s : subject) (o : Exec.Outcome.t) =
  let shape = List.assoc s.kernel.Kernels.output s.compiled.Layers.cp.PC.cp_outputs in
  List.filteri
    (fun i _ -> i < PC.wave_size shape)
    (Exec.Outcome.output_values o s.kernel.Kernels.output)

let check_reference checks (s : subject) values =
  let expected = s.kernel.Kernels.reference size s.wave in
  let got = List.map Dfg.Value.to_real values in
  if
    List.length got <> List.length expected
    || not
         (List.for_all2
            (fun g e -> Float.abs (g -. e) <= 1e-9 *. Float.max 1.0 (Float.abs e))
            got expected)
  then
    Common.fail checks "%s: output differs from Kernels.reference"
      s.kernel.Kernels.name

let run ~engine ~seed ~seconds ~trace ~corrupt =
  let lay = Layers.create ~trace in
  let checks = Common.checks () in
  let setups = Common.samples () and compiles = Common.samples () in
  let set_up_timed () =
    let subjects, setup, compile = set_up lay ~engine ~seed in
    Common.record setups setup;
    Common.record compiles compile;
    subjects
  in
  let subjects = set_up_timed () in
  List.iter
    (fun s ->
      if
        not
          (Layers.compile_equivalent ~scalar_inputs:s.kernel.Kernels.scalar_inputs
             (s.kernel.Kernels.source size) s.compiled)
      then
        Common.fail checks "%s: split compile differs from the default compile"
          s.kernel.Kernels.name)
    subjects;
  let first = Hashtbl.create 8 in
  let attempted = ref 0 and firings = Common.rate () in
  let latencies = Common.rate () in
  let deadline = Common.now () +. seconds in
  let pass = ref 0 in
  while !pass = 0 || Common.now () < deadline do
    ignore (set_up_timed ());
    List.iter
      (fun s ->
        let name = s.kernel.Kernels.name in
        Common.reference ();
        incr attempted;
        let t0 = Common.now () in
        match
          Layers.run lay ~key:name engine s.compiled.Layers.cp.PC.cp_graph
            ~feeds:s.feeds
        with
        | exception e ->
          Common.fail checks "%s: engine raised %s" name (Printexc.to_string e)
        | r ->
          Common.add_sample latencies name ~work:1 ~seconds:(Common.now () -. t0);
          Common.add_sample firings name ~work:r.Layers.firings
            ~seconds:r.Layers.engine_s;
          let seen =
            { digest = r.Layers.digest;
              firings = r.Layers.firings;
              words = r.Layers.words;
              end_time = r.Layers.outcome.Exec.Outcome.end_time }
          in
          if !pass = 0 then begin
            Hashtbl.replace first name (seen, r.Layers.outcome);
            let outputs =
              if corrupt then Common.corrupt_outputs r.Layers.outcome.Exec.Outcome.outputs
              else r.Layers.outcome.Exec.Outcome.outputs
            in
            check_reference checks s
              (first_wave s { r.Layers.outcome with Exec.Outcome.outputs })
          end
          else if seen <> fst (Hashtbl.find first name) then
            Common.fail checks
              "%s: pass %d differs from pass 0 in digest, firings, end time \
               or allocated words"
              name !pass)
      subjects;
    incr pass
  done;
  (* the engine this workload does not time, on the same inputs *)
  List.iter
    (fun s ->
      let name = s.kernel.Kernels.name in
      match Hashtbl.find_opt first name with
      | None -> ()
      | Some (_, timed) -> (
        let other, check_waves, reference =
          match engine with
          | `Sim ->
            (* a short machine run against a sim run of the same length *)
            let feeds = Runspec.feeds s.compiled.Layers.cp ~waves:machine_check_waves s.wave in
            let sim =
              Layers.run lay ~key:(name ^ "/check") `Sim
                s.compiled.Layers.cp.PC.cp_graph ~feeds
            in
            (`Machine, machine_check_waves, sim.Layers.outcome)
          | `Machine -> (`Sim, waves `Machine, timed)
        in
        let feeds = Runspec.feeds s.compiled.Layers.cp ~waves:check_waves s.wave in
        match
          Layers.run lay ~key:(name ^ "/check") other
            s.compiled.Layers.cp.PC.cp_graph ~feeds
        with
        | exception e ->
          Common.fail checks "%s: cross-check engine raised %s" name
            (Printexc.to_string e)
        | r ->
          if
            not
              (Common.same_values r.Layers.outcome.Exec.Outcome.outputs
                 reference.Exec.Outcome.outputs)
          then
            Common.fail checks "%s: machine and sim outputs differ" name))
    subjects;
  let pass0 = Hashtbl.fold (fun _ (p, _) acc -> p :: acc) first [] in
  let total f = float_of_int (List.fold_left (fun a p -> a + f p) 0 pass0) in
  let m = Common.metric in
  let ok = !attempted - checks.Common.bad in
  let e2e =
    [ m "firings_per_s" "firings/s" (Common.per_second firings);
      m "alloc_words_per_firing" "words"
        (total (fun p -> p.words) /. total (fun p -> p.firings));
      m "simulated_time" "itimes" (total (fun p -> p.end_time));
      m "programs_per_s" "programs/s"
        (float_of_int (List.length Kernels.all) /. Common.median_normalised compiles);
      m "graph_cells" "cells"
        (float_of_int
           (List.fold_left (fun a s -> a + Layers.cells s.compiled) 0 subjects));
      m "latency_p50_ms" "ms" (Common.median (Common.median_ms latencies));
      m "latency_p99_ms" "ms" (Common.quantile (Common.median_ms latencies) 0.99);
      m "slo_met_frac" "fraction"
        (float_of_int (max ok 0) /. float_of_int !attempted);
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
