(* perfbench: run one seeded workload, check its outputs and print its
   metrics.  The last line of standard output is one JSON object:
     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
   holding the end-to-end metrics (--trace 0) or the per-layer metrics
   of a traced run (--trace 1).  The exit code is 0 only when every
   check passed.  See README.md for the workloads and metrics. *)

module J = Obs.Json

let workloads = [ "kernels-sim"; "kernels-machine"; "deep-compile"; "serve-mixed" ]

(* Counts that must repeat exactly between runs of the same code with
   the same workload, seed, length and tracing. *)
let exact_counts =
  [ "alloc_words_per_firing"; "simulated_time"; "graph_cells"; "sim.firings";
    "machine.dispatches" ]

(* The code under test: a digest of this executable (which links every
   library it calls) and of the dfserve it drives. *)
let build_id ~dfserve =
  String.concat "+"
    (List.filter_map
       (fun path ->
         try Some (Digest.to_hex (Digest.file path)) with Sys_error _ -> None)
       [ Sys.executable_name; dfserve ])

(* The exact counts of [now] that differ from those of an earlier result
   file [path] of the same build and length; none when there is no such
   file. *)
let repeat_failures path ~build ~seconds now =
  match J.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | exception _ -> []
  | stored
    when J.get_string (J.member "build" stored) = Some build
         && J.get_float (J.member "seconds" stored) = Some seconds ->
    let earlier name =
      List.find_map
        (fun group ->
          try J.get_float (J.member "value" (J.member name (J.member group stored)))
          with _ -> None)
        [ "metrics"; "layers" ]
    in
    List.filter_map
      (fun m ->
        match earlier m.Common.name with
        | Some v when List.mem m.Common.name exact_counts && v <> m.Common.value ->
          Some
            (Printf.sprintf "%s is %.17g; an earlier run of this build and seed gave %.17g"
               m.Common.name m.Common.value v)
        | _ -> None)
      now
  | _ -> []

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
    \                 [--dfserve PATH] [--corrupt]\n\
     workloads: kernels-sim kernels-machine deep-compile serve-mixed";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref false and corrupt = ref false in
  let dfserve = ref "_build/default/bin/dfserve.exe" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := v = "1"; parse rest
    | "--dfserve" :: v :: rest -> dfserve := v; parse rest
    | "--corrupt" :: rest -> corrupt := true; parse rest
    | a :: _ -> prerr_endline ("perfbench: unknown argument " ^ a); usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv))
   with Failure _ -> usage ());
  if not (List.mem !workload workloads) then usage ();
  let host = Common.host_fields () in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%b\nhost: %s\n%!"
    !workload !seed !seconds !trace
    (String.concat " "
       (List.map (fun (k, v) -> k ^ "=" ^ J.to_string v) host));
  let seed = !seed and seconds = !seconds and trace = !trace in
  let corrupt = !corrupt in
  let result, lay =
    match !workload with
    | "kernels-sim" -> Wl_kernels.run ~engine:`Sim ~seed ~seconds ~trace ~corrupt
    | "kernels-machine" ->
      Wl_kernels.run ~engine:`Machine ~seed ~seconds ~trace ~corrupt
    | "deep-compile" -> Wl_deep.run ~seed ~seconds ~trace ~corrupt
    | _ -> Wl_serve.run ~dfserve:!dfserve ~seed ~seconds ~trace ~corrupt
  in
  let host = host @ [ ("reference_ms", J.Float (Common.reference_ms ())) ] in
  Printf.printf "reference_ms=%.3f\n" (Common.reference_ms ());
  let shown = if trace then result.Common.layers else result.Common.e2e in
  Common.make_out_dir ();
  let stem t =
    Printf.sprintf "%s/%s-seed%d-trace%d" Common.out_dir !workload seed t
  in
  let build = build_id ~dfserve:!dfserve in
  let not_repeated =
    repeat_failures
      (stem (if trace then 1 else 0) ^ ".json")
      ~build ~seconds
      (result.Common.e2e @ result.Common.layers)
  in
  let not_finite =
    List.filter (fun m -> not (Float.is_finite m.Common.value)) shown
  in
  let failures =
    result.Common.failures
    @ List.map (fun m -> "metric " ^ m.Common.name ^ " is not finite") not_finite
    @ not_repeated
  in
  let correct = failures = [] && result.Common.failed = 0 in
  (* a failed check may not belong to one operation, so [failed] is
     capped at [attempted] *)
  let failed =
    if correct then 0
    else min result.Common.attempted (max 1 result.Common.failed)
  in
  let failed_frac =
    float_of_int failed /. float_of_int (max 1 result.Common.attempted)
  in
  let print_metrics title ms =
    Printf.printf "%s\n" title;
    List.iter
      (fun m ->
        Printf.printf "  %-36s %16.6g %s\n" m.Common.name m.Common.value m.Common.unit)
      ms
  in
  print_metrics
    (if trace then "end-to-end (traced run):" else "end-to-end:")
    (result.Common.e2e @ [ Common.metric "failed_frac" "fraction" failed_frac ]);
  (* files: this run's result, and for a traced run its spans *)
  let to_json ms =
    J.Obj
      (List.map
         (fun m ->
           ( m.Common.name,
             J.Obj [ ("value", J.Float m.Common.value); ("unit", J.String m.Common.unit) ] ))
         ms)
  in
  if trace then begin
    print_metrics "per-layer:" (result.Common.layers @ result.Common.extra_layers);
    print_endline "self time by span:";
    Spans.print_self_times lay.Layers.tr;
    let path = stem 1 ^ ".trace.json" in
    J.write_file path (Spans.to_chrome_json lay.Layers.tr);
    Printf.printf "trace: %s\n" path;
    (* tracing overhead against the untraced run of the same seed and
       length *)
    let plain =
      match J.of_string (In_channel.with_open_bin (stem 0 ^ ".json") In_channel.input_all) with
      | j when J.get_float (J.member "seconds" j) = Some seconds -> Some j
      | _ | (exception _) -> None
    in
    match plain with
    | None ->
      print_endline "tracing overhead: no untraced result for this seed and length"
    | Some plain ->
      print_endline "tracing overhead (traced / untraced - 1):";
      List.iter
        (fun m ->
          match
            J.get_float
              (J.member "value" (J.member m.Common.name (J.member "metrics" plain)))
          with
          | Some v when v <> 0.0 ->
            Printf.printf "  %-36s %+8.2f%%\n" m.Common.name
              (100.0 *. ((m.Common.value /. v) -. 1.0))
          | _ | (exception _) -> ())
        result.Common.e2e
  end;
  J.write_file
    (stem (if trace then 1 else 0) ^ ".json")
    (J.Obj
       [ ("workload", J.String !workload);
         ("seed", J.Int seed);
         ("seconds", J.Float seconds);
         ("trace", J.Bool trace);
         ("build", J.String build);
         ("host", J.Obj host);
         ("correct", J.Bool correct);
         ("failures", J.List (List.map (fun s -> J.String s) failures));
         ("metrics", to_json result.Common.e2e);
         ("layers", to_json (result.Common.layers @ result.Common.extra_layers)) ]);
  List.iter (fun f -> Printf.printf "FAILED: %s\n" f) failures;
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool correct);
            ("attempted", J.Int result.Common.attempted);
            ("failed", J.Int failed);
            ("metrics", to_json shown) ]));
  exit (if correct then 0 else 1)
