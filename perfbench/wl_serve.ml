(* serve-mixed: a dfserve child process (one worker, a journal, no idle
   timeout) driven open-loop at a fixed rate by this process over one
   Unix-socket connection, with pipelined request ids.  The server runs
   alone on one CPU and this process on another ([pin]).

   The journal is not fsynced: on a shared disk the time of an fsync
   wanders from 0.1 ms to several ms over minutes, which moved the
   median latency threefold between runs of the same code.  The traced
   replay still times fsynced appends ([serve.journal_append_ms]).

   Every request carries an idempotency key, so every request is
   journaled.  Most are simulate requests for the kernels at a small
   size, which hit the compiled-program cache warmed in set-up; one in
   [miss_every] is a distinct generated program of 15-35 blocks, which
   the server compiles inline on its event loop.  A request is timed
   from when it was due, not from when it was sent, so a stall counts
   against every request queued behind it.

   The engine and compile rates of this workload come from the
   standalone checks below, not from the live phase, whose length the
   offered rate fixes: firings per second of [Exec.Job.run], each
   distinct program at its median time, and compiles per second of
   [Server.subject_of_program] on the programs that missed the cache.

   Checks: every request answered ok; every served digest and end time
   equal to those of a standalone [Exec.Job.run] built from
   [Server.subject_of_program] and [Server.config_of_run]; the machine
   engine equal to the sim on every distinct program, value for value.

   The traced run also replays the schedule in this process through the
   functions the server calls — decode, cache lookup, compile on a miss,
   input synthesis, [Exec.Job]'s engine call and outcome, encode, and two
   journal appends with fsync — and times each. *)

module P = Serve.Protocol
module J = Obs.Json
module PC = Compiler.Program_compile

(* requests per second: the rate of the pilot in README.md, where one
   inline miss compile queues one or two requests *)
let rate = 40.0
let kernel_size = 64
let waves = 4
let miss_every = 33
let miss_blocks_lo = 15
let miss_blocks_hi = 35
let slo_ms = 50.0
let drain_s = 20.0
let stats_id = 1_000_000

(* The live phase times the host-speed reference loop (a few ms) every
   [reference_every_s], in a gap of at least [reference_gap_s] with no
   request outstanding, so that it never delays a send or a response. *)
let reference_every_s = 0.2
let reference_gap_s = 0.015

(* set-ups before the live phase and again after the checks; [setup_s]
   is their median *)
let setup_repeats = 15

(* standalone compiles and runs of each missed program, a single
   sample otherwise; the median is kept *)
let miss_repeats = 5

let repeats = function P.Source _ -> miss_repeats | P.Kernel _ -> 1

type request = { rid : int; due : float; run : P.run }

(* The request schedule: a fixed mix — kernels in shuffled rounds, every
   [miss_every]-th request a miss, miss sizes spread evenly over the
   block range — whose details the seed chooses.  Misses are evenly
   spaced, so two inline compiles never queue behind each other; two
   misses close together would add their stalls, and the p99 latency
   would move with where the seed put them. *)
let schedule ~seed ~seconds =
  let st = Random.State.make [| 0x5e7e; seed |] in
  let n = max miss_every (int_of_float (rate *. seconds)) in
  let misses = n / miss_every in
  let miss_at = Hashtbl.create misses in
  let offset = Random.State.int st miss_every in
  for b = 0 to misses - 1 do
    Hashtbl.replace miss_at ((b * miss_every) + offset) b
  done;
  let programs =
    Array.of_list
      (List.mapi
         (fun j blocks ->
           let p = Deep_gen.generate ~seed ~index:(1000 + j) ~blocks in
           P.Source { source = p.Deep_gen.source; scalars = []; input_seed = seed + j })
         (Deep_gen.stratified ~count:misses ~lo:miss_blocks_lo
            ~hi:miss_blocks_hi))
  in
  ignore (Deep_gen.shuffled st programs);
  let kernels = Array.of_list Kernels.all in
  let round = ref [||] and next = ref 0 in
  let next_kernel () =
    if !next >= Array.length !round then begin
      round := Array.copy kernels;
      ignore (Deep_gen.shuffled st !round);
      next := 0
    end;
    incr next;
    !round.(!next - 1)
  in
  Array.init n (fun i ->
      let program =
        match Hashtbl.find_opt miss_at i with
        | Some b -> programs.(b)
        | None ->
          P.Kernel { name = (next_kernel ()).Kernels.name; size = kernel_size }
      in
      { rid = i + 1;
        due = float_of_int i /. rate;
        run =
          { (P.default_run program) with
            P.waves;
            idem = Some (Printf.sprintf "perfbench-%d-%d" seed i) } })

(* ---- the server child ------------------------------------------------ *)

type server = { pid : int; fd : Unix.file_descr; buf : Buffer.t }

(* The live child, killed at exit if a failure left it running. *)
let child = ref None

let () =
  at_exit (fun () ->
      match !child with
      | None -> ()
      | Some pid -> (
        child := None;
        try
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid)
        with Unix.Unix_error _ -> ()))

let send_line s line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write s.fd b off (Bytes.length b - off))
  in
  go 0

let send s ~id req = send_line s (J.to_string (P.request_to_json ~id req))

(* Complete response lines available within [timeout] seconds. *)
let recv_lines s ~timeout =
  match Unix.select [ s.fd ] [] [] (Float.max 0.0 timeout) with
  | [], _, _ -> []
  | _ ->
    let chunk = Bytes.create 65536 in
    let n = Unix.read s.fd chunk 0 65536 in
    if n = 0 then failwith "server closed the connection";
    Buffer.add_subbytes s.buf chunk 0 n;
    let text = Buffer.contents s.buf in
    let parts = String.split_on_char '\n' text in
    let rec split acc = function
      | [ rest ] ->
        Buffer.clear s.buf;
        Buffer.add_string s.buf rest;
        List.rev acc
      | line :: rest -> split (line :: acc) rest
      | [] -> List.rev acc
    in
    split [] parts

let rec wait_exit pid ~until =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when Common.now () < until ->
    Unix.sleepf 0.02;
    wait_exit pid ~until
  | 0, _ ->
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid)
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid ~until

let stop s =
  (try send s ~id:(stats_id - 1) P.Shutdown with Unix.Unix_error _ -> ());
  wait_exit s.pid ~until:(Common.now () +. 15.0);
  child := None;
  (try Unix.close s.fd with Unix.Unix_error _ -> ())

let remove path = try Sys.remove path with Sys_error _ -> ()

(* Spawn a server on a fresh journal and connect to it. *)
let spawn ~dfserve ~cpu ~socket ~journal =
  remove journal;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let args =
    [| dfserve; "--socket"; socket; "--workers"; "1"; "--journal"; journal;
       "--no-fsync"; "--idle-timeout"; "0" |]
  in
  let pid =
    match cpu with
    | None -> Unix.create_process dfserve args devnull devnull devnull
    | Some cpu ->
      Unix.create_process "taskset"
        (Array.append [| "taskset"; "-c"; string_of_int cpu |] args)
        devnull devnull devnull
  in
  child := Some pid;
  Unix.close devnull;
  let until = Common.now () +. 20.0 in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception Unix.Unix_error _ when Common.now () < until ->
      Unix.close fd;
      Unix.sleepf 0.005;
      connect ()
  in
  { pid; fd = connect (); buf = Buffer.create 65536 }

(* The CPUs this process may run on ([Cpus_allowed_list] in
   /proc/self/status, as "0-3,6"). *)
let allowed_cpus () =
  let range r =
    match String.split_on_char '-' (String.trim r) with
    | [ a ] -> [ int_of_string a ]
    | [ a; b ] -> List.init (int_of_string b - int_of_string a + 1) (( + ) (int_of_string a))
    | _ -> []
  in
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> []
  | status ->
    List.concat_map
      (fun line ->
        match String.split_on_char ':' line with
        | [ "Cpus_allowed_list"; l ] -> (
          try List.concat_map range (String.split_on_char ',' l) with Failure _ -> [])
        | _ -> [])
      (String.split_on_char '\n' status)

(* The server runs alone on one CPU and this process on another.  Left
   to the scheduler, the server's two domains (event loop and worker)
   spread over both CPUs, and each stop-the-world minor collection waited
   for the other CPU to wake up: an inline miss compile stalled the loop
   for up to 330 ms instead of 140, and the latencies moved with the
   host's load.  Pins this process with [taskset] and returns the CPU
   for the server; [None], and nothing pinned, when there are fewer than
   two CPUs or no [taskset]. *)
let pin () =
  match List.rev (allowed_cpus ()) with
  | server :: mine :: _ -> (
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let status =
      try
        let pid =
          Unix.create_process "taskset"
            [| "taskset"; "-p"; "-c"; string_of_int mine; string_of_int (Unix.getpid ()) |]
            devnull devnull devnull
        in
        Some (snd (Unix.waitpid [] pid))
      with Unix.Unix_error _ -> None
    in
    Unix.close devnull;
    match status with Some (Unix.WEXITED 0) -> Some server | _ -> None)
  | _ -> None

(* Set-up: spawn, then compile every kernel through the cache; done at
   the last ok answer. *)
let set_up ~dfserve ~cpu ~socket ~journal =
  let s = spawn ~dfserve ~cpu ~socket ~journal in
  List.iteri
    (fun i (k : Kernels.kernel) ->
      send s ~id:(i + 1)
        (P.Compile (P.Kernel { name = k.Kernels.name; size = kernel_size })))
    Kernels.all;
  let pending = ref (List.length Kernels.all) in
  let until = Common.now () +. 30.0 in
  while !pending > 0 do
    if Common.now () > until then failwith "set-up: no answer to warm-up compiles";
    List.iter
      (fun line ->
        if P.response_ok (J.of_string line) then decr pending
        else failwith ("set-up: warm-up compile failed: " ^ line))
      (recv_lines s ~timeout:0.1)
  done;
  s

let vm_hwm_mb pid =
  match
    In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid)
      In_channel.input_all
  with
  | exception Sys_error _ -> nan
  | status ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf (String.trim v) "%d kB" (fun kb -> float_of_int kb *. 1024.0 /. 1e6)
        | _ -> acc)
      nan
      (String.split_on_char '\n' status)

(* ---- the open loop --------------------------------------------------- *)

type answer = {
  at : float;  (** when the response arrived *)
  latency_ms : float;
  ok : bool;
  digest : int option;
  end_time : int option;
}

type live = {
  answers : (int, answer) Hashtbl.t;
  lags_ms : float list;
  queue_depth_max : int;
  cache_hits : int;
  cache_misses : int;
}

let drive s lay reqs ~trace =
  let answers = Hashtbl.create (Array.length reqs) in
  let n = Array.length reqs in
  let lags = ref [] and depth = ref 0 and hits = ref 0 and misses = ref 0 in
  let polls = ref 0 in
  let start = Common.now () +. 0.05 in
  let last_due = start +. reqs.(n - 1).due in
  let next_poll = ref start and next_reference = ref start in
  let sent = ref 0 in
  let handle line =
    let j = J.of_string line in
    match P.response_id j with
    | Some id when id >= stats_id ->
      let int k = Option.value ~default:0 (J.get_int (J.member k j)) in
      depth := max !depth (int "queue_depth");
      hits := int "cache_hits";
      misses := int "cache_misses"
    | Some id when id >= 1 && id <= n && not (Hashtbl.mem answers id) ->
      let r = reqs.(id - 1) in
      let t = Common.now () in
      Spans.record lay.Layers.tr ~rid:id "serve.wire" ~start:(start +. r.due) ~stop:t;
      Hashtbl.replace answers id
        { at = t;
          latency_ms = (t -. (start +. r.due)) *. 1000.0;
          ok = P.response_ok j;
          digest = J.get_int (J.member "digest" j);
          end_time = J.get_int (J.member "end_time" j) }
    | _ -> ()
  in
  while
    (!sent < n || Hashtbl.length answers < n) && Common.now () < last_due +. drain_s
  do
    let t = Common.now () in
    if !sent < n && t >= start +. reqs.(!sent).due then begin
      let r = reqs.(!sent) in
      lags := (t -. (start +. r.due)) *. 1000.0 :: !lags;
      send s ~id:r.rid (P.Simulate r.run);
      incr sent
    end
    else if
      t >= !next_reference && !sent < n
      && Hashtbl.length answers = !sent
      && start +. reqs.(!sent).due -. t > reference_gap_s
    then begin
      (* the host-speed reference, in a gap with nothing outstanding *)
      Common.reference ();
      next_reference := t +. reference_every_s
    end
    else begin
      if trace && t >= !next_poll && !sent < n then begin
        send s ~id:(stats_id + !polls) P.Stats;
        incr polls;
        next_poll := t +. 0.25
      end;
      let wake =
        if !sent < n then start +. reqs.(!sent).due else last_due +. drain_s
      in
      List.iter handle (recv_lines s ~timeout:(Float.min 0.05 (wake -. t)))
    end
  done;
  if trace then begin
    (* one last poll for the final cache counters *)
    send s ~id:(stats_id + !polls) P.Stats;
    let until = Common.now () +. 5.0 in
    let before = !hits + !misses in
    while !hits + !misses = before && Common.now () < until do
      List.iter handle (recv_lines s ~timeout:0.1)
    done
  end;
  { answers;
    lags_ms = !lags;
    queue_depth_max = !depth;
    cache_hits = !hits;
    cache_misses = !misses }

(* ---- standalone checks and the traced replay ------------------------- *)

type subject = { graph : Dfg.Graph.t; feeds : (string * Dfg.Value.t list) list; name : string }

(* The server's input synthesis ([Server.inputs_of_program]): kernels
   draw from a PRNG seeded by the kernel's name, sources synthesize each
   wave from the request's input seed. *)
let inputs_of program (cp : PC.compiled) =
  match program with
  | P.Kernel { name; size } ->
    let k = Kernels.find name in
    let st = Random.State.make [| Hashtbl.hash k.Kernels.name |] in
    Runspec.feeds cp ~waves (k.Kernels.inputs size st)
  | P.Source { input_seed; _ } ->
    Runspec.feeds cp ~waves
      (List.map
         (fun (name, shape) ->
           ( name,
             Runspec.synth_wave ~seed:input_seed
               ~elt:shape.Val_lang.Classify.sh_elt ~size:(PC.wave_size shape)
               name ))
         cp.PC.cp_inputs)

let source_of = function
  | P.Kernel { name; size } ->
    let k = Kernels.find name in
    (k.Kernels.source size, k.Kernels.scalar_inputs)
  | P.Source { source; scalars; _ } -> (source, scalars)

(* The traced replay: each request through the calls the server makes,
   in schedule order, one span each.  Each replayed digest must equal the
   served one.  Returns the replayed service time per request id. *)
let replay lay checks reqs ~answers ~journal_path =
  let cache = Serve.Lru.create ~capacity:32 in
  let jr = Serve.Journal.open_append ~fsync:true journal_path in
  let service = Hashtbl.create (Array.length reqs) in
  let compile key program =
    let source, scalar_inputs = source_of program in
    Layers.compile lay ~key:(string_of_int key) ~scalar_inputs source
  in
  List.iter
    (fun (k : Kernels.kernel) ->
      let program = P.Kernel { name = k.Kernels.name; size = kernel_size } in
      let key = Serve.Server.program_key program in
      Serve.Lru.add cache key (compile key program))
    Kernels.all;
  Array.iter
    (fun r ->
      let rid = r.rid in
      let sp name f = Layers.span lay ~rid name f in
      let line = J.to_string (P.request_to_json ~id:rid (P.Simulate r.run)) in
      let t0 = Common.now () in
      sp "serve.request" (fun () ->
          match sp "serve.decode" (fun () -> P.request_of_json (J.of_string line)) with
          | Ok (id, P.Simulate run) ->
            let idem = Option.get run.P.idem in
            let key, cached =
              sp "serve.lookup" (fun () ->
                  let key = Serve.Server.program_key run.P.program in
                  (key, Serve.Lru.find cache key))
            in
            let c =
              match cached with
              | Some c -> c
              | None ->
                sp "serve.compile" (fun () ->
                    let c = compile key run.P.program in
                    Serve.Lru.add cache key c;
                    c)
            in
            let request = P.request_to_json ~id:0 (P.Simulate run) in
            sp "serve.journal_append" (fun () ->
                Serve.Journal.append jr (Serve.Journal.Admit { idem; request }));
            let feeds =
              sp "serve.inputs" (fun () -> inputs_of run.P.program c.Layers.cp)
            in
            let res =
              sp "serve.run" (fun () ->
                  Layers.run lay ~key:(string_of_int key) `Sim
                    c.Layers.cp.PC.cp_graph ~feeds)
            in
            (match Hashtbl.find_opt answers rid with
            | Some a when a.digest <> Some res.Layers.digest ->
              Common.fail checks "replay: request %d differs from the served one" rid
            | _ -> ());
            let response =
              sp "serve.encode" (fun () ->
                  let j =
                    P.ok ~id ~verb:"simulate"
                      (P.outcome_fields ~cache_hit:(cached <> None) ~key
                         res.Layers.outcome)
                  in
                  ignore (Sys.opaque_identity (J.to_string j));
                  j)
            in
            sp "serve.journal_append" (fun () ->
                Serve.Journal.append jr
                  (Serve.Journal.Done
                     { idem; response; digest = Some res.Layers.digest }))
          | Ok _ | Error _ -> Common.fail checks "replay: request %d did not decode" rid);
      Hashtbl.replace service rid ((Common.now () -. t0) *. 1000.0))
    reqs;
  Serve.Journal.close jr;
  remove journal_path;
  service

let run ~dfserve ~seed ~seconds ~trace ~corrupt =
  let lay = Layers.create ~trace in
  let checks = Common.checks () in
  let reqs = schedule ~seed ~seconds in
  let n = Array.length reqs in
  Common.make_out_dir ();
  (* a dead server must surface as EPIPE, not kill this process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let server_cpu = pin () in
  Printf.printf "cpus: %s\n%!"
    (match server_cpu with
    | Some cpu -> Printf.sprintf "dfserve alone on cpu %d, this process on another" cpu
    | None -> "not pinned");
  let tag = Printf.sprintf "%s/s%d" Common.out_dir (Unix.getpid ()) in
  let socket = tag ^ ".sock" and journal = tag ^ ".wal" in
  (* set up [setup_repeats] times, each server stopped before the next
     starts; the last one is returned running *)
  let setups = Common.samples () in
  let rec set_up_n k =
    let t0 = Common.now () in
    let s = set_up ~dfserve ~cpu:server_cpu ~socket ~journal in
    Common.record setups (Common.now () -. t0);
    if k = 1 then s
    else begin
      stop s;
      Common.reference ();
      set_up_n (k - 1)
    end
  in
  let s = set_up_n setup_repeats in
  let live = drive s lay reqs ~trace in
  let peak_mb = vm_hwm_mb s.pid in
  stop s;
  (* standalone runs of every request: digest and end time must match *)
  let subjects = Hashtbl.create 64 in
  let compiles = Common.rate () and engine = Common.rate () in
  let subject program =
    let key = Serve.Server.program_key program in
    match Hashtbl.find_opt subjects key with
    | Some sub -> sub
    | None ->
      let repeats = repeats program in
      let seconds, compiled =
        Common.median_time repeats (fun () ->
            Serve.Server.subject_of_program program ~waves)
      in
      let sub =
        match compiled with
        | Ok (graph, feeds, name) ->
          if repeats > 1 then
            Common.add_sample compiles (string_of_int key) ~work:1 ~seconds;
          Some { graph; feeds; name }
        | Error e ->
          Common.fail checks "standalone compile failed: %s" e;
          None
      in
      Hashtbl.replace subjects key sub;
      sub
  in
  let words = ref 0 and fired = ref 0 in
  let end_time = ref 0 and alloc_seen = Hashtbl.create 64 in
  let latencies = ref [] and slo_met = ref 0 in
  Array.iter
    (fun r ->
      if r.rid mod 20 = 0 then Common.reference ();
      match Hashtbl.find_opt live.answers r.rid with
      | None -> Common.fail checks "request %d: no response" r.rid
      | Some a when not a.ok -> Common.fail checks "request %d: error response" r.rid
      | Some a -> (
        latencies := Common.normalised ~at:a.at a.latency_ms :: !latencies;
        match (subject r.run.P.program, Serve.Server.config_of_run r.run) with
        | None, _ -> ()
        | _, Error e -> Common.fail checks "request %d: %s" r.rid e
        | Some sub, Ok (config, _) ->
          let job =
            Exec.Job.make ~name:sub.name ~config (Exec.Job.Graph_program sub.graph)
              ~inputs:sub.feeds
          in
          let o, seconds, w = Common.measured (fun () -> Exec.Job.run job) in
          let f = o.Exec.Outcome.counters.Exec.Outcome.firings in
          let key = Serve.Server.program_key r.run.P.program in
          Common.add_sample engine (string_of_int key) ~work:f ~seconds;
          for _ = 2 to repeats r.run.P.program do
            let _, seconds, _ = Common.measured (fun () -> Exec.Job.run job) in
            Common.add_sample engine (string_of_int key) ~work:f ~seconds
          done;
          fired := !fired + f;
          words := !words + w;
          end_time := !end_time + Option.value ~default:0 a.end_time;
          (match Hashtbl.find_opt alloc_seen key with
          | Some w' when w' <> w ->
            Common.fail checks "request %d: allocated words %d, earlier %d" r.rid w w'
          | _ -> Hashtbl.replace alloc_seen key w);
          let digest = Exec.Outcome.digest o in
          let served =
            if corrupt && r.rid = 1 then Option.map (fun d -> d lxor 1) a.digest
            else a.digest
          in
          if served <> Some digest || a.end_time <> Some o.Exec.Outcome.end_time
          then Common.fail checks "request %d: served result differs from standalone" r.rid
          else if a.latency_ms <= slo_ms then incr slo_met))
    reqs;
  (* every distinct program on both engines *)
  Hashtbl.iter
    (fun key sub ->
      match sub with
      | None -> ()
      | Some sub ->
        let k = string_of_int key in
        let sim = Layers.run lay ~key:k `Sim sub.graph ~feeds:sub.feeds in
        let m = Layers.run lay ~key:k `Machine sub.graph ~feeds:sub.feeds in
        if
          not
            (Common.same_values sim.Layers.outcome.Exec.Outcome.outputs
               m.Layers.outcome.Exec.Outcome.outputs)
        then Common.fail checks "%s: machine and sim outputs differ" sub.name)
    subjects;
  let s = set_up_n setup_repeats in
  stop s;
  remove journal;
  remove socket;
  let extra =
    if not trace then []
    else begin
      let service =
        replay lay checks reqs ~answers:live.answers
          ~journal_path:(tag ^ "-replay.wal")
      in
      let waits =
        Array.to_list reqs
        |> List.filter_map (fun r ->
               match (Hashtbl.find_opt live.answers r.rid, Hashtbl.find_opt service r.rid) with
               | Some a, Some sv when a.ok -> Some (a.latency_ms -. sv)
               | _ -> None)
      in
      let m = Common.metric in
      let pct name d =
        [ m (name ^ ".p50") "ms" (Common.median d); m (name ^ ".p99") "ms" (Common.quantile d 0.99) ]
      in
      List.concat_map
        (fun (span, name) -> pct name (Spans.durations_ms lay.Layers.tr span))
        [ ("serve.decode", "serve.decode_ms"); ("serve.lookup", "serve.lookup_ms");
          ("serve.compile", "serve.compile_ms"); ("serve.inputs", "serve.inputs_ms");
          ("serve.run", "serve.run_ms"); ("serve.encode", "serve.encode_ms");
          ("serve.journal_append", "serve.journal_append_ms") ]
      @ pct "serve.queue_wait_ms" waits
      @ [ m "serve.queue_depth_max" "count" (float_of_int live.queue_depth_max);
          m "serve.cache_hit_ratio" "fraction"
            (float_of_int live.cache_hits
            /. float_of_int (max 1 (live.cache_hits + live.cache_misses))) ]
      @ pct "serve.generator_lag_ms" live.lags_ms
    end
  in
  let distinct = Hashtbl.fold (fun _ s acc -> match s with Some s -> s :: acc | None -> acc) subjects [] in
  let m = Common.metric in
  let e2e =
    [ m "firings_per_s" "firings/s" (Common.per_second engine);
      m "alloc_words_per_firing" "words" (float_of_int !words /. float_of_int !fired);
      m "simulated_time" "itimes" (float_of_int !end_time);
      m "programs_per_s" "programs/s" (Common.per_second compiles);
      m "graph_cells" "cells"
        (float_of_int
           (List.fold_left (fun a s -> a + Dfg.Graph.node_count s.graph) 0 distinct));
      m "latency_p50_ms" "ms" (Common.median !latencies);
      m "latency_p99_ms" "ms" (Common.quantile !latencies 0.99);
      m "slo_met_frac" "fraction" (float_of_int !slo_met /. float_of_int n);
      m "peak_heap_mb" "MB" peak_mb;
      m "setup_s" "s" (Common.median_normalised setups) ]
  in
  ( { Common.attempted = n;
      failed = checks.Common.bad;
      failures = List.rev checks.Common.msgs;
      e2e;
      layers = (if trace then Layers.metrics lay else []);
      extra_layers = extra },
    lay )
