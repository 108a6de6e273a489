(* The flat-arena lowering and the engine core built on it: arena
   numbering invariants, pinned machine-run and checkpoint digests,
   snapshot/restore bit-identity, the allocation-per-firing gate, and
   the shared nan/error conventions. *)

open Dfg
module ME = Machine.Machine_engine
module K = Kernels
module PC = Compiler.Program_compile
module FP = Fault.Fault_plan

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let kernel_subject (k : K.kernel) ~size ~seed =
  let st = Random.State.make [| seed; Hashtbl.hash k.K.name |] in
  let _, compiled =
    Compiler.Driver.compile_source ~scalar_inputs:k.K.scalar_inputs
      (k.K.source size)
  in
  let inputs =
    List.map
      (fun (name, _) -> (name, List.assoc name (k.K.inputs size st)))
      compiled.PC.cp_inputs
  in
  (compiled.PC.cp_graph, inputs)

(* ---------------- arena structure ---------------- *)

let test_arena_invariants () =
  List.iter
    (fun (k : K.kernel) ->
      let g, _ = kernel_subject k ~size:8 ~seed:0 in
      let a = Arena.build g in
      let n = a.Arena.n in
      checki (k.K.name ^ ": cell count") (Graph.node_count g) n;
      checki (k.K.name ^ ": port_base closes")
        a.Arena.n_ports a.Arena.port_base.(n);
      checki (k.K.name ^ ": slot_base closes")
        a.Arena.n_slots a.Arena.slot_base.(n);
      checki (k.K.name ^ ": dest_base closes")
        (Array.length a.Arena.dest_port)
        a.Arena.dest_base.(a.Arena.n_slots);
      (* global port numbering is the inverse of (cell, local port) *)
      for p = 0 to a.Arena.n_ports - 1 do
        checki
          (Printf.sprintf "%s: port %d round-trips" k.K.name p)
          p
          (a.Arena.port_base.(a.Arena.port_cell.(p)) + a.Arena.port_sub.(p))
      done;
      for id = 0 to n - 1 do
        let node = Graph.node g id in
        checki
          (Printf.sprintf "%s: cell %d arity" k.K.name id)
          (Array.length node.Graph.inputs)
          (Arena.arity a id);
        (* port kinds mirror the graph's input connectors *)
        Array.iteri
          (fun i inp ->
            let kind = a.Arena.port_kind.(a.Arena.port_base.(id) + i) in
            let want =
              match inp with
              | Graph.In_arc -> Arena.kind_arc
              | Graph.In_arc_init _ -> Arena.kind_init
              | Graph.In_const _ -> Arena.kind_const
            in
            checki
              (Printf.sprintf "%s: cell %d port %d kind" k.K.name id i)
              want kind)
          node.Graph.inputs;
        (* destination segments preserve the graph's dests order *)
        Array.iteri
          (fun slot eps ->
            let s = a.Arena.slot_base.(id) + slot in
            let db = a.Arena.dest_base.(s) in
            checki
              (Printf.sprintf "%s: cell %d slot %d fanout" k.K.name id slot)
              (List.length eps) a.Arena.fanout.(s);
            List.iteri
              (fun i { Graph.ep_node; ep_port } ->
                checki
                  (Printf.sprintf "%s: cell %d slot %d dest %d" k.K.name id
                     slot i)
                  (a.Arena.port_base.(ep_node) + ep_port)
                  a.Arena.dest_port.(db + i))
              eps)
          node.Graph.dests
      done)
    K.all

(* ---------------- pinned machine runs ---------------- *)

(* Digest, end time and full stats of machine runs, printed by the
   machine engine before its event core moved onto the int event slab
   and [Df_util.Ipq].  Any change to outputs, timing, resource
   allocation, fault handling, recovery or checkpoint bytes shows up
   here. *)

let stored_arch =
  { Machine.Arch.default with Machine.Arch.array_policy = Machine.Arch.Stored }

let plan spec =
  match FP.of_string spec with
  | Ok s -> FP.make s
  | Error e -> Alcotest.failf "bad plan %s: %s" spec e

let protected_watchdog =
  100 + (4 * FP.none.FP.delay_max) + (17 * ME.default_recovery.ME.retransmit_after)

let faulted_spec =
  "seed=7,delay=0.1,dup=0.05,drop-ack=0.05,corrupt=0.05,corrupt-ctl=0.02,\
   stall=0.02,fu-slow=1,am-slow=1"

(* recovery + integrity + sanitizer under a fault plan *)
let protected g spec =
  Run_config.(
    ME.default_config |> with_fault (plan spec)
    |> with_recovery ME.default_recovery
    |> with_integrity true
    |> with_watchdog protected_watchdog
    |> with_sanitizer (Fault.Sanitizer.create g))

let pinned_configs =
  [
    ("streamed", Machine.Arch.default, fun _ -> ME.default_config);
    ("stored", stored_arch, fun _ -> ME.default_config);
    ("faulted", Machine.Arch.default, fun g -> protected g faulted_spec);
    ("faulted-stored", stored_arch, fun g -> protected g faulted_spec);
    ( "crash",
      Machine.Arch.default,
      fun g -> protected g "seed=9,delay=0.05,crash-pe=3,crash-at=150" );
    ( "unprotected",
      Machine.Arch.default,
      fun g ->
        Run_config.(
          ME.default_config
          |> with_fault (plan "seed=3,dup=0.02,drop-ack=0.02")
          |> with_watchdog 500
          |> with_sanitizer (Fault.Sanitizer.create g)) );
  ]

let describe (r : ME.result) =
  let s = r.ME.stats in
  Printf.sprintf
    "%d t=%d q=%b d=%d fu=%d am=%d res=%d ack=%d rt=%d c=%d/%d/%d pe=%s \
     ck=%d rec=%d v=%d"
    (Exec.Outcome.digest (Exec.Outcome.of_machine ~name:"pinned" r))
    r.ME.end_time r.ME.quiescent s.ME.dispatches s.ME.fu_ops s.ME.am_ops
    s.ME.result_packets s.ME.ack_packets s.ME.retransmits s.ME.corruptions
    s.ME.corrupt_detected s.ME.corrupt_healed
    (String.concat ","
       (Array.to_list (Array.map string_of_int s.ME.pe_dispatches)))
    r.ME.checkpoints r.ME.recoveries
    (List.length r.ME.violations)

let pinned_runs =
  [
    ("streamed", "hydro", "2990330265198637998 t=317 q=true d=265 fu=80 am=0 res=254 ack=252 rt=0 c=0/0/0 pe=32,43,44,43,32,28,27,16 ck=0 rec=0 v=0");
    ("streamed", "first_difference", "541680885600301880 t=172 q=true d=135 fu=16 am=0 res=134 ack=132 rt=0 c=0/0/0 pe=17,18,17,18,17,16,16,16 ck=0 rec=0 v=0");
    ("streamed", "state_eos", "2755534149833296116 t=275 q=true d=431 fu=160 am=0 res=460 ack=456 rt=0 c=0/0/0 pe=67,52,51,56,54,52,51,48 ck=0 rec=0 v=0");
    ("streamed", "tridiag", "3394457673978040485 t=273 q=true d=513 fu=112 am=0 res=623 ack=611 rt=0 c=0/0/0 pe=70,68,74,71,67,65,49,49 ck=0 rec=0 v=0");
    ("streamed", "prefix_sum", "2914255085225899624 t=266 q=true d=423 fu=84 am=0 res=469 ack=459 rt=0 c=0/0/0 pe=53,50,50,51,55,52,57,55 ck=0 rec=0 v=0");
    ("streamed", "smooth_chain", "2407025166038499490 t=291 q=true d=487 fu=134 am=0 res=543 ack=536 rt=0 c=0/0/0 pe=68,63,65,67,63,60,47,54 ck=0 rec=0 v=0");
    ("streamed", "planckian", "3853170666564690640 t=244 q=true d=112 fu=64 am=0 res=96 ack=96 rt=0 c=0/0/0 pe=16,16,16,16,16,16,16,0 ck=0 rec=0 v=0");
    ("streamed", "integrate_predictors", "2316145526243033187 t=351 q=true d=1020 fu=304 am=0 res=1138 ack=1128 rt=0 c=0/0/0 pe=166,163,106,96,151,146,96,96 ck=0 rec=0 v=0");
    ("stored", "hydro", "2990330265198637998 t=318 q=true d=265 fu=80 am=16 res=254 ack=252 rt=0 c=0/0/0 pe=32,43,44,43,32,28,27,16 ck=0 rec=0 v=0");
    ("stored", "first_difference", "541680885600301880 t=236 q=true d=135 fu=16 am=16 res=134 ack=132 rt=0 c=0/0/0 pe=17,18,17,18,17,16,16,16 ck=0 rec=0 v=0");
    ("stored", "state_eos", "2755534149833296116 t=278 q=true d=431 fu=160 am=16 res=460 ack=456 rt=0 c=0/0/0 pe=67,52,51,56,54,52,51,48 ck=0 rec=0 v=0");
    ("stored", "tridiag", "3394457673978040485 t=277 q=true d=513 fu=112 am=17 res=623 ack=611 rt=0 c=0/0/0 pe=70,68,74,71,67,65,49,49 ck=0 rec=0 v=0");
    ("stored", "prefix_sum", "2914255085225899624 t=270 q=true d=423 fu=84 am=18 res=469 ack=459 rt=0 c=0/0/0 pe=53,50,50,51,55,52,57,55 ck=0 rec=0 v=0");
    ("stored", "smooth_chain", "2407025166038499490 t=515 q=true d=487 fu=134 am=168 res=543 ack=536 rt=0 c=0/0/0 pe=68,63,65,67,63,60,47,54 ck=0 rec=0 v=0");
    ("stored", "planckian", "3853170666564690640 t=248 q=true d=112 fu=64 am=16 res=96 ack=96 rt=0 c=0/0/0 pe=16,16,16,16,16,16,16,0 ck=0 rec=0 v=0");
    ("stored", "integrate_predictors", "2316145526243033187 t=358 q=true d=1020 fu=304 am=16 res=1138 ack=1128 rt=0 c=0/0/0 pe=166,163,106,96,151,146,96,96 ck=0 rec=0 v=0");
    ("faulted", "hydro", "2990330265198637998 t=1142 q=true d=265 fu=80 am=0 res=297 ack=274 rt=28 c=12/12/8 pe=32,43,44,43,32,28,27,16 ck=4 rec=0 v=0");
    ("faulted", "first_difference", "541680885600301880 t=978 q=true d=135 fu=16 am=0 res=165 ack=147 rt=24 c=12/12/9 pe=17,18,17,18,17,16,16,16 ck=3 rec=0 v=0");
    ("faulted", "state_eos", "2755534149833296116 t=949 q=true d=431 fu=160 am=0 res=550 ack=508 rt=60 c=18/18/12 pe=67,52,51,56,54,52,51,48 ck=3 rec=0 v=0");
    ("faulted", "tridiag", "3394457673978040485 t=1633 q=true d=513 fu=112 am=0 res=751 ack=677 rt=88 c=33/33/30 pe=70,68,74,71,67,65,49,49 ck=6 rec=0 v=0");
    ("faulted", "prefix_sum", "2914255085225899624 t=939 q=true d=423 fu=84 am=0 res=558 ack=502 rt=62 c=26/26/23 pe=53,50,50,51,55,52,57,55 ck=3 rec=0 v=0");
    ("faulted", "smooth_chain", "2407025166038499490 t=1259 q=true d=487 fu=134 am=0 res=643 ack=594 rt=76 c=32/32/26 pe=68,63,65,67,63,60,47,54 ck=5 rec=0 v=0");
    ("faulted", "planckian", "3853170666564690640 t=581 q=true d=112 fu=64 am=0 res=116 ack=108 rt=13 c=4/4/3 pe=16,16,16,16,16,16,16,0 ck=2 rec=0 v=0");
    ("faulted", "integrate_predictors", "2316145526243033187 t=1927 q=true d=1020 fu=304 am=0 res=1369 ack=1275 rt=182 c=64/64/54 pe=166,163,106,96,151,146,96,96 ck=7 rec=0 v=0");
    ("faulted-stored", "hydro", "2990330265198637998 t=1184 q=true d=265 fu=80 am=16 res=304 ack=278 rt=31 c=13/13/10 pe=32,43,44,43,32,28,27,16 ck=4 rec=0 v=0");
    ("faulted-stored", "first_difference", "541680885600301880 t=841 q=true d=135 fu=16 am=16 res=163 ack=147 rt=22 c=8/8/6 pe=17,18,17,18,17,16,16,16 ck=3 rec=0 v=0");
    ("faulted-stored", "state_eos", "2755534149833296116 t=1009 q=true d=431 fu=160 am=16 res=552 ack=515 rt=59 c=18/18/12 pe=67,52,51,56,54,52,51,48 ck=4 rec=0 v=0");
    ("faulted-stored", "tridiag", "3394457673978040485 t=1238 q=true d=513 fu=112 am=17 res=741 ack=683 rt=82 c=23/23/21 pe=70,68,74,71,67,65,49,49 ck=4 rec=0 v=0");
    ("faulted-stored", "prefix_sum", "2914255085225899624 t=972 q=true d=423 fu=84 am=18 res=560 ack=507 rt=64 c=24/24/21 pe=53,50,50,51,55,52,57,55 ck=3 rec=0 v=0");
    ("faulted-stored", "smooth_chain", "2407025166038499490 t=990 q=true d=487 fu=134 am=168 res=650 ack=602 rt=71 c=24/24/20 pe=68,63,65,67,63,60,47,54 ck=3 rec=0 v=0");
    ("faulted-stored", "planckian", "3853170666564690640 t=950 q=true d=112 fu=64 am=16 res=117 ack=105 rt=18 c=10/10/8 pe=16,16,16,16,16,16,16,0 ck=3 rec=0 v=0");
    ("faulted-stored", "integrate_predictors", "2316145526243033187 t=2021 q=true d=1020 fu=304 am=16 res=1366 ack=1266 rt=173 c=64/64/55 pe=166,163,106,96,151,146,96,96 ck=8 rec=0 v=0");
    ("crash", "hydro", "2990330265198637998 t=353 q=true d=265 fu=80 am=0 res=254 ack=252 rt=0 c=0/0/0 pe=32,43,44,0,75,28,27,16 ck=1 rec=1 v=0");
    ("crash", "first_difference", "541680885600301880 t=204 q=true d=135 fu=16 am=0 res=134 ack=132 rt=0 c=0/0/0 pe=17,18,17,0,35,16,16,16 ck=0 rec=1 v=0");
    ("crash", "state_eos", "2755534149833296116 t=292 q=true d=431 fu=160 am=0 res=460 ack=456 rt=0 c=0/0/0 pe=67,52,51,0,110,52,51,48 ck=1 rec=1 v=0");
    ("crash", "tridiag", "3394457673978040485 t=340 q=true d=513 fu=112 am=0 res=623 ack=611 rt=0 c=0/0/0 pe=70,68,74,0,138,65,49,49 ck=1 rec=1 v=0");
    ("crash", "prefix_sum", "2914255085225899624 t=307 q=true d=423 fu=84 am=0 res=469 ack=459 rt=0 c=0/0/0 pe=53,50,50,0,106,52,57,55 ck=1 rec=1 v=0");
    ("crash", "smooth_chain", "2407025166038499490 t=342 q=true d=487 fu=134 am=0 res=543 ack=536 rt=0 c=0/0/0 pe=68,63,65,0,130,60,47,54 ck=1 rec=1 v=0");
    ("crash", "planckian", "3853170666564690640 t=273 q=true d=112 fu=64 am=0 res=96 ack=96 rt=0 c=0/0/0 pe=16,16,16,0,32,16,16,0 ck=1 rec=1 v=0");
    ("crash", "integrate_predictors", "2316145526243033187 t=387 q=true d=1020 fu=304 am=0 res=1138 ack=1128 rt=0 c=0/0/0 pe=166,163,106,0,247,146,96,96 ck=1 rec=1 v=0");
    ("unprotected", "hydro", "1488053985091613261 t=9 q=false d=11 fu=0 am=0 res=10 ack=8 rt=0 c=0/0/0 pe=1,2,2,2,0,2,2,0 ck=0 rec=0 v=1");
    ("unprotected", "first_difference", "1382761824671660750 t=52 q=true d=37 fu=4 am=0 res=37 ack=34 rt=0 c=0/0/0 pe=5,6,5,5,4,4,4,4 ck=0 rec=0 v=1");
    ("unprotected", "state_eos", "1488053985091613261 t=34 q=false d=62 fu=13 am=0 res=69 ack=56 rt=0 c=0/0/0 pe=8,9,7,9,8,8,7,6 ck=0 rec=0 v=1");
    ("unprotected", "tridiag", "1488053985091613261 t=9 q=false d=22 fu=0 am=0 res=25 ack=14 rt=0 c=0/0/0 pe=3,3,6,5,1,2,1,1 ck=0 rec=0 v=1");
    ("unprotected", "prefix_sum", "324884338756587863 t=31 q=false d=57 fu=5 am=0 res=70 ack=52 rt=0 c=0/0/0 pe=12,8,7,7,8,4,5,6 ck=0 rec=0 v=2");
    ("unprotected", "smooth_chain", "847625636540747651 t=49 q=false d=72 fu=9 am=0 res=86 ack=71 rt=0 c=0/0/0 pe=15,8,9,11,8,5,4,12 ck=0 rec=0 v=1");
    ("unprotected", "planckian", "1446965390944415008 t=59 q=false d=28 fu=16 am=0 res=26 ack=22 rt=0 c=0/0/0 pe=4,5,5,4,4,3,3,0 ck=0 rec=0 v=1");
    ("unprotected", "integrate_predictors", "1488053985091613261 t=13 q=false d=34 fu=1 am=0 res=46 ack=22 rt=0 c=0/0/0 pe=10,7,1,1,10,5,0,0 ck=0 rec=0 v=2");
  ]

let test_pinned_runs () =
  List.iter
    (fun (config, kernel, want) ->
      let _, arch, cfg =
        List.find (fun (name, _, _) -> name = config) pinned_configs
      in
      let g, inputs = kernel_subject (K.find kernel) ~size:16 ~seed:5 in
      Alcotest.(check string)
        (Printf.sprintf "%s %s" config kernel)
        want
        (describe (ME.run_cfg (cfg g) ~arch g ~inputs)))
    pinned_runs

(* [Integrity.checksum_string] of a checkpoint file saved mid-run under
   the faulted plan: events in flight (corrupted packets with their
   producer checksums, retransmission timers), outstanding packets and
   sanitizer state, byte for byte. *)
let pinned_checkpoints =
  [
    ("hydro", 120, 63598139494848851);
    ("hydro", 400, 4587875175763464565);
    ("tridiag", 300, 3363230230796274823);
    ("smooth_chain", 250, 3036422749074865467);
  ]

let test_pinned_checkpoints () =
  List.iter
    (fun (kernel, until, want) ->
      let g, inputs = kernel_subject (K.find kernel) ~size:16 ~seed:5 in
      let m =
        ME.create_cfg (protected g faulted_spec) ~arch:Machine.Arch.default g
          ~inputs
      in
      ME.advance m ~until;
      let path = Filename.temp_file "pinned" ".ckpt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Recover.Checkpoint.save ~path ~graph:g (ME.snapshot m);
          Alcotest.(check int)
            (Printf.sprintf "%s at t=%d" kernel until)
            want
            (Integrity.checksum_string
               (In_channel.with_open_bin path In_channel.input_all))))
    pinned_checkpoints

(* ---------------- snapshot/restore ---------------- *)

let machine_result_identical ~label (a : ME.result) (b : ME.result) =
  checkb (label ^ ": outputs") true (a.ME.outputs = b.ME.outputs);
  checki (label ^ ": end_time") a.ME.end_time b.ME.end_time;
  checkb (label ^ ": stats") true (a.ME.stats = b.ME.stats);
  checkb (label ^ ": quiescent") a.ME.quiescent b.ME.quiescent

let test_snapshot_restore () =
  let k = K.find "hydro" in
  let g, inputs = kernel_subject k ~size:10 ~seed:3 in
  let arch = Machine.Arch.default in
  let cfg = ME.default_config in
  let straight = ME.run_cfg cfg ~arch g ~inputs in
  let m = ME.create_cfg cfg ~arch g ~inputs in
  ME.advance m ~until:40;
  checkb "paused mid-run" false (ME.finished m);
  let sn = ME.snapshot m in
  (* a fresh machine restored from the snapshot resumes bit-identically:
     the snapshot is plain data *)
  let m2 = ME.create_cfg cfg ~arch g ~inputs in
  ME.restore m2 sn;
  ME.advance m2 ~until:max_int;
  machine_result_identical ~label:"restored machine" straight (ME.result m2);
  (* and the paused machine itself finishes identically *)
  ME.advance m ~until:max_int;
  machine_result_identical ~label:"paused machine finishes" straight
    (ME.result m)

(* A snapshot decoded from a file or a request line can carry any
   numbers; [restore] must reject one out of range before it changes any
   state, because the event loop indexes without bounds checks. *)
let test_restore_rejects_out_of_range () =
  let k = K.find "hydro" in
  let g, inputs = kernel_subject k ~size:10 ~seed:3 in
  let arch = Machine.Arch.default in
  (* a fresh config per machine: the sanitizer in it is stateful *)
  let cfg () = protected g faulted_spec in
  let straight = ME.run_cfg (cfg ()) ~arch g ~inputs in
  let m = ME.create_cfg (cfg ()) ~arch g ~inputs in
  ME.advance m ~until:60;
  let sn = ME.snapshot m in
  let n = Graph.node_count g in
  checkb "events in flight at t=60" true (Array.length sn.ME.sn_events > 1);
  (* replace the earliest event, keeping its time and so the heap order *)
  let with_event ev =
    let events = Array.copy sn.ME.sn_events in
    events.(0) <- (fst events.(0), ev);
    { sn with ME.sn_events = events }
  in
  let with_cell f =
    let cells = Array.copy sn.ME.sn_cells in
    cells.(0) <- f cells.(0);
    { sn with ME.sn_cells = cells }
  in
  let deliver ~dst ~port =
    with_event
      (ME.Deliver { src = 0; dst; port; seq = 0; value = Value.Int 0; crc = 0 })
  in
  let last = n - 1 in
  let arity id = Array.length (Graph.node g id).Graph.inputs in
  let bad =
    [
      ("deliver dst = cell count", deliver ~dst:n ~port:0);
      ("deliver dst < 0", deliver ~dst:(-1) ~port:0);
      ("deliver port = arity", deliver ~dst:last ~port:(arity last));
      ( "ack dst = cell count",
        with_event (ME.Ack { dst = n; from_node = 0; from_port = 0; seq = 0 }) );
      ( "pe = PE count",
        with_cell (fun cs -> { cs with ME.cs_pe = arch.Machine.Arch.n_pe }) );
      ("pe < 0", with_cell (fun cs -> { cs with ME.cs_pe = -1 }));
      ( "sent key port out of range",
        with_cell (fun cs -> { cs with ME.cs_sent = [ ((0, 99), 1) ] }) );
      ( "events out of heap order",
        { sn with
          ME.sn_events =
            Array.mapi
              (fun i (t, ev) -> if i = 0 then (max_int, ev) else (t, ev))
              sn.ME.sn_events } );
    ]
  in
  List.iter
    (fun (label, snap) ->
      checkb (label ^ ": check_snapshot rejects") true
        (Result.is_error (ME.check_snapshot g snap));
      checkb (label ^ ": Checkpoint.of_json rejects") true
        (Result.is_error
           (Recover.Checkpoint.of_json ~graph:g
              (Recover.Checkpoint.to_json ~graph:g snap)));
      (* a fresh machine that refuses the snapshot is left untouched *)
      let fresh = ME.create_cfg (cfg ()) ~arch g ~inputs in
      (match ME.restore fresh snap with
      | () -> Alcotest.failf "%s: restore accepted the snapshot" label
      | exception Invalid_argument _ -> ());
      ME.advance fresh ~until:max_int;
      machine_result_identical ~label:(label ^ ": refused restore")
        straight (ME.result fresh))
    bad;
  checkb "the unaltered snapshot passes" true
    (Result.is_ok (ME.check_snapshot g sn))

(* Const ports are present from load, so an Output, Sink or FIFO fed only
   by a constant would fire again and again within one instant.  Such a
   cell has no arc operand, which [Graph.validate] rejects, and both
   engines validate before they run. *)
let test_const_only_cells_rejected () =
  let one = Graph.In_const (Value.Int 1) in
  let graphs =
    [
      ( "output",
        fun g -> ignore (Graph.add g (Opcode.Output "y") [| one |]) );
      ("sink", fun g -> ignore (Graph.add g Opcode.Sink [| one |]));
      ( "fifo",
        fun g ->
          let f = Graph.add g (Opcode.Fifo 2) [| one |] in
          let s = Graph.add g Opcode.Sink [| Graph.In_arc |] in
          Graph.connect g ~src:f ~dst:s ~port:0 );
    ]
  in
  List.iter
    (fun (label, build) ->
      let g = Graph.create () in
      build g;
      checkb (label ^ ": validate rejects") true
        (Result.is_error (Graph.validate g));
      (match ME.run_cfg ME.default_config ~arch:Machine.Arch.default g ~inputs:[] with
      | _ -> Alcotest.failf "%s: machine ran a const-only cell" label
      | exception Invalid_argument _ -> ());
      match Sim.Engine.run_cfg Run_config.default g ~inputs:[] with
      | _ -> Alcotest.failf "%s: sim ran a const-only cell" label
      | exception Invalid_argument _ -> ())
    graphs

(* ---------------- allocation per firing ---------------- *)

(* Minor-heap words allocated per firing over a whole run, arena build
   and output lists included.  Steady state allocates only the values
   cells compute and the collected outputs; the record-based machine
   engine the event slab replaced allocated about 114 words per
   firing. *)
let test_allocation_per_firing () =
  let k = K.find "tridiag" in
  let size = 32 and waves = 50 in
  let st = Random.State.make [| 5; Hashtbl.hash k.K.name |] in
  let _, compiled =
    Compiler.Driver.compile_source ~scalar_inputs:k.K.scalar_inputs
      (k.K.source size)
  in
  let g = compiled.PC.cp_graph in
  let inputs = Runspec.feeds compiled ~waves (k.K.inputs size st) in
  let words_per_firing run =
    let w0 = Gc.minor_words () in
    let firings = run () in
    (Gc.minor_words () -. w0) /. float_of_int firings
  in
  let machine =
    words_per_firing (fun () ->
        let r = ME.run_cfg ME.default_config ~arch:Machine.Arch.default g ~inputs in
        checkb "machine quiescent" true r.ME.quiescent;
        r.ME.stats.ME.dispatches)
  in
  let sim =
    words_per_firing (fun () ->
        let r = Sim.Engine.run_cfg Run_config.default g ~inputs in
        checkb "sim quiescent" true r.Sim.Engine.quiescent;
        Array.fold_left ( + ) 0 r.Sim.Engine.fire_counts)
  in
  if machine > 10.0 then
    Alcotest.failf "machine allocates %.2f words per firing (gate 10)" machine;
  if sim > 3.0 then
    Alcotest.failf "sim allocates %.2f words per firing (gate 3)" sim

(* ---------------- nan and error conventions ---------------- *)

let run_sim_kernel (k : K.kernel) =
  Exec.Job.run
    (Exec.Job.make ~name:k.K.name
       (Exec.Job.Source_program
          {
            source = k.K.source 6;
            scalar_inputs = k.K.scalar_inputs;
            options = None;
            waves = 2;
          })
       ~inputs:(k.K.inputs 6 (Random.State.make [| 0; Hashtbl.hash k.K.name |])))

let test_nan_conventions () =
  checkb "ratio n/0 is nan" true (Float.is_nan (Df_util.Conventions.ratio 3.0 0.0));
  checkb "interval of no packets is nan" true
    (Float.is_nan (Sim.Metrics.initiation_interval []));
  checkb "interval of one packet is nan" true
    (Float.is_nan (Sim.Metrics.initiation_interval [ 5 ]));
  Alcotest.(check (float 1e-9))
    "interval of a steady stream" 2.0
    (Sim.Metrics.initiation_interval [ 0; 2; 4; 6 ]);
  let zero =
    {
      Exec.Outcome.firings = 0; cells = 0; fu_ops = 0; am_ops = 0;
      result_packets = 0; ack_packets = 0; retransmits = 0;
      checkpoints = 0; recoveries = 0;
    }
  in
  checkb "am_fraction of an empty run is nan" true
    (Float.is_nan (Exec.Outcome.am_fraction zero));
  let k = K.find "hydro" in
  let o = run_sim_kernel k in
  checkb "sim am_fraction is 0 (no array memories)" true
    (Exec.Outcome.am_fraction o.Exec.Outcome.counters = 0.0)

let test_lookup_errors () =
  let k = K.find "hydro" in
  let o = run_sim_kernel k in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match Exec.Outcome.stream o "nope" with
  | _ -> Alcotest.fail "unknown stream must raise"
  | exception Invalid_argument msg ->
    checkb "names the missing stream" true (contains msg "no output stream nope");
    checkb "lists the produced streams" true (contains msg "run produced"));
  let g, _ = kernel_subject k ~size:6 ~seed:0 in
  match Sim.Engine.run_cfg Run_config.default g ~inputs:[] with
  | _ -> Alcotest.fail "missing input feed must raise"
  | exception Invalid_argument msg ->
    checkb "names the missing input" true (contains msg "no packets for input")

let suite =
  [
    Alcotest.test_case "arena numbering invariants" `Quick
      test_arena_invariants;
    Alcotest.test_case "snapshot/restore mid-run resumes identically" `Quick
      test_snapshot_restore;
    Alcotest.test_case "restore rejects out-of-range snapshots" `Quick
      test_restore_rejects_out_of_range;
    Alcotest.test_case "const-only Output/Sink/FIFO cells are rejected" `Quick
      test_const_only_cells_rejected;
    Alcotest.test_case "nan conventions are shared" `Quick
      test_nan_conventions;
    Alcotest.test_case "lookup error paths name the candidates" `Quick
      test_lookup_errors;
    Alcotest.test_case "pinned machine runs (clean, stored, faulted, crash)"
      `Quick test_pinned_runs;
    Alcotest.test_case "pinned mid-run checkpoint bytes" `Quick
      test_pinned_checkpoints;
    Alcotest.test_case "allocation per firing (machine <= 10, sim <= 3)"
      `Quick test_allocation_per_firing;
  ]
