open Dfg
module FP = Fault.Fault_plan
module San = Fault.Sanitizer
module SR = Fault.Stall_report
module Ipq = Df_util.Ipq

type stats = {
  dispatches : int;
  fu_ops : int;
  am_ops : int;
  result_packets : int;
  ack_packets : int;
  retransmits : int;
  corruptions : int;
  corrupt_detected : int;
  corrupt_healed : int;
  pe_dispatches : int array;
}

type result = {
  outputs : (string * (int * Value.t) list) list;
  stats : stats;
  end_time : int;
  quiescent : bool;
  stall : SR.t option;
  violations : Fault.Violation.t list;
  checkpoints : int;
  recoveries : int;
}

(* Bounds-unchecked indexing for the hot loop, as in [Sim.Engine]: every
   index written with [.!()] is an arena-internal number (cell, global
   port, slot, destination entry, event-slab slot) or a PE number from
   [Arch.place]; numbers from a restored snapshot are range-checked by
   [check_snapshot_arena] before they reach this loop. *)
external ( .!() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .!()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* Recovery protocol state: one entry per result packet sent but not yet
   acknowledged.  The static dataflow discipline guarantees at most one
   packet is ever outstanding per (consumer, port) channel, so the
   channel sequence number both orders packets and identifies them. *)
type out_entry = {
  o_dst : int;
  o_port : int;
  o_seq : int;
  o_value : Value.t;
  mutable o_attempts : int;
}

type event =
  | Deliver of {
      src : int;
      dst : int;
      port : int;
      seq : int;
      value : Value.t;  (* payload as delivered (possibly corrupted) *)
      crc : int;  (* producer-side checksum of the payload as sent *)
    }
  | Ack of { dst : int; from_node : int; from_port : int; seq : int }
  | Retransmit of { src : int; dst : int; port : int; seq : int }

type recovery = Run_config.recovery = {
  checkpoint_every : int;
  retransmit_after : int;
  retransmit_backoff : int;
  max_retransmits : int;
}

let default_recovery = Run_config.default_recovery

let check_recovery r =
  if r.checkpoint_every < 0 then
    invalid_arg "Machine_engine: checkpoint-every < 0";
  if r.retransmit_after <= 0 then
    invalid_arg "Machine_engine: retransmit-after <= 0";
  if r.retransmit_backoff < 1 then
    invalid_arg "Machine_engine: retransmit-backoff < 1";
  if r.max_retransmits < 0 then
    invalid_arg "Machine_engine: max-retransmits < 0";
  r

(* Resend delay for the given 0-based attempt: exponential backoff
   capped at 16 base timeouts so a lossy channel cannot push the next
   probe arbitrarily far out. *)
let retry_delay r attempt =
  let cap = r.retransmit_after * 16 in
  let rec go d k = if k <= 0 || d >= cap then min d cap else go (d * r.retransmit_backoff) (k - 1) in
  go r.retransmit_after attempt

(* A pipelined server pool: each member accepts one operation per cycle;
   a request entering at [t] starts at the earliest slot of the least
   loaded member (the lowest-numbered one on a tie). *)
type pool = { mutable next_free : int array }

let pool_create n = { next_free = Array.make (max n 1) 0 }

let pool_start pool t =
  let next_free = pool.next_free in
  let best = ref 0 in
  for i = 1 to Array.length next_free - 1 do
    if next_free.!(i) < next_free.!(!best) then best := i
  done;
  let start = max t next_free.!(!best) in
  next_free.!(!best) <- start + 1;
  start

(* Per-PE dispatch servers. *)
let pe_start pes pe t =
  let start = max t pes.!(pe) in
  pes.!(pe) <- start + 1;
  start

let uses_fu (op : Opcode.t) =
  match op with
  | Opcode.Arith _ | Opcode.Compare _ | Opcode.Logic _ | Opcode.Neg
  | Opcode.Not | Opcode.Math _ ->
    true
  | _ -> false

type cell_snapshot = {
  cs_operands : Value.t option array;
  cs_pending_acks : int;
  cs_queue : Value.t list;
  cs_cursor : int;
  cs_collected : (int * Value.t) list;
  cs_pe : int;
  cs_recv_seq : int array;
  cs_cons_seq : int array;
  cs_outstanding : out_entry list;
  cs_sent : ((int * int) * int) list;  (* sorted by key *)
  cs_corrupt_pend : (int * int) list;
}

type snapshot = {
  sn_time : int;
  sn_last_progress : int;
  sn_cells : cell_snapshot array;
  sn_events : (int * event) array;  (* exact heap layout, see Ipq *)
  sn_pes : int array;
  sn_fus : int array;
  sn_ams : int array;
  sn_pe_dead : bool array;
  sn_stats : stats;
  sn_sanitizer : San.snapshot option;
}

(* Event kinds stored in the slab. *)
let ev_deliver = 0
let ev_ack = 1
let ev_retransmit = 2

(* The checksum a clean packet carries.  A packet no corruption fault
   touched delivers exactly the payload its producer checksummed, so
   verification passes by construction and the checksum is computed only
   when a fault actually flips a bit (or when a snapshot must write it
   out).  Real checksums are non-negative. *)
let crc_clean = -1

(* The machine runs on the flat arena like [Sim.Engine]: per-port state
   (operand presence and value, recovery sequence counters) is indexed by
   global port, per-cell state by cell id, and events live in a slab of
   parallel arrays whose slot ids are the payloads of one [Ipq].  An
   Ack stores [from_node] / [from_port] in the [src] / [port] columns.
   In clean steady state nothing here allocates except the result
   values themselves and the collected outputs. *)
type t = {
  graph : Graph.t;
  arch : Arch.t;
  max_time : int;
  tracer : Obs.Tracer.t;
  tracer_on : bool;
  fault : FP.t option;
  crash : (int * int) option;  (* the plan's crash, read once *)
  sanitizer : San.t;
  san_on : bool;
  watchdog : int option;
  recovery : recovery option;
  integrity : bool;
  stored : bool;  (* [Stored] array policy *)
  arena : Arena.t;
  (* static per-cell facts *)
  cell_uses_fu : bool array;
  boundary : bool array;  (* produces a completed array value (feeds an Output) *)
  (* per-port state; const ports are present for the whole run *)
  present : bool array;
  pvalue : Value.t array;
  recv_seq : int array;  (* recovery: packets accepted so far *)
  cons_seq : int array;  (* recovery: packets consumed and acknowledged *)
  sent : int array;  (* recovery: packets the producer sent to this port *)
  (* per-cell state *)
  pending_acks : int array;
  cursor : int array;
  stream : Value.t array array;
  collected : (int * Value.t) list array;
  pe : int array;
  fifo_buf : Value.t array array;
  fifo_head : int array;
  fifo_len : int array;
  outstanding : out_entry list array;  (* recovery, per producer *)
  (* (port, seq) of packets discarded as corrupt and not yet replaced by
     a clean copy — consulted when a retransmission finally lands so the
     heal is visible in the trace and counters *)
  corrupt_pend : (int * int) list array;
  (* events: the slab and its free-slot stack *)
  mutable events : Ipq.t;
  mutable ev_kind : int array;
  mutable ev_src : int array;
  mutable ev_dst : int array;
  mutable ev_port : int array;
  mutable ev_seq : int array;
  mutable ev_crc : int array;
  mutable ev_value : Value.t array;
  mutable ev_free : int array;
  mutable n_free : int;
  (* machine resources *)
  pes : int array;
  fus : pool;
  ams : pool;
  pe_dead : bool array;
  mutable crash_done : bool;
  mutable dispatches : int;
  mutable fu_ops : int;
  mutable am_ops : int;
  mutable result_packets : int;
  mutable ack_packets : int;
  mutable retransmits : int;
  mutable corruptions : int;
  mutable corrupt_detected : int;
  mutable corrupt_healed : int;
  pe_dispatches : int array;
  mutable now : int;
  mutable last_progress : int;
  (* Deliver/Ack events still queued.  When this hits zero the only
     queued events are retransmission timers, which lets the engine ask
     whether they can ever change state again (see [advance]). *)
  mutable live_events : int;
  (* dirty set: a preallocated int ring in FIFO order (the in_dirty guard
     bounds occupancy at the cell count) *)
  dirty : int array;
  mutable dirty_head : int;
  mutable dirty_len : int;
  in_dirty : Bytes.t;
  mutable next_checkpoint : int;
  mutable last_snapshot : snapshot option;
  mutable checkpoints : int;
  mutable recoveries : int;
  mutable quiescent : bool;
  mutable watchdog_tripped : bool;
  mutable finished : bool;
}

let stats_of m : stats =
  {
    dispatches = m.dispatches;
    fu_ops = m.fu_ops;
    am_ops = m.am_ops;
    result_packets = m.result_packets;
    ack_packets = m.ack_packets;
    retransmits = m.retransmits;
    corruptions = m.corruptions;
    corrupt_detected = m.corrupt_detected;
    corrupt_healed = m.corrupt_healed;
    pe_dispatches = Array.copy m.pe_dispatches;
  }

(* ------------------------------------------------------------------ *)
(* the event slab                                                     *)
(* ------------------------------------------------------------------ *)

let free_event m e =
  m.ev_free.!(m.n_free) <- e;
  m.n_free <- m.n_free + 1

(* Called with every slot in use (the free stack is empty). *)
let grow_slab m =
  let cap = Array.length m.ev_kind in
  let cap' = 2 * cap in
  let widen a fill =
    let b = Array.make cap' fill in
    Array.blit a 0 b 0 cap;
    b
  in
  m.ev_kind <- widen m.ev_kind 0;
  m.ev_src <- widen m.ev_src 0;
  m.ev_dst <- widen m.ev_dst 0;
  m.ev_port <- widen m.ev_port 0;
  m.ev_seq <- widen m.ev_seq 0;
  m.ev_crc <- widen m.ev_crc 0;
  m.ev_value <- widen m.ev_value Arena.dummy_value;
  m.ev_free <- Array.make cap' 0;
  for e = cap' - 1 downto cap do
    free_event m e
  done

let alloc_event m kind ~src ~dst ~port ~seq value crc =
  if m.n_free = 0 then grow_slab m;
  m.n_free <- m.n_free - 1;
  let e = m.ev_free.!(m.n_free) in
  m.ev_kind.!(e) <- kind;
  m.ev_src.!(e) <- src;
  m.ev_dst.!(e) <- dst;
  m.ev_port.!(e) <- port;
  m.ev_seq.!(e) <- seq;
  m.ev_crc.!(e) <- crc;
  m.ev_value.!(e) <- value;
  e

(* Empty the slab: slot 0 is handed out first. *)
let reset_slab m =
  m.n_free <- 0;
  for e = Array.length m.ev_free - 1 downto 0 do
    free_event m e
  done

let schedule m t kind ~src ~dst ~port ~seq value crc =
  if kind <> ev_retransmit then m.live_events <- m.live_events + 1;
  Ipq.push m.events t (alloc_event m kind ~src ~dst ~port ~seq value crc)

let schedule_retransmit m t ~src ~dst ~port ~seq =
  schedule m t ev_retransmit ~src ~dst ~port ~seq Arena.dummy_value 0

let event_of_slot m e =
  let src = m.ev_src.(e) and dst = m.ev_dst.(e) and port = m.ev_port.(e)
  and seq = m.ev_seq.(e) in
  let k = m.ev_kind.(e) in
  if k = ev_deliver then
    let value = m.ev_value.(e) in
    let crc = m.ev_crc.(e) in
    let crc = if crc = crc_clean then Integrity.checksum_value value else crc in
    Deliver { src; dst; port; seq; value; crc }
  else if k = ev_ack then Ack { dst; from_node = src; from_port = port; seq }
  else Retransmit { src; dst; port; seq }

let slot_of_event m = function
  | Deliver { src; dst; port; seq; value; crc } ->
    alloc_event m ev_deliver ~src ~dst ~port ~seq value crc
  | Ack { dst; from_node; from_port; seq } ->
    alloc_event m ev_ack ~src:from_node ~dst ~port:from_port ~seq
      Arena.dummy_value 0
  | Retransmit { src; dst; port; seq } ->
    alloc_event m ev_retransmit ~src ~dst ~port ~seq Arena.dummy_value 0

(* ------------------------------------------------------------------ *)
(* snapshot / restore                                                 *)
(* ------------------------------------------------------------------ *)

let copy_entry e =
  {
    o_dst = e.o_dst;
    o_port = e.o_port;
    o_seq = e.o_seq;
    o_value = e.o_value;
    o_attempts = e.o_attempts;
  }

let fifo_contents m id =
  let buf = m.fifo_buf.(id) in
  List.init m.fifo_len.(id) (fun i ->
      buf.((m.fifo_head.(id) + i) mod Array.length buf))

let snapshot_cell m id =
  let a = m.arena in
  let b = a.Arena.port_base.(id) in
  let arity = Arena.arity a id in
  let sent = ref [] in
  for d = a.Arena.dest_base.(a.Arena.slot_base.(id))
      to a.Arena.dest_base.(a.Arena.slot_base.(id + 1)) - 1 do
    let p = a.Arena.dest_port.(d) in
    if m.sent.(p) > 0 then
      sent := ((a.Arena.port_cell.(p), a.Arena.port_sub.(p)), m.sent.(p)) :: !sent
  done;
  {
    cs_operands =
      Array.init arity (fun k ->
          let p = b + k in
          if a.Arena.port_kind.(p) <> Arena.kind_const && m.present.(p) then
            Some m.pvalue.(p)
          else None);
    cs_pending_acks = m.pending_acks.(id);
    cs_queue = fifo_contents m id;
    cs_cursor = m.cursor.(id);
    cs_collected = m.collected.(id);
    cs_pe = m.pe.(id);
    cs_recv_seq = Array.sub m.recv_seq b arity;
    cs_cons_seq = Array.sub m.cons_seq b arity;
    cs_outstanding = List.map copy_entry m.outstanding.(id);
    cs_sent = List.sort compare !sent;
    cs_corrupt_pend = m.corrupt_pend.(id);
  }

let snapshot m =
  {
    sn_time = m.now;
    sn_last_progress = m.last_progress;
    sn_cells = Array.init m.arena.Arena.n (snapshot_cell m);
    sn_events =
      Array.map (fun (t, e) -> (t, event_of_slot m e)) (Ipq.to_array m.events);
    sn_pes = Array.copy m.pes;
    sn_fus = Array.copy m.fus.next_free;
    sn_ams = Array.copy m.ams.next_free;
    sn_pe_dead = Array.copy m.pe_dead;
    sn_stats = stats_of m;
    sn_sanitizer = San.snapshot m.sanitizer;
  }

let mark m id =
  if Bytes.unsafe_get m.in_dirty id = '\000' then begin
    Bytes.unsafe_set m.in_dirty id '\001';
    let n = Array.length m.dirty in
    let tail = m.dirty_head + m.dirty_len in
    m.dirty.!(if tail >= n then tail - n else tail) <- id;
    m.dirty_len <- m.dirty_len + 1
  end

let mark_all m =
  m.dirty_head <- 0;
  m.dirty_len <- 0;
  Bytes.fill m.in_dirty 0 (Bytes.length m.in_dirty) '\000';
  for id = 0 to m.arena.Arena.n - 1 do
    mark m id
  done

exception Bad_snapshot of string

(* Every cell, port and PE number a snapshot carries, checked against the
   arena before [restore] changes any state.  The hot loop indexes with
   [.!()], and a snapshot can arrive from a checkpoint file or a dfserve
   request line, so a number out of range here would be an out-of-bounds
   write later.  PE numbers are checked against the snapshot's own PE
   count; [restore] then matches that count against the arch. *)
let check_snapshot_arena a snap =
  let n = a.Arena.n in
  let n_pe = Array.length snap.sn_pes in
  let bad fmt = Printf.ksprintf (fun s -> raise (Bad_snapshot s)) fmt in
  let cell what id = if id < 0 || id >= n then bad "%s %d is not a cell" what id in
  let port what id k =
    cell what id;
    if k < 0 || k >= Arena.arity a id then
      bad "%s %d has no input port %d" what id k
  in
  try
    if Array.length snap.sn_cells <> n then
      bad "snapshot has %d cells, the graph has %d" (Array.length snap.sn_cells) n;
    if
      n_pe = 0
      || Array.length snap.sn_pe_dead <> n_pe
      || Array.length snap.sn_stats.pe_dispatches <> n_pe
    then bad "per-PE arrays disagree on the PE count";
    Array.iteri
      (fun id cs ->
        let arity = Arena.arity a id in
        if
          Array.length cs.cs_operands <> arity
          || Array.length cs.cs_recv_seq <> arity
          || Array.length cs.cs_cons_seq <> arity
        then bad "cell %d: per-port arrays do not match arity %d" id arity;
        let capacity =
          match a.Arena.ops.(id) with Opcode.Fifo k -> max k 1 | _ -> 0
        in
        if List.compare_length_with cs.cs_queue capacity > 0 then
          bad "cell %d: queue exceeds its capacity %d" id capacity;
        if cs.cs_cursor < 0 then bad "cell %d: negative cursor" id;
        if cs.cs_pe < 0 || cs.cs_pe >= n_pe then
          bad "cell %d: PE %d out of range" id cs.cs_pe;
        List.iter (fun e -> port "outstanding dst" e.o_dst e.o_port) cs.cs_outstanding;
        List.iter (fun ((dst, k), _) -> port "sent dst" dst k) cs.cs_sent;
        List.iter (fun (k, _) -> port "cell" id k) cs.cs_corrupt_pend)
      snap.sn_cells;
    Array.iteri
      (fun i (t, ev) ->
        if t < 0 then bad "event %d: negative time" i;
        if i > 0 && fst snap.sn_events.((i - 1) / 2) > t then
          bad "event %d: events are not in heap order" i;
        match ev with
        | Deliver { src; dst; port = k; _ } | Retransmit { src; dst; port = k; _ }
          ->
          cell "event src" src;
          port "event dst" dst k
        | Ack { dst; from_node; from_port; _ } ->
          cell "ack dst" dst;
          port "ack from" from_node from_port)
      snap.sn_events;
    Ok ()
  with Bad_snapshot msg -> Error msg

let check_snapshot g snap = check_snapshot_arena (Arena.build g) snap

let restore m snap =
  let a = m.arena in
  (match check_snapshot_arena a snap with
  | Error msg -> invalid_arg ("Machine_engine.restore: " ^ msg)
  | Ok () -> ());
  if
    Array.length snap.sn_pes <> Array.length m.pes
    || Array.length snap.sn_fus <> Array.length m.fus.next_free
    || Array.length snap.sn_ams <> Array.length m.ams.next_free
  then invalid_arg "Machine_engine.restore: snapshot is for a different arch";
  San.restore m.sanitizer snap.sn_sanitizer;
  m.now <- snap.sn_time;
  m.last_progress <- snap.sn_last_progress;
  Array.fill m.sent 0 (Array.length m.sent) 0;
  Array.iteri
    (fun id cs ->
      let b = a.Arena.port_base.(id) in
      let arity = Arena.arity a id in
      for k = 0 to arity - 1 do
        let p = b + k in
        if a.Arena.port_kind.(p) <> Arena.kind_const then
          match cs.cs_operands.(k) with
          | Some v ->
            m.present.(p) <- true;
            m.pvalue.(p) <- v
          | None -> m.present.(p) <- false
      done;
      m.pending_acks.(id) <- cs.cs_pending_acks;
      m.fifo_head.(id) <- 0;
      m.fifo_len.(id) <- List.length cs.cs_queue;
      List.iteri (fun i v -> m.fifo_buf.(id).(i) <- v) cs.cs_queue;
      m.cursor.(id) <- cs.cs_cursor;
      m.collected.(id) <- cs.cs_collected;
      m.pe.(id) <- cs.cs_pe;
      Array.blit cs.cs_recv_seq 0 m.recv_seq b arity;
      Array.blit cs.cs_cons_seq 0 m.cons_seq b arity;
      m.outstanding.(id) <- List.map copy_entry cs.cs_outstanding;
      List.iter
        (fun ((dst, port), v) -> m.sent.(a.Arena.port_base.(dst) + port) <- v)
        cs.cs_sent;
      m.corrupt_pend.(id) <- cs.cs_corrupt_pend)
    snap.sn_cells;
  reset_slab m;
  m.events <-
    Ipq.of_array
      (Array.map (fun (t, ev) -> (t, slot_of_event m ev)) snap.sn_events);
  m.live_events <-
    Array.fold_left
      (fun acc (_, ev) ->
        match ev with Retransmit _ -> acc | Deliver _ | Ack _ -> acc + 1)
      0 snap.sn_events;
  Array.blit snap.sn_pes 0 m.pes 0 (Array.length m.pes);
  m.fus.next_free <- Array.copy snap.sn_fus;
  m.ams.next_free <- Array.copy snap.sn_ams;
  Array.blit snap.sn_pe_dead 0 m.pe_dead 0 (Array.length m.pe_dead);
  m.dispatches <- snap.sn_stats.dispatches;
  m.fu_ops <- snap.sn_stats.fu_ops;
  m.am_ops <- snap.sn_stats.am_ops;
  m.result_packets <- snap.sn_stats.result_packets;
  m.ack_packets <- snap.sn_stats.ack_packets;
  m.retransmits <- snap.sn_stats.retransmits;
  m.corruptions <- snap.sn_stats.corruptions;
  m.corrupt_detected <- snap.sn_stats.corrupt_detected;
  m.corrupt_healed <- snap.sn_stats.corrupt_healed;
  Array.blit snap.sn_stats.pe_dispatches 0 m.pe_dispatches 0
    (Array.length m.pe_dispatches);
  m.quiescent <- false;
  m.watchdog_tripped <- false;
  m.finished <- false;
  (match m.recovery with
  | Some r when r.checkpoint_every > 0 ->
    m.next_checkpoint <- m.now + r.checkpoint_every
  | _ -> ());
  mark_all m

(* ------------------------------------------------------------------ *)
(* construction                                                       *)
(* ------------------------------------------------------------------ *)

(* The machine model's default time budget is larger than the graph
   engine's: resource latencies stretch the same workload. *)
let default_max_time = 30_000_000

let default_config = Run_config.(default |> with_max_time default_max_time)

let create_cfg (cfg : Run_config.t) ~(arch : Arch.t) g ~inputs =
  let max_time = cfg.Run_config.max_time in
  let tracer = cfg.Run_config.tracer in
  let fault = cfg.Run_config.fault in
  let sanitizer = cfg.Run_config.sanitizer in
  let watchdog = cfg.Run_config.watchdog in
  let recovery = cfg.Run_config.recovery in
  let integrity = cfg.Run_config.integrity in
  (match Graph.validate g with
  | Ok () -> ()
  | Error es ->
    invalid_arg ("Machine_engine.run: invalid graph:\n" ^ String.concat "\n" es));
  (match watchdog with
  | Some k when k <= 0 -> invalid_arg "Machine_engine.run: watchdog window <= 0"
  | _ -> ());
  let recovery = Option.map check_recovery recovery in
  let a = Arena.build g in
  let n = a.Arena.n in
  let n_ports = max a.Arena.n_ports 1 in
  (* block boundaries: producers feeding an Output cell *)
  let boundary = Array.make (max n 1) false in
  for id = 0 to n - 1 do
    match a.Arena.ops.(id) with
    | Opcode.Output _ ->
      let src = a.Arena.port_producer.(a.Arena.port_base.(id)) in
      if src >= 0 then boundary.(src) <- true
    | _ -> ()
  done;
  let present = Array.make n_ports false in
  let pvalue = Array.make n_ports Arena.dummy_value in
  let pending_acks = Array.make (max n 1) 0 in
  for p = 0 to a.Arena.n_ports - 1 do
    if a.Arena.port_kind.(p) <> Arena.kind_arc then begin
      (* const ports stay present for the whole run; init ports start
         present and their producer starts owing an acknowledge *)
      present.(p) <- true;
      pvalue.(p) <- a.Arena.port_value.(p);
      let src = a.Arena.port_producer.(p) in
      if a.Arena.port_kind.(p) = Arena.kind_init && src >= 0 then
        pending_acks.(src) <- pending_acks.(src) + 1
    end
  done;
  let stream = Array.make (max n 1) [||] in
  let fifo_buf = Array.make (max n 1) [||] in
  for id = 0 to n - 1 do
    match a.Arena.ops.(id) with
    | Opcode.Input name ->
      stream.(id) <-
        Array.of_list
          (Df_util.Conventions.lookup_feed ~who:"Machine_engine.run" inputs
             name)
    | Opcode.Fifo k -> fifo_buf.(id) <- Array.make (max k 1) Arena.dummy_value
    | _ -> ()
  done;
  let n_pe = max 1 arch.Arch.n_pe in
  let slab = 64 in
  let m =
    {
      graph = g;
      arch;
      max_time;
      tracer;
      tracer_on = Obs.Tracer.enabled tracer;
      fault;
      crash = Option.bind fault FP.crash;
      sanitizer;
      san_on = San.enabled sanitizer;
      watchdog;
      recovery;
      integrity;
      stored = arch.Arch.array_policy = Arch.Stored;
      arena = a;
      cell_uses_fu = Array.map uses_fu a.Arena.ops;
      boundary;
      present;
      pvalue;
      recv_seq = Array.make n_ports 0;
      cons_seq = Array.make n_ports 0;
      sent = Array.make n_ports 0;
      pending_acks;
      cursor = Array.make (max n 1) 0;
      stream;
      collected = Array.make (max n 1) [];
      pe = Array.init (max n 1) (fun id -> id mod n_pe);
      fifo_buf;
      fifo_head = Array.make (max n 1) 0;
      fifo_len = Array.make (max n 1) 0;
      outstanding = Array.make (max n 1) [];
      corrupt_pend = Array.make (max n 1) [];
      events = Ipq.create ~capacity:slab ();
      ev_kind = Array.make slab 0;
      ev_src = Array.make slab 0;
      ev_dst = Array.make slab 0;
      ev_port = Array.make slab 0;
      ev_seq = Array.make slab 0;
      ev_crc = Array.make slab 0;
      ev_value = Array.make slab Arena.dummy_value;
      ev_free = Array.make slab 0;
      n_free = 0;
      pes = Array.make n_pe 0;
      fus = pool_create arch.Arch.n_fu;
      ams = pool_create arch.Arch.n_am;
      pe_dead = Array.make n_pe false;
      crash_done = false;
      dispatches = 0;
      fu_ops = 0;
      am_ops = 0;
      result_packets = 0;
      ack_packets = 0;
      retransmits = 0;
      corruptions = 0;
      corrupt_detected = 0;
      corrupt_healed = 0;
      pe_dispatches = Array.make n_pe 0;
      now = 0;
      last_progress = 0;
      live_events = 0;
      dirty = Array.make (max n 1) 0;
      dirty_head = 0;
      dirty_len = 0;
      in_dirty = Bytes.make (max n 1) '\000';
      next_checkpoint = max_int;
      last_snapshot = None;
      checkpoints = 0;
      recoveries = 0;
      quiescent = false;
      watchdog_tripped = false;
      finished = false;
    }
  in
  reset_slab m;
  (match recovery with
  | None -> ()
  | Some r ->
    (* Program-load tokens are logically packets the producer already
       sent: give each a protocol entry and a retransmission timer so a
       lost acknowledge for an initial token is recoverable too. *)
    for p = 0 to a.Arena.n_ports - 1 do
      if a.Arena.port_kind.(p) = Arena.kind_init then begin
        let dst = a.Arena.port_cell.(p) and port = a.Arena.port_sub.(p) in
        let src = a.Arena.port_producer.(p) in
        m.recv_seq.(p) <- 1;
        if src >= 0 then begin
          m.outstanding.(src) <-
            {
              o_dst = dst;
              o_port = port;
              o_seq = 0;
              o_value = a.Arena.port_value.(p);
              o_attempts = 0;
            }
            :: m.outstanding.(src);
          m.sent.(p) <- 1;
          schedule_retransmit m r.retransmit_after ~src ~dst ~port ~seq:0
        end
      end
    done;
    if r.checkpoint_every > 0 then m.next_checkpoint <- r.checkpoint_every;
    (* the implicit t=0 checkpoint: a crash before the first periodic
       checkpoint rolls back to program load *)
    m.last_snapshot <- Some (snapshot m));
  mark_all m;
  m

(* ------------------------------------------------------------------ *)
(* the event loop                                                     *)
(* ------------------------------------------------------------------ *)

let emit_fault m kind ~src ~dst ~extra =
  if m.tracer_on then
    Obs.Tracer.emit m.tracer
      (Obs.Event.Fault_injected
         { time = m.now; track = m.pe.(dst); kind; src; dst; extra })

let emit_violation m (v : Fault.Violation.t) =
  if m.tracer_on then
    Obs.Tracer.emit m.tracer
      (Obs.Event.Violation
         { time = v.Fault.Violation.v_time;
           track = m.pe.(v.Fault.Violation.v_node);
           node = v.Fault.Violation.v_node;
           label = v.Fault.Violation.v_label;
           kind = Fault.Violation.kind_name v.Fault.Violation.v_kind;
           detail = v.Fault.Violation.v_detail })

(* Queue one result packet for delivery at [at] and trace it. *)
let schedule_deliver m at ~src ~dst ~port ~seq value crc =
  schedule m at ev_deliver ~src ~dst ~port ~seq value crc;
  if m.tracer_on then
    Obs.Tracer.emit m.tracer
      (Obs.Event.Deliver
         { time = at; track = m.pe.(dst); src; dst; port;
           value = Value.to_string value })

(* Deliver one result packet copy to [dst.port], subject to network
   faults.  [seq] identifies the packet on its channel when recovery is
   on.  A corruption fault flips a payload bit after the producer
   checksummed it, so the packet then carries the checksum of the
   payload as sent and the mismatch is observable at the consumer iff
   integrity checking is on; an untouched packet carries [crc_clean]. *)
let deliver_packet m ~src ~dst ~port ~seq ~value ~base =
  match m.fault with
  | None ->
    schedule_deliver m base ~src ~dst ~port ~seq value crc_clean;
    base
  | Some f ->
    let extra = FP.result_delay f ~time:base ~src ~dst ~port in
    if extra > 0 then emit_fault m "delay" ~src ~dst ~extra;
    let deliver_at = base + extra in
    if FP.drop_result f ~time:base ~src ~dst ~port then
      (* the packet is lost in the routing network: without recovery its
         consumer starves; with recovery the retransmission timer resends *)
      emit_fault m "drop" ~src ~dst ~extra:0
    else begin
      match FP.corrupt_result f ~time:base ~src ~dst ~port value with
      | None -> schedule_deliver m deliver_at ~src ~dst ~port ~seq value crc_clean
      | Some corrupted ->
        m.corruptions <- m.corruptions + 1;
        if m.tracer_on then
          Obs.Tracer.emit m.tracer
            (Obs.Event.Corrupt_injected
               { time = base; track = m.pe.(dst); src; dst; port;
                 was = Value.to_string value;
                 became = Value.to_string corrupted });
        schedule_deliver m deliver_at ~src ~dst ~port ~seq corrupted
          (Integrity.checksum_value value)
    end;
    deliver_at

let am_latency m src ~ready_at =
  match m.fault with
  | None -> m.arch.Arch.am_latency
  | Some f -> m.arch.Arch.am_latency + FP.am_extra f ~node:src ~time:ready_at

(* Fire a cell's output slot: packet delivery through RN or AM depending
   on the policy and whether the producer is a block boundary. *)
let send m src slot value ~ready_at =
  let a = m.arena in
  let s = a.Arena.slot_base.!(src) + slot in
  let db = a.Arena.dest_base.!(s) and de = a.Arena.dest_base.!(s + 1) in
  for d = db to de - 1 do
    let gp = a.Arena.dest_port.!(d) in
    let ep_node = a.Arena.port_cell.!(gp) in
    let ep_port = a.Arena.port_sub.!(gp) in
    m.result_packets <- m.result_packets + 1;
    let base =
      if m.stored && m.boundary.!(src) then begin
        match a.Arena.ops.!(ep_node) with
        | Opcode.Output _ ->
          (* final results are stored once *)
          m.am_ops <- m.am_ops + 1;
          pool_start m.ams ready_at + am_latency m src ~ready_at
        | _ ->
          (* write by the producer, read by the consumer *)
          m.am_ops <- m.am_ops + 2;
          let write_done = pool_start m.ams ready_at + am_latency m src ~ready_at in
          pool_start m.ams write_done + am_latency m src ~ready_at
      end
      else ready_at + m.arch.Arch.rn_latency
    in
    let seq =
      match m.recovery with
      | None -> 0
      | Some r ->
        let seq = m.sent.(gp) in
        m.sent.(gp) <- seq + 1;
        m.outstanding.(src) <-
          {
            o_dst = ep_node;
            o_port = ep_port;
            o_seq = seq;
            o_value = value;
            o_attempts = 0;
          }
          :: m.outstanding.(src);
        schedule_retransmit m (ready_at + r.retransmit_after) ~src ~dst:ep_node
          ~port:ep_port ~seq;
        seq
    in
    let deliver_at =
      deliver_packet m ~src ~dst:ep_node ~port:ep_port ~seq ~value ~base
    in
    (* a misbehaving routing network may deliver the same result
       packet twice — without recovery, the breach the sanitizer
       exists to catch; with recovery, deduplicated by sequence *)
    match m.fault with
    | Some f
      when FP.duplicate f ~time:ready_at ~src ~dst:ep_node ~port:ep_port ->
      m.result_packets <- m.result_packets + 1;
      emit_fault m "dup" ~src ~dst:ep_node ~extra:0;
      schedule m (deliver_at + 1) ev_deliver ~src ~dst:ep_node ~port:ep_port
        ~seq value crc_clean
    | _ -> ()
  done;
  if m.san_on then San.on_send m.sanitizer ~time:ready_at ~node:src ~count:(de - db);
  m.pending_acks.!(src) <- m.pending_acks.!(src) + (de - db)

(* Send (or resend) an acknowledge for the packet [seq] consumed on
   [from_node.from_port], subject to ack faults. *)
let send_ack m ~from_node ~from_port ~seq ~dst ~acked_at =
  m.ack_packets <- m.ack_packets + 1;
  let dropped =
    match m.fault with
    | None -> false
    | Some f -> FP.drop_ack f ~time:acked_at ~src:from_node ~dst
  in
  if dropped then
    (* the acknowledge is lost in the network: without recovery its
       producer starves; with recovery the producer's retransmission
       provokes a fresh acknowledge *)
    emit_fault m "drop-ack" ~src:from_node ~dst ~extra:0
  else begin
    let extra =
      match m.fault with
      | None -> 0
      | Some f -> FP.ack_delay f ~time:acked_at ~src:from_node ~dst
    in
    if extra > 0 then emit_fault m "ack-delay" ~src:from_node ~dst ~extra;
    let at = acked_at + m.arch.Arch.rn_latency + extra in
    schedule m at ev_ack ~src:from_node ~dst ~port:from_port ~seq
      Arena.dummy_value 0;
    if m.tracer_on then
      Obs.Tracer.emit m.tracer
        (Obs.Event.Ack
           { time = at; track = m.pe.(dst); src = from_node; dst })
  end

(* Consume global port [p] of cell [id]; const ports are never consumed. *)
let consume m id p ~acked_at =
  let a = m.arena in
  if a.Arena.port_kind.!(p) <> Arena.kind_const then begin
    (if m.san_on then
       match
         San.on_consume m.sanitizer ~time:m.now ~node:id
           ~port:a.Arena.port_sub.!(p)
       with
       | Some v -> emit_violation m v
       | None -> ());
    m.present.!(p) <- false;
    let src = a.Arena.port_producer.!(p) in
    if src >= 0 then begin
      let seq = m.cons_seq.!(p) in
      m.cons_seq.!(p) <- seq + 1;
      send_ack m ~from_node:id ~from_port:a.Arena.port_sub.!(p) ~seq ~dst:src
        ~acked_at
    end
  end

let dispatch m id =
  let pe = m.pe.!(id) in
  m.dispatches <- m.dispatches + 1;
  m.pe_dispatches.!(pe) <- m.pe_dispatches.!(pe) + 1;
  let stall =
    match m.fault with
    | None -> 0
    | Some f -> FP.pe_stall f ~pe ~time:m.now
  in
  if stall > 0 then emit_fault m "pe-stall" ~src:id ~dst:id ~extra:stall;
  let start = pe_start m.pes pe (m.now + stall) in
  let done_at =
    if m.cell_uses_fu.!(id) then begin
      m.fu_ops <- m.fu_ops + 1;
      let fu_latency =
        match m.fault with
        | None -> m.arch.Arch.fu_latency
        | Some f -> m.arch.Arch.fu_latency + FP.fu_extra f ~node:id ~time:start
      in
      pool_start m.fus (start + 1) + fu_latency
    end
    else start + 1
  in
  if m.tracer_on then
    Obs.Tracer.emit m.tracer
      (Obs.Event.Fire
         { time = start; dur = max 1 (done_at - start); track = pe;
           node = id; label = m.arena.Arena.labels.(id);
           op = Opcode.name m.arena.Arena.ops.(id) });
  done_at

(* ---- firing rules, one helper per opcode family; [b] is the cell's
   first global port ---- *)

let finish_compute m id b value =
  let done_at = dispatch m id in
  for p = b to m.arena.Arena.port_base.!(id + 1) - 1 do
    consume m id p ~acked_at:done_at
  done;
  send m id 0 value ~ready_at:done_at;
  true

let fire_gate m id b ~tgate =
  if m.pending_acks.!(id) = 0 && m.present.!(b) && m.present.!(b + 1) then begin
    let ctl = Value.to_bool m.pvalue.!(b) in
    let data = m.pvalue.!(b + 1) in
    let pass = if tgate then ctl else not ctl in
    let done_at = dispatch m id in
    consume m id b ~acked_at:done_at;
    consume m id (b + 1) ~acked_at:done_at;
    if pass then send m id 0 data ~ready_at:done_at;
    true
  end
  else false

let fire_switch m id b =
  if m.pending_acks.!(id) = 0 && m.present.!(b) && m.present.!(b + 1) then begin
    let ctl = Value.to_bool m.pvalue.!(b) in
    let data = m.pvalue.!(b + 1) in
    let done_at = dispatch m id in
    consume m id b ~acked_at:done_at;
    consume m id (b + 1) ~acked_at:done_at;
    send m id (if ctl then 0 else 1) data ~ready_at:done_at;
    true
  end
  else false

let fire_merge m id b =
  if m.pending_acks.!(id) = 0 && m.present.!(b) then begin
    let sel = if Value.to_bool m.pvalue.!(b) then 1 else 2 in
    if m.present.!(b + sel) then begin
      let data = m.pvalue.!(b + sel) in
      let done_at = dispatch m id in
      consume m id b ~acked_at:done_at;
      consume m id (b + sel) ~acked_at:done_at;
      send m id 0 data ~ready_at:done_at;
      true
    end
    else false
  end
  else false

let fire_merge_switch m id b =
  if m.pending_acks.!(id) = 0 && m.present.!(b) && m.present.!(b + 3) then begin
    let sel = if Value.to_bool m.pvalue.!(b) then 1 else 2 in
    if m.present.!(b + sel) then begin
      let data = m.pvalue.!(b + sel) in
      let d = Value.to_bool m.pvalue.!(b + 3) in
      let done_at = dispatch m id in
      consume m id b ~acked_at:done_at;
      consume m id (b + sel) ~acked_at:done_at;
      consume m id (b + 3) ~acked_at:done_at;
      send m id 0 data ~ready_at:done_at;
      if d then send m id 1 data ~ready_at:done_at;
      true
    end
    else false
  end
  else false

let fire_fifo m id b k =
  let progressed = ref false in
  let buf = m.fifo_buf.!(id) in
  (* emit side *)
  if m.pending_acks.!(id) = 0 && m.fifo_len.!(id) > 0 then begin
    let h = m.fifo_head.!(id) in
    let v = buf.!(h) in
    m.fifo_head.!(id) <- (if h + 1 = Array.length buf then 0 else h + 1);
    m.fifo_len.!(id) <- m.fifo_len.!(id) - 1;
    let done_at = dispatch m id in
    send m id 0 v ~ready_at:done_at;
    progressed := true
  end;
  (* accept side *)
  if m.present.!(b) && m.fifo_len.!(id) < k then begin
    let tail = m.fifo_head.!(id) + m.fifo_len.!(id) in
    let tail = if tail >= Array.length buf then tail - Array.length buf else tail in
    buf.!(tail) <- m.pvalue.!(b);
    m.fifo_len.!(id) <- m.fifo_len.!(id) + 1;
    consume m id b ~acked_at:m.now;
    progressed := true
  end;
  !progressed

let fire_bool_source m id seq =
  if m.pending_acks.!(id) = 0 then begin
    match Ctlseq.nth seq m.cursor.!(id) with
    | None -> false
    | Some b ->
      m.cursor.!(id) <- m.cursor.!(id) + 1;
      let done_at = dispatch m id in
      send m id 0 (Value.Bool b) ~ready_at:done_at;
      true
  end
  else false

let fire_iota m id ~lo ~hi ~rep =
  if m.pending_acks.!(id) = 0 then begin
    let span = hi - lo + 1 in
    let v = lo + (m.cursor.!(id) / rep mod span) in
    m.cursor.!(id) <- m.cursor.!(id) + 1;
    let done_at = dispatch m id in
    send m id 0 (Value.Int v) ~ready_at:done_at;
    true
  end
  else false

let fire_input m id =
  let stream = m.stream.!(id) in
  if m.pending_acks.!(id) = 0 && m.cursor.!(id) < Array.length stream then begin
    let v = stream.!(m.cursor.!(id)) in
    m.cursor.!(id) <- m.cursor.!(id) + 1;
    let done_at = dispatch m id in
    send m id 0 v ~ready_at:done_at;
    true
  end
  else false

let fire_output m id b =
  if m.present.!(b) then begin
    m.collected.!(id) <- (m.now, m.pvalue.!(b)) :: m.collected.!(id);
    (if m.san_on then
       match San.on_output m.sanitizer ~time:m.now ~node:id with
       | Some viol -> emit_violation m viol
       | None -> ());
    let done_at = dispatch m id in
    consume m id b ~acked_at:done_at;
    true
  end
  else false

let fire_sink m id b =
  if m.present.!(b) then begin
    let done_at = dispatch m id in
    consume m id b ~acked_at:done_at;
    true
  end
  else false

(* The one dispatcher: opcode match per firing attempt. *)
let try_fire m id =
  let open Opcode in
  if m.pe_dead.!(m.pe.!(id)) then false
  else
    let b = m.arena.Arena.port_base.!(id) in
    let pv = m.pvalue in
    match m.arena.Arena.ops.!(id) with
    | Id ->
      m.pending_acks.!(id) = 0 && m.present.!(b)
      && finish_compute m id b pv.!(b)
    | Arith op ->
      m.pending_acks.!(id) = 0 && m.present.!(b) && m.present.!(b + 1)
      && finish_compute m id b (Opcode.apply_arith op pv.!(b) pv.!(b + 1))
    | Compare op ->
      m.pending_acks.!(id) = 0 && m.present.!(b) && m.present.!(b + 1)
      && finish_compute m id b (Opcode.apply_cmp op pv.!(b) pv.!(b + 1))
    | Logic op ->
      m.pending_acks.!(id) = 0 && m.present.!(b) && m.present.!(b + 1)
      && finish_compute m id b (Opcode.apply_logic op pv.!(b) pv.!(b + 1))
    | Math mf ->
      m.pending_acks.!(id) = 0 && m.present.!(b)
      && finish_compute m id b (Opcode.apply_math mf pv.!(b))
    | Neg ->
      m.pending_acks.!(id) = 0 && m.present.!(b)
      && finish_compute m id b
           (match pv.!(b) with
           | Value.Int i -> Value.Int (-i)
           | Value.Real f -> Value.Real (-.f)
           | Value.Bool _ -> invalid_arg "NEG of boolean")
    | Not ->
      m.pending_acks.!(id) = 0 && m.present.!(b)
      && finish_compute m id b (Value.Bool (not (Value.to_bool pv.!(b))))
    | Tgate -> fire_gate m id b ~tgate:true
    | Fgate -> fire_gate m id b ~tgate:false
    | Switch -> fire_switch m id b
    | Merge -> fire_merge m id b
    | Merge_switch -> fire_merge_switch m id b
    | Fifo k -> fire_fifo m id b k
    | Bool_source seq -> fire_bool_source m id seq
    | Iota { lo; hi; rep } -> fire_iota m id ~lo ~hi ~rep
    | Input _ -> fire_input m id
    | Output _ -> fire_output m id b
    | Sink -> fire_sink m id b

let find_outstanding l ~dst ~port ~seq =
  List.find_opt (fun e -> e.o_dst = dst && e.o_port = port && e.o_seq = seq) l

let remove_outstanding m src ~dst ~port ~seq =
  m.outstanding.(src) <-
    List.filter
      (fun e -> not (e.o_dst = dst && e.o_port = port && e.o_seq = seq))
      m.outstanding.(src)

let apply_deliver m ~src ~dst ~port ~seq value crc =
  let p = m.arena.Arena.port_base.!(dst) + port in
  if
    m.integrity && crc <> crc_clean && not (Integrity.verify_value value crc)
  then begin
    (* checksum mismatch: the payload was corrupted in flight.  Discard
       the packet — from here on it behaves exactly like a drop, so
       without recovery the consumer starves (and the wedge surfaces
       through watchdog/conservation), while with recovery the
       producer's retransmission timer resends a clean copy. *)
    m.corrupt_detected <- m.corrupt_detected + 1;
    (match m.recovery with
    | Some _
      when seq >= m.recv_seq.(p)
           && not (List.mem (port, seq) m.corrupt_pend.(dst)) ->
      m.corrupt_pend.(dst) <- (port, seq) :: m.corrupt_pend.(dst)
    | _ -> ());
    if m.tracer_on then
      Obs.Tracer.emit m.tracer
        (Obs.Event.Corrupt_detected
           { time = m.now; track = m.pe.(dst); src; dst; port; seq })
  end
  else
    match m.recovery with
    | Some _ when seq < m.recv_seq.(p) ->
      (* stale duplicate (retransmission of a packet already accepted,
         or a network dup).  If the original was already consumed, its
         acknowledge may have been the casualty — acknowledge again; if
         it is still resident, stay silent: the pending acknowledge
         will go out at consume time. *)
      if seq < m.cons_seq.(p) then
        send_ack m ~from_node:dst ~from_port:port ~seq ~dst:src
          ~acked_at:m.now
    | _ ->
      let violation =
        if m.san_on then San.on_deliver m.sanitizer ~time:m.now ~src ~dst ~port
        else None
      in
      (match violation with
      | Some v -> emit_violation m v (* drop: engine state is untrustworthy *)
      | None ->
        (match m.recovery with
        | None -> ()
        | Some _ ->
          m.recv_seq.(p) <- seq + 1;
          if List.mem (port, seq) m.corrupt_pend.(dst) then begin
            m.corrupt_pend.(dst) <-
              List.filter (fun ps -> ps <> (port, seq)) m.corrupt_pend.(dst);
            m.corrupt_healed <- m.corrupt_healed + 1;
            if m.tracer_on then
              Obs.Tracer.emit m.tracer
                (Obs.Event.Corrupt_healed
                   { time = m.now; track = m.pe.(dst); src; dst; port; seq })
          end);
        if m.present.!(p) then begin
          if not m.san_on then
            invalid_arg
              (Printf.sprintf "machine: arc capacity violated at %s#%d.%d"
                 m.arena.Arena.labels.(dst) dst port)
        end
        else begin
          m.present.!(p) <- true;
          m.pvalue.!(p) <- value
        end);
      mark m dst

let apply_ack m ~dst ~from_node ~from_port ~seq =
  let fresh =
    match m.recovery with
    | None -> true
    | Some _ ->
      (* acknowledges are idempotent under recovery: only the first one
         for a given packet frees the producer *)
      Option.is_some
        (find_outstanding m.outstanding.(dst) ~dst:from_node ~port:from_port
           ~seq)
      && begin
        remove_outstanding m dst ~dst:from_node ~port:from_port ~seq;
        true
      end
  in
  if fresh then begin
    (match
       if m.san_on then San.on_ack m.sanitizer ~time:m.now ~dst else None
     with
    | Some v -> emit_violation m v
    | None -> m.pending_acks.!(dst) <- m.pending_acks.!(dst) - 1);
    mark m dst
  end

let apply_retransmit m ~src ~dst ~port ~seq =
  match m.recovery with
  | None -> ()
  | Some r -> (
    match find_outstanding m.outstanding.(src) ~dst ~port ~seq with
    | None -> ()  (* acknowledged in the meantime *)
    | Some e ->
      let p = m.arena.Arena.port_base.(dst) + port in
      if m.recv_seq.(p) > seq && m.cons_seq.(p) <= seq then
        (* The packet is resident, unconsumed, at the consumer: a
           resend could only be deduplicated, and the acknowledge is
           not due until the consumer fires.  Hold the timer without
           charging an attempt — the retry budget is for packets and
           acknowledges actually missing, not for a consumer that is
           slow to drain its store.  (Hardware would learn this from
           a receipt status piggybacked on the routing network; the
           simulator reads the consumer's store directly.) *)
        schedule_retransmit m (m.now + retry_delay r e.o_attempts) ~src ~dst
          ~port ~seq
      else if e.o_attempts < r.max_retransmits then begin
        e.o_attempts <- e.o_attempts + 1;
        m.retransmits <- m.retransmits + 1;
        m.result_packets <- m.result_packets + 1;
        if m.tracer_on then
          Obs.Tracer.emit m.tracer
            (Obs.Event.Retransmit
               { time = m.now; track = m.pe.(src); src; dst; port;
                 attempt = e.o_attempts });
        ignore
          (deliver_packet m ~src ~dst ~port ~seq ~value:e.o_value
             ~base:(m.now + m.arch.Arch.rn_latency));
        schedule_retransmit m (m.now + retry_delay r e.o_attempts) ~src ~dst
          ~port ~seq;
        (* an active resend is protocol liveness, not silence: the
           no-progress watchdog must not fire while the backoff chain
           is still probing.  A truly wedged channel still terminates:
           once retries are exhausted nothing reschedules and the
           queue drains to a quiescent (and visibly wrong) stop. *)
        m.last_progress <- m.now
      end
      (* else: retries exhausted — the channel is declared lost and the
         wedge surfaces as a stall / conservation violation *))

(* Pop the next event, return its slot to the slab, and apply it. *)
let apply_next m =
  let e = Ipq.pop_payload m.events in
  let kind = m.ev_kind.!(e) in
  let src = m.ev_src.!(e) and dst = m.ev_dst.!(e) and port = m.ev_port.!(e)
  and seq = m.ev_seq.!(e) in
  let value = m.ev_value.!(e) and crc = m.ev_crc.!(e) in
  free_event m e;
  if kind = ev_deliver then begin
    m.live_events <- m.live_events - 1;
    apply_deliver m ~src ~dst ~port ~seq value crc
  end
  else if kind = ev_ack then begin
    m.live_events <- m.live_events - 1;
    apply_ack m ~dst ~from_node:src ~from_port:port ~seq
  end
  else apply_retransmit m ~src ~dst ~port ~seq

(* True when every unacknowledged packet in the system is already
   resident, unconsumed, at its consumer.  Resending any of them can
   only produce duplicates that the sequence check silently drops, and
   their acknowledges only come due if the consumer fires — so if the
   dirty queue is drained and no Deliver/Ack is in flight, no future
   event can change machine state: the remaining retransmission timers
   are noise and the machine is quiescent.  (This is what lets runs
   with free-running generator cells terminate: the generator's final
   token parks on an arc forever, and without this test its timer would
   keep the event queue alive until the watchdog misfired.) *)
let only_futile_outstanding m =
  let port_base = m.arena.Arena.port_base in
  Array.for_all
    (List.for_all (fun e ->
         let p = port_base.(e.o_dst) + e.o_port in
         m.recv_seq.(p) > e.o_seq && m.cons_seq.(p) <= e.o_seq))
    m.outstanding

(* Drop timer events whose packet has been acknowledged: they carry no
   work, and letting them advance the clock would make a clean drain
   look like a watchdog stall. *)
let rec skip_stale_retransmits m =
  if not (Ipq.is_empty m.events) then begin
    let e = Ipq.peek_payload m.events in
    if
      m.ev_kind.(e) = ev_retransmit
      && Option.is_none
           (find_outstanding m.outstanding.(m.ev_src.(e)) ~dst:m.ev_dst.(e)
              ~port:m.ev_port.(e) ~seq:m.ev_seq.(e))
    then begin
      ignore (Ipq.pop_payload m.events);
      free_event m e;
      skip_stale_retransmits m
    end
  end

let take_checkpoint m =
  m.last_snapshot <- Some (snapshot m);
  m.checkpoints <- m.checkpoints + 1;
  if m.tracer_on then
    Obs.Tracer.emit m.tracer
      (Obs.Event.Checkpoint
         { time = m.now; track = 0; seq = m.checkpoints;
           in_flight = Ipq.length m.events })

let do_crash m pe crash_at =
  m.crash_done <- true;
  if pe < Array.length m.pe_dead then begin
    if m.tracer_on then
      Obs.Tracer.emit m.tracer
        (Obs.Event.Fault_injected
           { time = crash_at; track = pe; kind = "pe-crash"; src = pe;
             dst = pe; extra = 0 });
    match m.recovery with
    | None ->
      (* fail-stop with no recovery: the PE's cells are gone for good;
         the run wedges and the stall report names the dead PE *)
      m.pe_dead.(pe) <- true
    | Some _ ->
      (* quiesce-and-rollback: surviving PEs discard the post-checkpoint
         timeline (cheap in a simulator, a barrier on hardware), the
         dead PE's cells are re-hosted, and the machine replays.  The
         acknowledge discipline makes the replay safe: output values are
         a function of the checkpoint state alone. *)
      let snap =
        match m.last_snapshot with
        | Some s -> s
        | None -> assert false (* taken at create when recovery is on *)
      in
      restore m snap;
      m.pe_dead.(pe) <- true;
      let alive p = not m.pe_dead.(p) in
      let remapped = ref 0 in
      for id = 0 to m.arena.Arena.n - 1 do
        if m.pe_dead.(m.pe.(id)) then begin
          m.pe.(id) <- Arch.place m.arch ~alive id;
          incr remapped
        end
      done;
      m.recoveries <- m.recoveries + 1;
      if m.tracer_on then
        Obs.Tracer.emit m.tracer
          (Obs.Event.Recovery
             { time = crash_at; track = pe; pe; restored_to = snap.sn_time;
               remapped = !remapped })
  end

let advance m ~until =
  let continue_ = ref (not m.finished) in
  while !continue_ do
    (* fire everything enabled at the current time *)
    let fired_any = ref false in
    while m.dirty_len > 0 do
      let id = m.dirty.!(m.dirty_head) in
      m.dirty_head <-
        (let h = m.dirty_head + 1 in
         if h = Array.length m.dirty then 0 else h);
      m.dirty_len <- m.dirty_len - 1;
      Bytes.unsafe_set m.in_dirty id '\000';
      if try_fire m id then begin
        fired_any := true;
        (* a FIFO can both emit and accept in sequence; re-check *)
        mark m id
      end
    done;
    if !fired_any then m.last_progress <- m.now;
    if m.san_on && San.tripped m.sanitizer then begin
      m.finished <- true;
      continue_ := false
    end
    else begin
      skip_stale_retransmits m;
      let crash_pending = if m.crash_done then None else m.crash in
      let t = Ipq.peek_priority m.events in
      if t < 0 || (m.live_events = 0 && only_futile_outstanding m) then begin
        (* quiescent (possibly with only futile retransmission timers
           left) — unless the crash is still due, in which case it
           strikes a silent machine *)
        match crash_pending with
        | Some (pe, at) when at <= m.max_time -> do_crash m pe (max at m.now)
        | _ ->
          m.quiescent <- true;
          m.finished <- true;
          continue_ := false
      end
      else
        match crash_pending with
        | Some (pe, at) when at <= t -> do_crash m pe at
        | _ ->
          if t > m.max_time then begin
            m.finished <- true;
            continue_ := false
          end
          else if
            match m.watchdog with
            | Some k -> t - m.last_progress > k
            | None -> false
          then begin
            m.watchdog_tripped <- true;
            m.finished <- true;
            continue_ := false
          end
          else if t > until then continue_ := false
          else begin
            if t >= m.next_checkpoint then begin
              take_checkpoint m;
              m.next_checkpoint <-
                t
                + (match m.recovery with
                  | Some r -> max 1 r.checkpoint_every
                  | None -> max_int)
            end;
            m.now <- t;
            while Ipq.peek_priority m.events = t do
              apply_next m
            done
          end
    end
  done

let finished m = m.finished

let build_stall m reason =
  let a = m.arena in
  let blocked = ref [] in
  let edges = ref [] in
  for id = 0 to a.Arena.n - 1 do
    let held = ref [] and missing = ref [] in
    for p = a.Arena.port_base.(id) to a.Arena.port_base.(id + 1) - 1 do
      if a.Arena.port_kind.(p) <> Arena.kind_const then
        if m.present.(p) then
          held := (a.Arena.port_sub.(p), Value.to_string m.pvalue.(p)) :: !held
        else begin
          missing := a.Arena.port_sub.(p) :: !missing;
          let src = a.Arena.port_producer.(p) in
          if src >= 0 then edges := (id, src) :: !edges
        end
    done;
    let held = List.rev !held and missing = List.rev !missing in
    if m.pending_acks.(id) > 0 then
      for d = a.Arena.dest_base.(a.Arena.slot_base.(id))
          to a.Arena.dest_base.(a.Arena.slot_base.(id + 1)) - 1 do
        let p = a.Arena.dest_port.(d) in
        if m.present.(p) && a.Arena.port_producer.(p) = id then
          edges := (id, a.Arena.port_cell.(p)) :: !edges
      done;
    let pending_inputs =
      match a.Arena.ops.(id) with
      | Opcode.Input _ -> Array.length m.stream.(id) - m.cursor.(id)
      | _ -> 0
    in
    if
      held <> [] || m.fifo_len.(id) > 0 || pending_inputs > 0
      || m.pending_acks.(id) > 0
    then begin
      let b =
        {
          SR.b_node = id;
          b_label = a.Arena.labels.(id);
          b_op = Opcode.name a.Arena.ops.(id);
          b_missing = missing;
          b_held = held;
          b_pending_acks = m.pending_acks.(id);
          b_queue_len = m.fifo_len.(id);
          b_pending_inputs = pending_inputs;
        }
      in
      if m.tracer_on then
        Obs.Tracer.emit m.tracer
          (Obs.Event.Stall
             { time = m.now; track = m.pe.(id); node = id;
               label = a.Arena.labels.(id);
               reason = SR.blocked_line b });
      blocked := b :: !blocked
    end
  done;
  let dead_pes =
    let out = ref [] in
    Array.iteri (fun pe dead -> if dead then out := pe :: !out) m.pe_dead;
    List.rev !out
  in
  match List.rev !blocked with
  | [] -> None
  | blocked ->
    Some (SR.make ~dead_pes ~time:m.now ~reason ~blocked ~edges:!edges ())

let result m =
  let outputs =
    List.map
      (fun (name, id) -> (name, List.rev m.collected.(id)))
      m.arena.Arena.outputs
  in
  if m.finished && m.quiescent && m.san_on && not (San.tripped m.sanitizer)
  then
    List.iter (emit_violation m)
      (San.on_quiescence m.sanitizer ~time:m.now ~held:(fun node port ->
           let p = m.arena.Arena.port_base.(node) + port in
           m.arena.Arena.port_kind.(p) <> Arena.kind_const && m.present.(p)));
  let stall =
    if not m.finished then None
    else if San.tripped m.sanitizer then None
    else if m.watchdog_tripped then build_stall m SR.No_progress
    else if m.quiescent then build_stall m SR.Deadlock
    else build_stall m SR.Max_time_exhausted
  in
  {
    outputs;
    stats = stats_of m;
    end_time = m.now;
    quiescent = m.quiescent;
    stall;
    violations = San.violations m.sanitizer;
    checkpoints = m.checkpoints;
    recoveries = m.recoveries;
  }

let run_cfg cfg ~(arch : Arch.t) g ~inputs =
  let m = create_cfg cfg ~arch g ~inputs in
  advance m ~until:max_int;
  result m

let am_fraction (stats : stats) =
  (* same class of bug as the PR 1 initiation_interval fix: an empty run
     has no defined AM fraction — report nan, not a spurious 0
     (Df_util.Conventions states the repo-wide rule) *)
  Df_util.Conventions.ratio
    (float_of_int stats.am_ops)
    (float_of_int (stats.dispatches + stats.am_ops))

let stream result name =
  Df_util.Conventions.lookup_stream ~who:"Machine_engine" result.outputs name

let output_values result name = List.map snd (stream result name)

let output_times result name = List.map fst (stream result name)

let engine arch : (module Engine_intf.ENGINE with type result = result) =
  (module struct
    type nonrec result = result

    let run cfg g ~inputs = run_cfg cfg ~arch g ~inputs
    let output_values = output_values
    let output_times = output_times
  end)
