(* In-memory spans around the benchmark's calls into each layer.

   A recorder is either off — [span] then just calls its function — or
   on, in which case every [span] keeps its name, start, end, parent
   span and request id.  The spans are written at the end as Chrome
   trace-event JSON (the format [Obs.Perfetto] emits for simulated time;
   here the clock is the host's), and summarized as per-layer latency
   percentiles and self times.  The benchmark is single-threaded, so a
   stack of open spans gives each span its parent. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;  (** -1 at top level *)
  rid : int;  (** request id on serve-mixed, -1 elsewhere *)
  track : int;  (** 1 for calls the benchmark makes, 2 for wire latencies *)
}

type t = {
  on : bool;
  origin : float;
  mutable spans : span list;  (** newest first *)
  mutable open_ : int list;
  mutable next : int;
}

let create on =
  { on; origin = Common.now (); spans = []; open_ = []; next = 0 }

let enabled t = t.on

let span t ?(rid = -1) name f =
  if not t.on then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.open_ with p :: _ -> p | [] -> -1 in
    t.open_ <- id :: t.open_;
    let start = Common.now () in
    let finish () =
      let stop = Common.now () in
      t.open_ <- List.tl t.open_;
      t.spans <- { id; name; start; stop; parent; rid; track = 1 } :: t.spans
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

(* Record an already-timed interval (used for request latencies observed
   on the wire, whose start is a schedule time, not a call). *)
let record t ?(rid = -1) name ~start ~stop =
  if t.on then begin
    let id = t.next in
    t.next <- id + 1;
    t.spans <- { id; name; start; stop; parent = -1; rid; track = 2 } :: t.spans
  end

let durations_ms t name =
  List.filter_map
    (fun s -> if s.name = name then Some ((s.stop -. s.start) *. 1000.0) else None)
    t.spans

let total_s t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.stop -. s.start) else acc)
    0.0 t.spans

(* Self time per span name: a span's duration minus the time its direct
   children cover (children never overlap in a single-threaded run). *)
let self_times t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (s.stop -. s.start
          +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    t.spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        s.stop -. s.start
        -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)
      in
      let n, total, selft =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (n + 1, total +. (s.stop -. s.start), selft +. self))
    t.spans;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) by_name []
  |> List.sort (fun (_, (_, _, a)) (_, (_, _, b)) -> compare b a)

let print_self_times t =
  let rows = self_times t in
  let all = List.fold_left (fun acc (_, (_, _, s)) -> acc +. s) 0.0 rows in
  Printf.printf "%-28s %8s %12s %12s %7s\n" "span" "count" "total_ms"
    "self_ms" "self%";
  List.iter
    (fun (name, (n, total, self)) ->
      Printf.printf "%-28s %8d %12.3f %12.3f %6.1f%%\n" name n (total *. 1000.0)
        (self *. 1000.0)
        (if all > 0.0 then 100.0 *. self /. all else 0.0))
    rows

let to_chrome_json t =
  let module J = Obs.Json in
  let us x = J.Float ((x -. t.origin) *. 1e6) in
  let event s =
    J.Obj
      [ ("name", J.String s.name);
        ("cat", J.String (List.hd (String.split_on_char '.' s.name)));
        ("ph", J.String "X");
        ("ts", us s.start);
        ("dur", J.Float ((s.stop -. s.start) *. 1e6));
        ("pid", J.Int 1);
        ("tid", J.Int s.track);
        ( "args",
          J.Obj
            ([ ("id", J.Int s.id); ("parent", J.Int s.parent) ]
            @ if s.rid >= 0 then [ ("rid", J.Int s.rid) ] else []) ) ]
  in
  J.Obj
    [ ("traceEvents", J.List (List.rev_map event t.spans));
      ("displayTimeUnit", J.String "ms") ]
