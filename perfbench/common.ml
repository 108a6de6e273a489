(* Timing, order statistics, host facts and the result record every
   workload returns. *)

let now = Unix.gettimeofday

(* [quantile xs q] on an unsorted list, interpolating linearly between
   closest ranks; nan on an empty list. *)
let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* ---- host speed ------------------------------------------------------ *)

(* The speed of a shared host wanders, in slow and fast spells lasting
   from seconds to minutes.  In probes of several minutes on a 2-vCPU VM,
   the 20-second medians of one deep compile spread by up to 24%
   (quartile distance over median), of a sim run by 18% and of a machine
   run by 31%.  CPU time moved with wall time, and steal time was a few
   percent, so neither would help.  Tight loops over arrays barely moved.
   Loops of hashing, polymorphic compare and table lookups moved with the
   workloads.  Every timed operation is therefore reported against such
   a reference loop, timed close to it: [normalised] scales a time to a
   host on which the reference takes [reference_nominal_s].  Normalised
   so, the windows of the probes spread by 3-8%.

   The reference is code of the benchmark, not of the program, so no
   change to the program can move it.  Its table is 8192 entries, and
   what else it allocates dies young, so it adds next to nothing to the
   program's heap or to its garbage-collection work. *)

let reference_table =
  let h = Hashtbl.create 8192 in
  for i = 0 to 8191 do
    Hashtbl.replace h (i * 7919) (string_of_int i, float_of_int i)
  done;
  h

let reference_loop () =
  let acc = ref 0 and x = ref 1 in
  for _ = 1 to 100_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = (!x land 0xff, !x lsr 8) in
    acc := !acc + Hashtbl.hash k + if compare k (3, 4) > 0 then 1 else 0
  done;
  for _ = 1 to 50_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    match Hashtbl.find_opt reference_table (!x mod 8192 * 7919) with
    | Some (s, _) -> acc := !acc + String.length s
    | None -> ()
  done;
  ignore (Sys.opaque_identity !acc)

(* what the reference loop took, typically, on the 2-vCPU VM the
   benchmark was tuned on *)
let reference_nominal_s = 0.008

(* (when, seconds) of every reference loop of the run *)
let reference_samples = ref []

(* Time the reference loop once.  Workloads call this between their
   timed operations, so that every operation has samples close by. *)
let reference () =
  let t0 = now () in
  reference_loop ();
  let t1 = now () in
  reference_samples := (t1, t1 -. t0) :: !reference_samples

let reference_ms () = median (List.map snd !reference_samples) *. 1000.0

(* the median of the [nearby] reference samples closest to [at] *)
let nearby = 5

let reference_at at =
  !reference_samples
  |> List.map (fun (t, s) -> (Float.abs (t -. at), s))
  |> List.sort compare
  |> List.filteri (fun i _ -> i < nearby)
  |> List.map snd
  |> median

(* [seconds], measured at [at], on the nominal host *)
let normalised ~at seconds = seconds *. reference_nominal_s /. reference_at at

(* Timed samples: (when, seconds).  An operation or a set-up is
   represented by the median of its normalised samples.  The median, not
   the fastest sample: on a shared host the fastest sample of a run
   moved by a quarter from run to run, since how often a repeat runs
   undisturbed, by other tenants or by the garbage collector, varies. *)
type samples = (float * float) list ref

let samples () : samples = ref []

let record (ts : samples) seconds = ts := (now (), seconds) :: !ts

let median_normalised (ts : samples) =
  median (List.map (fun (at, s) -> normalised ~at s) !ts)

(* Run [f] [n] times and return the median wall time of one call and
   the last result.  Not normalised: the caller records it. *)
let median_time n f =
  let rec go k times last =
    if k = 0 then (median times, Option.get last)
    else
      let t0 = now () in
      let r = f () in
      go (k - 1) ((now () -. t0) :: times) (Some r)
  in
  go n [] None

(* Repeated samples of the same operations, with the work each does. *)
type rate = (string, int * samples) Hashtbl.t

let rate () : rate = Hashtbl.create 16

let add_sample (r : rate) key ~work ~seconds =
  match Hashtbl.find_opt r key with
  | Some (_, ts) -> record ts seconds
  | None ->
    let ts = samples () in
    record ts seconds;
    Hashtbl.replace r key (work, ts)

(* Work per second: each operation once, at its median time. *)
let per_second (r : rate) =
  let work, time =
    Hashtbl.fold
      (fun _ (w, ts) (work, time) -> (work + w, time +. median_normalised ts))
      r (0, 0.0)
  in
  float_of_int work /. time

(* Each operation's median time, in ms. *)
let median_ms (r : rate) =
  Hashtbl.fold (fun _ (_, ts) acc -> (median_normalised ts *. 1000.0) :: acc) r []

(* Minor-heap words allocated by [f], with its result and wall time. *)
let measured f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let w1 = Gc.minor_words () in
  (r, t1 -. t0, int_of_float (w1 -. w0))

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* ---- host ------------------------------------------------------------ *)

(* A fixed integer and float loop: its time lets wall-clock figures from
   different hosts be compared.  Recorded, never gated on. *)
let calibration_ms () =
  let once () =
    let t0 = now () in
    let x = ref 0x2545F491 and acc = ref 0.0 in
    for i = 1 to 20_000_000 do
      x := (!x * 1103515245) + 12345;
      acc := !acc +. float_of_int (!x land 0xffff) *. 1e-9 +. float_of_int i *. 1e-12
    done;
    ignore (Sys.opaque_identity !acc);
    (now () -. t0) *. 1000.0
  in
  List.fold_left min infinity (List.init 3 (fun _ -> once ()))

let nproc () =
  match Unix.open_process_args_in "nproc" [| "nproc" |] with
  | ic -> (
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> (
      match int_of_string_opt (String.trim line) with
      | Some n -> n
      | None -> Domain.recommended_domain_count ())
    | _ -> Domain.recommended_domain_count ())
  | exception Unix.Unix_error _ -> Domain.recommended_domain_count ()

let host_fields () =
  [ ("nproc", Obs.Json.Int (nproc ()));
    ("ocaml", Obs.Json.String Sys.ocaml_version);
    ("calibration_ms", Obs.Json.Float (calibration_ms ())) ]

(* ---- results --------------------------------------------------------- *)

(* Result files, traces and the serve workload's socket and journals. *)
let out_dir = ".perfbench_out"

let make_out_dir () =
  try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

type metric = { name : string; value : float; unit : string }

type result = {
  attempted : int;
  failed : int;
  failures : string list;  (** why the run is not correct; empty when it is *)
  e2e : metric list;  (** the end-to-end metrics, untraced or traced *)
  layers : metric list;  (** per-layer metrics; traced runs only *)
  extra_layers : metric list;
      (** layer metrics this workload alone exercises (printed and
          written to the result file, not in the JSON line) *)
}

let metric name unit value = { name; value; unit }

(* A failure list shared by the checks of one run. *)
type checks = { mutable msgs : string list; mutable bad : int }

let checks () = { msgs = []; bad = 0 }

let fail c fmt =
  Printf.ksprintf
    (fun m ->
      c.bad <- c.bad + 1;
      if List.length c.msgs < 20 then c.msgs <- m :: c.msgs)
    fmt

let values_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun x y ->
         match (x, y) with
         | Dfg.Value.Real x, Dfg.Value.Real y ->
           Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
         | x, y -> x = y)
       a b

let by_name l = List.sort (fun (a, _) (b, _) -> compare a b) l

(* Outputs of two engines, value for value (arrival times differ). *)
let same_values outs outs' =
  List.length outs = List.length outs'
  && List.for_all2
       (fun (n, arr) (n', arr') ->
         n = n' && values_equal (List.map snd arr) (List.map snd arr'))
       (by_name outs) (by_name outs')

(* The value-level corruption behind [--corrupt]: bump the first real
   of the first stream, so the checks that follow must fail. *)
let corrupt_outputs = function
  | (n, (t, Dfg.Value.Real v) :: rest) :: others ->
    (n, (t, Dfg.Value.Real (v +. 1.0)) :: rest) :: others
  | outs -> outs
