(* Generator of deep pipe-structured Val programs.

   A program is a chain of [blocks] array definitions over two input
   arrays.  Most blocks are forall stencils: two or three terms, each a
   coefficient times an earlier array read at a small random skew.  A
   term usually reads the previous block; 30% of terms read an older
   block, 2 to 13 arrays back, which makes reconvergent paths of unequal
   length that the balancer must pad with FIFOs.  One block in seven is a
   simple for-iter affine recurrence, [T[i] = 0.5 T[i-1] + 0.5 X[i]],
   which the compiler maps with the companion scheme.

   Every coefficient set has absolute sum at most 1 and every input lies
   in [-1, 1], so all values stay in [-1, 1] however deep the chain.

   Ranges only shrink: block k's index range lies inside every earlier
   array's range, so any skew inside the margins is a legal window.

   The program's shape depends on its index and block count; the seed
   picks its coefficients (and, in [inputs], its input data). *)

type program = { source : string; recurrences : int }

(* the fewest elements a block may construct *)
let min_width = 24

let recurrence_every = 7
let back_ref_percent = 30

(* how far back a reaching term may read, in arrays *)
let back_ref_window = 12

let two_term_sets = [| [ 0.5; 0.5 ]; [ 0.5; -0.5 ]; [ 0.75; 0.25 ] |]

let three_term_sets =
  [| [ 0.5; 0.25; 0.25 ]; [ 0.5; -0.25; 0.25 ]; [ 0.25; 0.5; -0.25 ] |]

let shuffled st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* A shuffled deck of [n] cards: [k] true, the rest false. *)
let deck st n k = shuffled st (Array.init n (fun i -> i < k))

let generate ~seed ~index ~blocks =
  (* two streams: [shape] draws the graph's shape — topology, skews,
     ranges — from the program's index and size alone, so that compile
     cost does not move from seed to seed (the balancer's cost is
     sensitive to every one of these); [st] draws the coefficients from
     the seed *)
  let shape = Random.State.make [| 0x5eed; index; blocks |] in
  let st = Random.State.make [| 0xd7a; seed; index; blocks |] in
  let n = blocks + min_width + 8 in
  let buf = Buffer.create (blocks * 96) in
  Buffer.add_string buf
    (Printf.sprintf
       "param n = %d;\ninput A0 : array[real] [0, n];\ninput B0 : array[real] [0, n];\n"
       n);
  (* which blocks are recurrences, how many terms each stencil has,
     which terms reach back and how far: dealt from shuffled decks *)
  let recurrence = deck shape blocks (blocks / recurrence_every) in
  recurrence.(0) <- false;
  let three_terms = deck shape blocks (blocks / 2) in
  let reaches_back =
    deck shape (3 * blocks) (3 * blocks * back_ref_percent / 100)
  in
  let distances =
    shuffled shape
      (Array.init (3 * blocks) (fun i -> 2 + (i mod back_ref_window)))
  in
  let term_no = ref 0 in
  (* the arrays defined so far, oldest first, with their index ranges *)
  let arrays = Array.make (blocks + 2) ("A0", 0, n) in
  arrays.(1) <- ("B0", 0, n);
  let defined = ref 2 in
  let lo = ref 0 and hi = ref n in
  let recurrences = ref 0 and reaches = ref 0 in
  let pick_source () =
    let back = reaches_back.(!term_no mod Array.length reaches_back) in
    incr term_no;
    if back && !defined > 2 then begin
      incr reaches;
      let distance = distances.(!reaches mod Array.length distances) in
      arrays.(max 0 (!defined - distance))
    end
    else arrays.(!defined - 1)
  in
  let term coeff =
    let name, alo, ahi = pick_source () in
    (* legal skews s: alo <= lo + s and hi + s <= ahi, kept within +-2 *)
    let smin = max (-2) (alo - !lo) and smax = min 2 (ahi - !hi) in
    let s = smin + Random.State.int shape (smax - smin + 1) in
    let idx =
      if s = 0 then "i"
      else if s > 0 then Printf.sprintf "i+%d" s
      else Printf.sprintf "i-%d" (-s)
    in
    Printf.sprintf "%g * %s[%s]" coeff name idx
  in
  for k = 1 to blocks do
    let name = Printf.sprintf "X%d" k in
    if recurrence.(k - 1) then begin
      (* counter lo+1 .. hi-1, reading X[i] up to X[hi] on the final
         cycle; the result covers [lo, hi-1] *)
      incr recurrences;
      let src, _, _ = pick_source () in
      Buffer.add_string buf
        (Printf.sprintf
           "%s : array[real] :=\n  for\n    i : integer := %d;\n    T : array[real] := [%d: 0]\n  do\n    let p : real := 0.5 * T[i-1] + 0.5 * %s[i]\n    in\n      if i < %d then iter T := T[i: p]; i := i + 1 enditer else T endif\n    endlet\n  endfor;\n"
           name (!lo + 1) !lo src !hi);
      decr hi
    end
    else begin
      if !hi - !lo > min_width then begin
        if Random.State.bool shape then incr lo;
        if Random.State.bool shape then decr hi
      end;
      let sets = if three_terms.(k - 1) then three_term_sets else two_term_sets in
      let coeffs = sets.(Random.State.int st (Array.length sets)) in
      let body = String.concat " + " (List.map term coeffs) in
      Buffer.add_string buf
        (Printf.sprintf
           "%s : array[real] :=\n  forall i in [%d, %d]\n  construct\n    %s\n  endall;\n"
           name !lo !hi body)
    end;
    arrays.(!defined) <- (name, !lo, !hi);
    incr defined
  done;
  { source = Buffer.contents buf; recurrences = !recurrences }

(* Block counts spread evenly over [lo, hi], so that a workload's size
   profile is fixed. *)
let stratified ~count ~lo ~hi =
  List.init count (fun k ->
      if count = 1 then lo else lo + ((hi - lo) * k / (count - 1)))

let program_set ~seed ~count ~lo ~hi =
  List.mapi
    (fun index blocks -> generate ~seed ~index ~blocks)
    (stratified ~count ~lo ~hi)

(* One input wave per array input, drawn from the seed. *)
let inputs ~seed ~index (cp : Compiler.Program_compile.compiled) =
  let st = Random.State.make [| 0x1a7; seed; index |] in
  List.map
    (fun (name, shape) ->
      ( name,
        List.init (Compiler.Program_compile.wave_size shape) (fun _ ->
            Dfg.Value.Real (Random.State.float st 2.0 -. 1.0)) ))
    cp.Compiler.Program_compile.cp_inputs

(* The generator's self-check: the same seed yields byte-identical
   sources; every program classifies as pipe-structured, compiles with
   [`Optimal] balancing, picks the companion scheme for every
   recurrence and matches the Val interpreter over two waves.  [run
   index compiled ~inputs] simulates program [index], as compiled by
   the default compile, for two waves of its one-wave [inputs].  Returns
   the failures found, as messages. *)
let self_check ~seed ~count ~lo ~hi ~run programs =
  let again = program_set ~seed ~count ~lo ~hi in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iteri
    (fun index (p, p') ->
      if p.source <> p'.source then
        fail "program %d: the same seed gave a different source" index;
      match
        let prog = Val_lang.Parser.parse_program p.source in
        let pp = Val_lang.Classify.classify_program prog in
        let options =
          { Compiler.Program_compile.default_options with balance = `Optimal }
        in
        let cp = Compiler.Program_compile.compile ~options pp in
        (prog, cp)
      with
      | exception e -> fail "program %d: %s" index (Printexc.to_string e)
      | prog, cp -> (
        let companions =
          List.length
            (List.filter
               (fun (_, scheme) -> scheme = "for-iter/companion")
               cp.Compiler.Program_compile.cp_schemes)
        in
        if companions <> p.recurrences then
          fail "program %d: %d recurrences but %d companion blocks" index
            p.recurrences companions;
        let inputs = inputs ~seed ~index cp in
        let result = run index cp ~inputs in
        match Compiler.Driver.check_against_oracle prog cp result ~inputs with
        | () -> ()
        | exception Compiler.Driver.Mismatch m ->
          fail "program %d: differs from the interpreter: %s" index m))
    (List.combine programs again);
  List.rev !failures
