(* Equivalence of the event-driven cone-restricted fault-simulation path with
   the full levelized broadcast path, plus unit tests for the fanout-cone
   index the event path's chunk grouping relies on. *)

module Circuit = Tvs_netlist.Circuit
module Gate = Tvs_netlist.Gate
module Fault = Tvs_fault.Fault
module Fault_gen = Tvs_fault.Fault_gen
module Fault_sim = Tvs_fault.Fault_sim
module Profiles = Tvs_circuits.Profiles
module Synth = Tvs_circuits.Synth
module Rng = Tvs_util.Rng
module Metrics = Tvs_obs.Metrics

(* Same deterministic family as test_properties.ml. *)
let tiny_profile i =
  let styles = [| Profiles.Balanced; Profiles.Shallow; Profiles.Deep |] in
  {
    Profiles.name = Printf.sprintf "ev-%d" i;
    npi = 2 + (i mod 5);
    npo = 1 + (i mod 4);
    nff = 4 + (i mod 9);
    ngates = 25 + (7 * (i mod 11));
    style = styles.(i mod 3);
  }

let tiny_circuit i = Synth.generate (tiny_profile i)

let random_stimulus rng c =
  ( Array.init (Circuit.num_inputs c) (fun _ -> Rng.bool rng),
    Array.init (Circuit.num_flops c) (fun _ -> Rng.bool rng) )

(* A random fault subset biased to include branch faults when present. *)
let random_faults rng c =
  let all = Fault_gen.all c in
  let n = Array.length all in
  let len = 1 + Rng.int rng (min n 150) in
  Array.init len (fun _ -> all.(Rng.int rng n))

let outcome_equal a b =
  match (a, b) with
  | Fault_sim.Same, Fault_sim.Same -> true
  | Fault_sim.Po_detected, Fault_sim.Po_detected -> true
  | Fault_sim.Capture_differs x, Fault_sim.Capture_differs y -> x = y
  | _ -> false

let frame_equal (a : Fault_sim.frame) (b : Fault_sim.frame) =
  a.Fault_sim.po = b.Fault_sim.po && a.Fault_sim.capture = b.Fault_sim.capture

let batch_equal (a : Fault_sim.batch_result) (b : Fault_sim.batch_result) =
  frame_equal a.Fault_sim.good b.Fault_sim.good
  && Array.length a.Fault_sim.outcomes = Array.length b.Fault_sim.outcomes
  && Array.for_all2 outcome_equal a.Fault_sim.outcomes b.Fault_sim.outcomes

(* 0. Ground truth: a naive single-fault bool-level simulator in the legacy
   per-gate-record style — it walks [Circuit.driver] nodes directly, knowing
   nothing of the flat SoA tables, lane packing, injection plans or diff
   masks the production paths share. Agreement across arbitrary circuits and
   fault mixes checks the whole packed stack end to end. *)
let ref_frame c ~fault ~pi ~state =
  let values = Array.make (Circuit.num_nets c) false in
  let stem_override net =
    match fault with
    | Some { Fault.branch = None; stem; stuck } when stem = net -> Some stuck
    | Some _ | None -> None
  in
  let read ~sink ~pin src =
    match fault with
    | Some { Fault.branch = Some (s, p); stuck; _ } when s = sink && p = pin -> stuck
    | Some _ | None -> values.(src)
  in
  let set net v =
    values.(net) <- (match stem_override net with Some b -> b | None -> v)
  in
  Array.iteri (fun i net -> set net pi.(i)) (Circuit.inputs c);
  Array.iteri (fun i net -> set net state.(i)) (Circuit.flops c);
  Array.iter
    (fun net ->
      match Circuit.driver c net with
      | Circuit.Const b -> set net b
      | Circuit.Gate_node (kind, ins) ->
          let inb p = read ~sink:net ~pin:p ins.(p) in
          let fold op seed =
            let acc = ref seed in
            Array.iteri (fun p _ -> acc := op !acc (inb p)) ins;
            !acc
          in
          let v =
            match kind with
            | Gate.And -> fold ( && ) true
            | Gate.Nand -> not (fold ( && ) true)
            | Gate.Or -> fold ( || ) false
            | Gate.Nor -> not (fold ( || ) false)
            | Gate.Xor -> fold ( <> ) false
            | Gate.Xnor -> not (fold ( <> ) false)
            | Gate.Not -> not (inb 0)
            | Gate.Buf -> inb 0
          in
          set net v
      | Circuit.Primary_input | Circuit.Flip_flop _ -> ())
    (Circuit.topo_order c);
  let po = Array.map (fun net -> values.(net)) (Circuit.outputs c) in
  let capture =
    Array.map
      (fun fnet ->
        match Circuit.driver c fnet with
        | Circuit.Flip_flop d -> read ~sink:fnet ~pin:0 d
        | Circuit.Primary_input | Circuit.Gate_node _ | Circuit.Const _ -> assert false)
      (Circuit.flops c)
  in
  (po, capture)

let qcheck_reference_equivalence =
  QCheck.Test.make ~name:"packed paths equal naive reference" ~count:40
    QCheck.(pair (int_range 0 32) small_int)
    (fun (i, seed) ->
      let c = tiny_circuit i in
      let rng = Rng.create (Int64.of_int seed) in
      let faults = random_faults rng c in
      let pi, state = random_stimulus rng c in
      let good = ref_frame c ~fault:None ~pi ~state in
      let expect = Array.map (fun f -> ref_frame c ~fault:(Some f) ~pi ~state <> good) faults in
      List.for_all
        (fun mode ->
          Fault_sim.detected_faults (Fault_sim.create ~mode c) ~pi ~state faults = expect)
        [ Fault_sim.Event_driven; Fault_sim.Full ])

(* 1. run_batch: event-driven outcomes (including Capture_differs payloads)
   are bit-exact with the full path on arbitrary circuits and fault mixes. *)
let qcheck_run_batch_equivalence =
  QCheck.Test.make ~name:"event run_batch equals full path" ~count:50
    QCheck.(pair (int_range 0 32) small_int)
    (fun (i, seed) ->
      let c = tiny_circuit i in
      let ev = Fault_sim.create c in
      let full = Fault_sim.create ~mode:Fault_sim.Full c in
      let rng = Rng.create (Int64.of_int seed) in
      let faults = random_faults rng c in
      let pi, state = random_stimulus rng c in
      let a = Fault_sim.run_batch ev ~pi ~state ~faults in
      let b = Fault_sim.run_batch full ~pi ~state ~faults in
      batch_equal a b)

(* 2. run_per_state: per-lane divergent scan states seed correctly. *)
let qcheck_run_per_state_equivalence =
  QCheck.Test.make ~name:"event run_per_state equals full path" ~count:50
    QCheck.(pair (int_range 0 32) small_int)
    (fun (i, seed) ->
      let c = tiny_circuit i in
      let ev = Fault_sim.create c in
      let full = Fault_sim.create ~mode:Fault_sim.Full c in
      let rng = Rng.create (Int64.of_int seed) in
      let faults = random_faults rng c in
      let pi, good_state = random_stimulus rng c in
      let nflops = Circuit.num_flops c in
      (* Divergent states: each fault's machine mutates a few bits of the
         good state; some keep it unchanged (the convergent case). *)
      let states =
        Array.map
          (fun _ ->
            let st = Array.copy good_state in
            for _ = 1 to Rng.int rng 3 do
              let j = Rng.int rng nflops in
              st.(j) <- not st.(j)
            done;
            st)
          faults
      in
      let a = Fault_sim.run_per_state ev ~pi ~good_state ~faults ~states in
      let b = Fault_sim.run_per_state full ~pi ~good_state ~faults ~states in
      batch_equal a b)

(* 3. detects / detected_faults ride the same paths. *)
let qcheck_detected_equivalence =
  QCheck.Test.make ~name:"event detected_faults equals full path" ~count:50
    QCheck.(pair (int_range 0 32) small_int)
    (fun (i, seed) ->
      let c = tiny_circuit i in
      let ev = Fault_sim.create c in
      let full = Fault_sim.create ~mode:Fault_sim.Full c in
      let rng = Rng.create (Int64.of_int seed) in
      let faults = random_faults rng c in
      let pi, state = random_stimulus rng c in
      Fault_sim.detected_faults ev ~pi ~state faults
      = Fault_sim.detected_faults full ~pi ~state faults)

(* 4. A reused event context stays exact across many stimuli (the engine's
   access pattern: same context, fresh stimulus and fault subset per
   cycle). *)
let qcheck_reused_context_stays_exact =
  QCheck.Test.make ~name:"reused event context stays exact" ~count:15
    QCheck.(pair (int_range 0 20) small_int)
    (fun (i, seed) ->
      let c = tiny_circuit i in
      let ev = Fault_sim.create c in
      let full = Fault_sim.create ~mode:Fault_sim.Full c in
      let rng = Rng.create (Int64.of_int seed) in
      let ok = ref true in
      for _ = 1 to 8 do
        let faults = random_faults rng c in
        let pi, state = random_stimulus rng c in
        let a = Fault_sim.run_batch ev ~pi ~state ~faults in
        let b = Fault_sim.run_batch full ~pi ~state ~faults in
        if not (batch_equal a b) then ok := false
      done;
      !ok)

(* --- domain-pool fan-out ------------------------------------------------ *)

(* 5. The tentpole determinism property: fanning chunks across a 4-lane
   domain pool returns exactly what the sequential path returns — caught
   sets, outcomes and Capture_differs payloads — on both execution paths. *)
let qcheck_jobs_equivalence =
  QCheck.Test.make ~name:"jobs=1 equals jobs=4 on both paths" ~count:30
    QCheck.(pair (int_range 0 32) small_int)
    (fun (i, seed) ->
      let c = tiny_circuit i in
      let rng = Rng.create (Int64.of_int seed) in
      let faults = random_faults rng c in
      let pi, state = random_stimulus rng c in
      List.for_all
        (fun mode ->
          let s1 = Fault_sim.create ~mode ~jobs:1 c in
          let s4 = Fault_sim.create ~mode ~jobs:4 c in
          Fault_sim.detected_faults s1 ~pi ~state faults
          = Fault_sim.detected_faults s4 ~pi ~state faults
          && batch_equal
               (Fault_sim.run_batch s1 ~pi ~state ~faults)
               (Fault_sim.run_batch s4 ~pi ~state ~faults))
        [ Fault_sim.Event_driven; Fault_sim.Full ])

(* 6. Regression: the per-cycle work counters are merged in chunk order by
   the submitter, so a multi-domain run must tally exactly what the
   sequential run tallies. s444's 763 collapsed faults span 13 chunks —
   enough for real fan-out. *)
let counters_snapshot () =
  List.filter
    (fun (name, _) -> String.starts_with ~prefix:"faultsim." name)
    (Metrics.snapshot ())

let zero_counters () = Metrics.reset ~prefix:"faultsim." ()

let test_counters_merge_across_jobs () =
  let c = Synth.generate_named "s444" in
  let faults = Fault_gen.collapsed c in
  let rng = Rng.create 99L in
  let stimuli = Array.init 4 (fun _ -> random_stimulus rng c) in
  let tally mode jobs =
    let sim = Fault_sim.create ~mode ~jobs c in
    zero_counters ();
    let flags =
      Array.map (fun (pi, state) -> Fault_sim.detected_faults sim ~pi ~state faults) stimuli
    in
    (flags, counters_snapshot ())
  in
  List.iter
    (fun mode ->
      let flags1, ctr1 = tally mode 1 in
      List.iter
        (fun jobs ->
          let flagsj, ctrj = tally mode jobs in
          Alcotest.(check bool)
            (Printf.sprintf "caught flags identical at jobs=%d" jobs)
            true (flags1 = flagsj);
          Alcotest.(check bool)
            (Printf.sprintf "counters identical at jobs=%d" jobs)
            true (ctr1 = ctrj))
        [ 2; 4 ])
    [ Fault_sim.Event_driven; Fault_sim.Full ];
  zero_counters ()

(* --- multi-vector screening -------------------------------------------- *)

let random_vectors rng c n = Array.init n (fun _ -> random_stimulus rng c)

(* 7. detected_matrix's contract: row [v] equals a detected_faults screen of
   vector [v], on both execution paths. *)
let qcheck_matrix_equals_per_vector =
  QCheck.Test.make ~name:"detected_matrix rows equal detected_faults" ~count:25
    QCheck.(pair (int_range 0 32) small_int)
    (fun (i, seed) ->
      let c = tiny_circuit i in
      let rng = Rng.create (Int64.of_int seed) in
      let faults = random_faults rng c in
      let vectors = random_vectors rng c (1 + Rng.int rng 9) in
      List.for_all
        (fun mode ->
          let sim = Fault_sim.create ~mode c in
          let matrix = Fault_sim.detected_matrix sim ~vectors faults in
          Array.length matrix = Array.length vectors
          && Array.for_all2
               (fun row (pi, state) -> row = Fault_sim.detected_faults sim ~pi ~state faults)
               matrix vectors)
        [ Fault_sim.Event_driven; Fault_sim.Full ])

(* 8. How the vectors are grouped into detected_matrix calls, like jobs, is
   a pure scheduling choice: one call over up to 16 vectors returns the same
   rows as one call per vector (batch=1) and as per-vector detected_faults
   screens, at every jobs width. *)
let qcheck_batch_and_jobs_invariance =
  QCheck.Test.make ~name:"batch=1 equals batch=16 across jobs" ~count:15
    QCheck.(pair (int_range 0 24) small_int)
    (fun (i, seed) ->
      let c = tiny_circuit i in
      let rng = Rng.create (Int64.of_int seed) in
      let faults = random_faults rng c in
      let vectors = random_vectors rng c (2 + Rng.int rng 15) in
      List.for_all
        (fun mode ->
          let base = Fault_sim.detected_matrix (Fault_sim.create ~mode c) ~vectors faults in
          List.for_all
            (fun jobs ->
              let sim = Fault_sim.create ~mode ~jobs c in
              Fault_sim.detected_matrix sim ~vectors faults = base
              && Array.map (fun v -> (Fault_sim.detected_matrix sim ~vectors:[| v |] faults).(0)) vectors
                 = base
              && Array.map (fun (pi, state) -> Fault_sim.detected_faults sim ~pi ~state faults) vectors
                 = base)
            [ 1; 2; 4 ])
        [ Fault_sim.Event_driven; Fault_sim.Full ])

let test_matrix_empty_vectors () =
  let c = tiny_circuit 3 in
  let faults = Fault_gen.collapsed c in
  let sim = Fault_sim.create c in
  Alcotest.(check int)
    "no vectors, no rows" 0
    (Array.length (Fault_sim.detected_matrix sim ~vectors:[||] faults))

(* 9. Work counters are grouping- and jobs-invariant: per-vector work is
   fixed, shards merge by summation, and splitting the vector set over
   several detected_matrix calls only regroups that work. faultsim.batches
   counts calls, so it must equal the number of calls made. *)
let test_counters_merge_across_batch () =
  let c = Synth.generate_named "s444" in
  let faults = Fault_gen.collapsed c in
  let rng = Rng.create 7L in
  let vectors = Array.init 11 (fun _ -> random_stimulus rng c) in
  let nv = Array.length vectors in
  let work ctr = List.filter (fun (name, _) -> name <> "faultsim.batches") ctr in
  List.iter
    (fun mode ->
      let tally jobs batch =
        let sim = Fault_sim.create ~mode ~jobs c in
        zero_counters ();
        let groups =
          List.init ((nv + batch - 1) / batch) (fun g ->
              Array.sub vectors (g * batch) (min batch (nv - (g * batch))))
        in
        let matrix =
          Array.concat (List.map (fun vs -> Fault_sim.detected_matrix sim ~vectors:vs faults) groups)
        in
        (matrix, counters_snapshot (), List.length groups)
      in
      let matrix1, ctr1, _ = tally 1 nv in
      List.iter
        (fun (jobs, batch) ->
          let matrixj, ctrj, calls = tally jobs batch in
          Alcotest.(check bool)
            (Printf.sprintf "matrix identical at jobs=%d batch=%d" jobs batch)
            true (matrix1 = matrixj);
          Alcotest.(check bool)
            (Printf.sprintf "work counters identical at jobs=%d batch=%d" jobs batch)
            true
            (work ctr1 = work ctrj);
          Alcotest.(check bool)
            (Printf.sprintf "one batch per call at jobs=%d batch=%d" jobs batch)
            true
            (List.assoc_opt "faultsim.batches" ctrj = Some (Metrics.Counter_v calls)))
        [ (1, 1); (1, 4); (2, 4); (4, 1); (4, nv); (2, 3) ])
    [ Fault_sim.Event_driven; Fault_sim.Full ];
  zero_counters ()

(* --- cone index -------------------------------------------------------- *)

(* c = (a AND b); d = NOT c; flop f captures d; PO = c. *)
let cone_fixture () =
  let b = Circuit.Builder.create "cones" in
  let a = Circuit.Builder.input b "a" in
  let bb = Circuit.Builder.input b "b" in
  let c = Circuit.Builder.gate b ~name:"c" Gate.And [ a; bb ] in
  let d = Circuit.Builder.gate b ~name:"d" Gate.Not [ c ] in
  let q = Circuit.Builder.flop b ~name:"q" d in
  Circuit.Builder.mark_output b c;
  (Circuit.Builder.finish b, a, bb, c, d, q)

let test_cone_membership () =
  let circ, a, bb, c, d, q = cone_fixture () in
  Alcotest.(check bool) "a reaches c" true (Circuit.in_cone circ ~stem:a c);
  Alcotest.(check bool) "a reaches d" true (Circuit.in_cone circ ~stem:a d);
  Alcotest.(check bool) "a contains itself" true (Circuit.in_cone circ ~stem:a a);
  Alcotest.(check bool) "a does not reach b" false (Circuit.in_cone circ ~stem:a bb);
  (* Propagation stops at the flip-flop D pin: Q is sequential, not in the
     combinational cone. *)
  Alcotest.(check bool) "cone stops at flop" false (Circuit.in_cone circ ~stem:a q);
  Alcotest.(check bool) "d does not reach c" false (Circuit.in_cone circ ~stem:d c);
  Alcotest.(check int) "cone size of a" 3 (Circuit.cone_size circ a);
  Alcotest.(check int) "cone size of d" 1 (Circuit.cone_size circ d)

let test_cone_q_restarts () =
  (* The Q net is a source of the combinational core: its cone restarts. *)
  let circ, _, _, _, _, q = cone_fixture () in
  Alcotest.(check bool) "q contains itself" true (Circuit.in_cone circ ~stem:q q);
  Alcotest.(check int) "q cone is just q (no consumers)" 1 (Circuit.cone_size circ q)

(* Cone transitivity on random circuits: stem_b in cone(a) implies
   cone(b) subset of cone(a) — the property chunk grouping relies on. *)
let qcheck_cone_transitive =
  QCheck.Test.make ~name:"cone membership is transitive" ~count:20
    QCheck.(pair (int_range 0 20) small_int)
    (fun (i, seed) ->
      let c = tiny_circuit i in
      let n = Circuit.num_nets c in
      let rng = Rng.create (Int64.of_int seed) in
      let ok = ref true in
      for _ = 1 to 50 do
        let a = Rng.int rng n and b = Rng.int rng n in
        if Circuit.in_cone c ~stem:a b then
          for x = 0 to n - 1 do
            if Circuit.in_cone c ~stem:b x && not (Circuit.in_cone c ~stem:a x) then ok := false
          done
      done;
      !ok)

let () =
  Alcotest.run "event-sim"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest qcheck_reference_equivalence;
          QCheck_alcotest.to_alcotest qcheck_run_batch_equivalence;
          QCheck_alcotest.to_alcotest qcheck_run_per_state_equivalence;
          QCheck_alcotest.to_alcotest qcheck_detected_equivalence;
          QCheck_alcotest.to_alcotest qcheck_reused_context_stays_exact;
        ] );
      ( "parallel",
        [
          QCheck_alcotest.to_alcotest qcheck_jobs_equivalence;
          Alcotest.test_case "counters merge identically across jobs" `Quick
            test_counters_merge_across_jobs;
        ] );
      ( "matrix",
        [
          QCheck_alcotest.to_alcotest qcheck_matrix_equals_per_vector;
          QCheck_alcotest.to_alcotest qcheck_batch_and_jobs_invariance;
          Alcotest.test_case "empty vector set" `Quick test_matrix_empty_vectors;
          Alcotest.test_case "counters merge identically across batch" `Quick
            test_counters_merge_across_batch;
        ] );
      ( "cones",
        [
          Alcotest.test_case "membership and sizes" `Quick test_cone_membership;
          Alcotest.test_case "flop Q restarts the cone" `Quick test_cone_q_restarts;
          QCheck_alcotest.to_alcotest qcheck_cone_transitive;
        ] );
    ]
