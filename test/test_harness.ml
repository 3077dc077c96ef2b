(* Tests for Tvs_harness: per-circuit preparation (and its memoization) and
   the experiment runners' outputs. *)

module Circuit = Tvs_netlist.Circuit
module Baseline = Tvs_core.Baseline
module Prep = Tvs_harness.Prep
module Experiments = Tvs_harness.Experiments

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let test_prep_structure () =
  let prep = Prep.get "s444" in
  Alcotest.(check string) "circuit name" "s444" (Circuit.name prep.Prep.circuit);
  Alcotest.(check bool) "collapsed smaller than full" true
    (Array.length prep.Prep.faults < Array.length prep.Prep.all_faults);
  Alcotest.(check bool) "testable within collapsed" true
    (Array.length prep.Prep.testable <= Array.length prep.Prep.faults);
  Alcotest.(check bool) "baseline nonempty" true (prep.Prep.baseline.Baseline.num_vectors > 0)

let test_prep_memoized () =
  let a = Prep.get "s444" and b = Prep.get "s444" in
  Alcotest.(check bool) "same physical prep" true (a == b);
  let scaled = Prep.get ~scale:0.5 "s444" in
  Alcotest.(check bool) "scaled prep distinct" true (a != scaled);
  Alcotest.(check string) "scaled name" "s444@0.5" (Circuit.name scaled.Prep.circuit)

let test_prep_seed_streams () =
  let prep = Prep.get "s444" in
  let a = Tvs_util.Rng.next_int64 (Prep.engine_seed prep "x") in
  let b = Tvs_util.Rng.next_int64 (Prep.engine_seed prep "y") in
  let a' = Tvs_util.Rng.next_int64 (Prep.engine_seed prep "x") in
  Alcotest.(check bool) "labels separate streams" true (a <> b);
  Alcotest.(check int64) "same label, same stream" a a'

let test_run_flow_sane () =
  let prep = Prep.get "s444" in
  let r = Experiments.run_flow ~label:"harness-test" prep in
  Alcotest.(check bool) "coverage complete" true (r.Experiments.coverage >= 0.999);
  Alcotest.(check bool) "compresses memory" true (r.Experiments.m < 1.0);
  Alcotest.(check bool) "compresses time" true (r.Experiments.t < 1.0);
  Alcotest.(check int) "aTV consistent" prep.Prep.baseline.Baseline.num_vectors r.Experiments.atv

let test_run_flow_deterministic () =
  let prep = Prep.get "s444" in
  let a = Experiments.run_flow ~label:"det" prep in
  let b = Experiments.run_flow ~label:"det" prep in
  Alcotest.(check int) "same TV" a.Experiments.tv b.Experiments.tv;
  Alcotest.(check (float 0.00001)) "same m" a.Experiments.m b.Experiments.m

(* Regression: a flop-free netlist has no chain to stitch through, so the
   flow refuses it with a typed Build_error instead of failing deep inside
   the chain model. *)
let test_run_flow_needs_flops () =
  List.iter
    (fun file ->
      let c = Tvs_verilog.Loader.load_file (Filename.concat "../examples/verilog" file) in
      let prep = Prep.of_circuit c in
      Alcotest.check_raises file (Circuit.Build_error "stitching needs flip-flops") (fun () ->
          ignore (Experiments.run_flow ~label:"flop-free" prep)))
    [ "c17.v"; "mux4_ref.bench" ]

let test_table1_text () =
  let out = Experiments.table1 () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("table1 mentions " ^ needle) true (contains ~needle out))
    [ "correct"; "E-F/1"; "F/0"; "110"; "after final unload" ]

let test_table_defaults () =
  Alcotest.(check (float 0.0001)) "s9234 halved in tables 2-4" 0.5
    (Experiments.table24_default_scale "s9234");
  Alcotest.(check (float 0.0001)) "s444 full" 1.0 (Experiments.table24_default_scale "s444");
  Alcotest.(check (float 0.0001)) "giants quartered in table 5" 0.25
    (Experiments.table5_default_scale "s35932")

let test_small_table_renders () =
  let out = Experiments.table4 ~circuits:[ "s444" ] () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("table4 column " ^ needle) true (contains ~needle out))
    [ "s444"; "Random"; "Hardness"; "Most-faults"; "Ave" ]

let test_randtest_small_budget () =
  (* Regression: a pattern budget below the fixed checkpoints must clamp
     them rather than crash. *)
  let out = Experiments.random_testability ~patterns:16 ~circuits:[ "s444" ] () in
  Alcotest.(check bool) "renders" true (contains ~needle:"cov@16" out);
  Alcotest.(check bool) "no oversized checkpoint" false (contains ~needle:"cov@128" out)

let test_comparison_renders () =
  let out = Experiments.comparison_study ~circuits:[ "s444" ] () in
  Alcotest.(check bool) "static columns present" true (contains ~needle:"static m" out);
  Alcotest.(check bool) "row present" true (contains ~needle:"s444" out)

(* --- CLI validation ----------------------------------------------------- *)

module Cli = Tvs_harness.Cli

let test_cli_accepts_known_specs () =
  List.iter
    (fun spec ->
      match Cli.check_spec spec with
      | Ok s -> Alcotest.(check string) ("spec " ^ spec) spec s
      | Error msg -> Alcotest.fail (Printf.sprintf "%s rejected: %s" spec msg))
    [ "s27"; "fig1"; "s444"; "s38584" ]

let test_cli_rejects_bad_spec () =
  (* The bug this guards: unknown circuit specs used to die in [failwith],
     bypassing the drivers' error reporting. *)
  match Cli.check_spec "no-such-circuit" with
  | Ok _ -> Alcotest.fail "bad spec accepted"
  | Error msg ->
      Alcotest.(check bool) "names the spec" true (contains ~needle:"no-such-circuit" msg);
      Alcotest.(check bool) "lists the profiles" true (contains ~needle:"s444" msg);
      (match Cli.load_circuit "no-such-circuit" with
      | Ok _ -> Alcotest.fail "bad spec loaded"
      | Error _ -> ())

let test_cli_loads_circuit () =
  match Cli.load_circuit ~scale:0.5 "s444" with
  | Error msg -> Alcotest.fail msg
  | Ok c ->
      Alcotest.(check bool) "non-empty" true (Tvs_netlist.Circuit.num_nets c > 0)

let test_cli_table_and_jobs_bounds () =
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "table %d ok" n) true (Cli.check_table n = Ok n))
    [ 1; 3; 5 ];
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "table %d rejected" n)
        true
        (Result.is_error (Cli.check_table n)))
    [ 0; 6; -2 ];
  Alcotest.(check bool) "jobs 1 ok" true (Cli.check_jobs 1 = Ok 1);
  Alcotest.(check bool) "jobs 8 ok" true (Cli.check_jobs 8 = Ok 8);
  Alcotest.(check bool) "jobs 0 rejected" true (Result.is_error (Cli.check_jobs 0));
  Alcotest.(check bool) "scale 1.0 ok" true (Cli.check_scale 1.0 = Ok 1.0);
  Alcotest.(check bool) "scale 0.25 ok" true (Cli.check_scale 0.25 = Ok 0.25);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "scale %g rejected" f)
        true
        (Result.is_error (Cli.check_scale f)))
    [ 0.0; -0.5; 1.5; Float.nan ]

let () =
  Alcotest.run "harness"
    [
      ( "prep",
        [
          Alcotest.test_case "structure" `Quick test_prep_structure;
          Alcotest.test_case "memoization" `Quick test_prep_memoized;
          Alcotest.test_case "seed streams" `Quick test_prep_seed_streams;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "run_flow sanity" `Quick test_run_flow_sane;
          Alcotest.test_case "run_flow determinism" `Quick test_run_flow_deterministic;
          Alcotest.test_case "table 1 text" `Quick test_table1_text;
          Alcotest.test_case "default scales" `Quick test_table_defaults;
          Alcotest.test_case "table 4 rendering" `Quick test_small_table_renders;
          Alcotest.test_case "comparison rendering" `Quick test_comparison_renders;
          Alcotest.test_case "randtest small budget" `Quick test_randtest_small_budget;
          Alcotest.test_case "run_flow needs flip-flops" `Quick test_run_flow_needs_flops;
        ] );
      ( "cli",
        [
          Alcotest.test_case "accepts known specs" `Quick test_cli_accepts_known_specs;
          Alcotest.test_case "rejects bad spec" `Quick test_cli_rejects_bad_spec;
          Alcotest.test_case "loads a profile" `Quick test_cli_loads_circuit;
          Alcotest.test_case "table and jobs bounds" `Quick test_cli_table_and_jobs_bounds;
        ] );
    ]
