(* One cold operation of a benchmark workload, in a process of its own.

   Usage: bench.exe WORKLOAD [--seed N] [--jobs N] [--trace]

   WORKLOAD is stitch, sweep, grade or prove (see README.md). The process
   builds the workload's inputs (the set-up, timed piece by piece), runs the
   timed part once, then builds the inputs again for more set-up samples. A fresh process per operation keeps every run cold:
   [Prep.get] memoizes per process, so a repeat in the same process would
   skip the preparation every [tvs stitch] user pays.

   It prints one JSON object on stdout: the set-up samples, the timed part's
   wall time, the peak RSS, the canonical output text (compared with the
   committed expected output by run.py), the stable work counters, and the
   invariant failures. With --trace, spans are collected and attributed to
   layers; stitch additionally runs the PODEM probe after the timed part.
   --jobs sets the domain-pool width as [tvs --jobs] does; without it the
   width is [tvs]'s default ([Pool.default_jobs]). *)

module Circuit = Tvs_netlist.Circuit
module Fault = Tvs_fault.Fault
module Fault_gen = Tvs_fault.Fault_gen
module Podem = Tvs_atpg.Podem
module Cycle = Tvs_core.Cycle
module Engine = Tvs_core.Engine
module Policy = Tvs_core.Policy
module Baseline = Tvs_core.Baseline
module Prep = Tvs_harness.Prep
module Experiments = Tvs_harness.Experiments
module Cec = Tvs_cec.Cec
module Lint = Tvs_lint.Lint
module Trace = Tvs_obs.Trace
module Metrics = Tvs_obs.Metrics
module Json = Tvs_obs.Json
module Clock = Tvs_util.Clock
module Rng = Tvs_util.Rng

(* The seed whose outputs are committed under expected/; it maps stitch to
   the engine label of [tvs stitch], so that workload reproduces the CLI's
   summary byte for byte. *)
let default_seed = 0

(* Set-up samples per operation: set-up is short next to the timed part, so
   its median needs more samples than one per process. There are at least
   [min_setups], and more until they add up to [setup_budget_s], so that a
   set-up of a few milliseconds (sweep's) still has a steady median. run.py
   takes the median over the samples of all the run's operations, so a few
   per operation are enough; more would take time from the timed parts. *)
let min_setups = 2
let setup_budget_s = 0.5

(* --- timing ------------------------------------------------------------- *)

(* Every public call the benchmark makes runs inside a [bench.*] span, so a
   traced run sees the benchmark's own calls next to the program's spans. *)
let timed name f =
  let t0 = Clock.now () in
  let r = Trace.with_span ("bench." ^ name) f in
  (r, Clock.now () -. t0)

type setup_times = {
  mutable synth_s : float;
  mutable collapse_s : float;
  mutable podem_ctx_s : float;
  mutable other_s : float;  (** scan insertion, machine creation, stimulus *)
}

let fresh_times () = { synth_s = 0.0; collapse_s = 0.0; podem_ctx_s = 0.0; other_s = 0.0 }
let setup_total t = t.synth_s +. t.collapse_s +. t.podem_ctx_s +. t.other_s

let other times name f =
  let r, dt = timed name f in
  times.other_s <- times.other_s +. dt;
  r

(* The three set-up layers: synthesis of a profile circuit, fault
   collapsing, and the PODEM/SCOAP context. A workload builds only what its
   timed part or its checks consume. *)
let synth times ?(scale = 1.0) name =
  let profile = Tvs_circuits.Profiles.scale (Tvs_circuits.Profiles.find name) scale in
  let circuit, dt = timed "synth" (fun () -> Tvs_circuits.Synth.generate profile) in
  times.synth_s <- times.synth_s +. dt;
  circuit

let collapse times circuit =
  let faults, dt =
    timed "collapse" (fun () -> Fault_gen.collapse circuit (Fault_gen.all circuit))
  in
  times.collapse_s <- times.collapse_s +. dt;
  faults

let podem_ctx times circuit =
  let ctx, dt = timed "podem_create" (fun () -> Podem.create circuit) in
  times.podem_ctx_s <- times.podem_ctx_s +. dt;
  ctx

(* --- workloads ---------------------------------------------------------- *)

type finished = {
  output : string;  (** canonical text, compared exactly at the default seed *)
  ops : int;  (** operations: flows, tables, graded streams, proofs *)
  failures : string list;  (** violated seed-independent invariants *)
}

type prepared = {
  run : unit -> unit;  (** the timed part *)
  finish : unit -> finished;  (** output and invariants, after timing *)
  probe : (unit -> (string * float) list * string list) option;
      (** untimed extra layer measurement of traced runs *)
}

let result_of r = match !r with Some v -> v | None -> invalid_arg "bench: timed part did not run"

(* The messages of the checks that failed. *)
let violations checks = List.filter_map (fun (ok, msg) -> if ok then None else Some msg) checks

(* Nearest-rank percentile of a non-empty sample, 0 for an empty one. *)
let percentile p samples =
  match List.sort compare samples with
  | [] -> 0.0
  | sorted ->
      let n = List.length sorted in
      let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
      List.nth sorted (min n rank - 1)

(* The PODEM probe: rerun the flow's engine, replay its stimuli through a
   fresh cycle machine, and before each step time PODEM on the targets the
   engine would have tried under that step's constraints. This splits ATPG
   time by outcome from outside the engine. The replay must reproduce the
   engine's caught counts exactly. *)
let podem_probe (prep : Prep.t) label =
  let config = Experiments.config_for prep in
  let r =
    Engine.run ~config ~fallback:prep.baseline.Baseline.vectors
      ~rng:(Prep.engine_seed prep label) prep.ctx ~faults:prep.testable
  in
  let machine = Cycle.create ~scheme:config.Engine.scheme prep.circuit ~faults:prep.testable in
  let samples = [| []; []; [] |] in
  let slot = function Podem.Detected _ -> 0 | Podem.Untestable -> 1 | Podem.Aborted -> 2 in
  List.iter
    (fun (pi, fresh) ->
      let constraints = Cycle.constraints_for machine ~s:(Array.length fresh) in
      List.iteri
        (fun k idx ->
          if k < config.Engine.max_targets_per_cycle then begin
            let t0 = Clock.now () in
            let v =
              Podem.generate ~config:config.Engine.podem ~constraints prep.ctx prep.testable.(idx)
            in
            let i = slot v in
            samples.(i) <- (Clock.now () -. t0) :: samples.(i)
          end)
        (Cycle.uncaught_indices machine);
      ignore (Cycle.step machine ~pi ~fresh))
    r.Engine.stimuli;
  let logged = List.fold_left (fun acc (l : Engine.cycle_log) -> acc + l.caught) 0 r.Engine.log in
  let before_flush = Cycle.num_caught machine in
  ignore (Cycle.flush machine ~full:(Cycle.num_hidden machine > 0));
  let caught = Cycle.num_caught machine in
  let failures =
    violations
      [
        ( before_flush = logged,
          Printf.sprintf "podem probe: replay caught %d before the flush, engine log %d"
            before_flush logged );
        ( caught = r.Engine.caught_stitched,
          Printf.sprintf "podem probe: replay caught %d, engine caught_stitched %d" caught
            r.Engine.caught_stitched );
      ]
  in
  let names = [| "detected"; "untestable"; "aborted" |] in
  let calls i = float_of_int (List.length samples.(i)) in
  let total = calls 0 +. calls 1 +. calls 2 in
  let per_outcome =
    List.concat
      (List.init 3 (fun i ->
           let us = List.map (fun s -> s *. 1e6) samples.(i) in
           [
             ("podem.calls." ^ names.(i), calls i);
             ("podem.us_p50." ^ names.(i), percentile 0.50 us);
             ("podem.us_p99." ^ names.(i), percentile 0.99 us);
           ]))
  in
  (per_outcome @ [ ("podem.abort_ratio", if total > 0.0 then calls 2 /. total else 0.0) ], failures)

(* stitch: [tvs stitch s5378] — preparation plus one default flow. The
   set-up is synthesis alone: [Prep.of_circuit] collapses the faults and
   builds the PODEM context inside the timed part, as [tvs stitch] does. *)
let stitch ~seed times =
  let circuit = synth times "s5378" in
  let label = if seed = default_seed then "cli" else Printf.sprintf "seed-%d" seed in
  let result = ref None in
  let run () =
    let prep, _ = timed "prep" (fun () -> Prep.of_circuit circuit) in
    let summary, _ = timed "run_flow" (fun () -> Experiments.run_flow ~label prep) in
    result := Some (prep, summary)
  in
  let finish () =
    let prep, (s : Experiments.run_summary) = result_of result in
    let output =
      Experiments.render_summary ~circuit:(Circuit.name circuit) ~scheme:Tvs_scan.Xor_scheme.Nxor
        ~selection:(Policy.Most_faults 5) s
    in
    let baseline = prep.Prep.baseline.Baseline.coverage in
    let failures =
      violations
        [
          ( s.coverage >= baseline,
            Printf.sprintf "stitch: coverage %.6f below the baseline's %.6f" s.coverage baseline );
        ]
    in
    { output; ops = 1; failures }
  in
  { run; finish; probe = Some (fun () -> podem_probe (fst (result_of result)) label) }

(* sweep: Table 4 over the six small circuits — 6 preparations, 18 flows.
   [table4] takes circuit names and synthesizes them inside the timed part,
   so the set-up replays that synthesis on its own and discards it: it is
   paid twice, once in setup_s and once in wall_s. *)
let sweep_circuits = [ "s444"; "s526"; "s641"; "s953"; "s1196"; "s1423" ]

let sweep ~seed:_ times =
  List.iter (fun name -> ignore (synth times name)) sweep_circuits;
  let result = ref None in
  let run () =
    result := Some (fst (timed "table4" (Experiments.table4 ~circuits:sweep_circuits)))
  in
  let finish () = { output = result_of result; ops = 1; failures = [] } in
  { run; finish; probe = None }

(* grade: fault-grade LFSR streams applied by stitching on s38417@0.25 —
   1000 steps in four streams of 250, each on a fresh machine: the first
   shift is full, every later one a quarter of the chain, then a full flush.
   One 1000-step stream would do: its work counters moved by about 10%
   (quartile spread over median) from seed to seed, four streams by about
   2.5%, and the benchmark compares runs made on different seeds. *)
let grade_streams = 4
let grade_stream_steps = 250

let grade ~seed times =
  let circuit = synth times ~scale:0.25 "s38417" in
  let faults = collapse times circuit in
  let machines =
    Array.init grade_streams (fun _ ->
        other times "cycle_create" (fun () -> Cycle.create circuit ~faults))
  in
  let chain_len = Circuit.num_flops circuit in
  let shift = chain_len / 4 in
  let streams =
    other times "lfsr" (fun () ->
        let lfsr_seed = Int64.to_int (Int64.logand (Rng.mix64 (Int64.of_int seed)) 0xFFFF_FFFFL) in
        let lfsr = Tvs_scan.Lfsr.create ~seed:lfsr_seed ~width:32 () in
        Array.init grade_streams (fun _ ->
            Array.init grade_stream_steps (fun i ->
                let pi = Tvs_scan.Lfsr.next_vector lfsr (Circuit.num_inputs circuit) in
                (pi, Tvs_scan.Lfsr.next_vector lfsr (if i = 0 then chain_len else shift)))))
  in
  let counts m = (Cycle.num_caught m, Cycle.num_hidden m, Cycle.num_uncaught m) in
  let before = Array.make grade_streams (0, 0, 0) in
  let run () =
    Array.iteri
      (fun k machine ->
        Array.iter
          (fun (pi, fresh) -> ignore (timed "cycle.step" (fun () -> Cycle.step machine ~pi ~fresh)))
          streams.(k);
        before.(k) <- counts machine;
        ignore (timed "cycle.flush" (fun () -> Cycle.flush machine ~full:true)))
      machines
  in
  let finish () =
    let n = Array.length faults in
    let stream k =
      let c0, h0, u0 = before.(k) and c1, h1, u1 = counts machines.(k) in
      let line =
        Printf.sprintf
          "stream %d : caught %d hidden %d uncaught %d, \
           flushed: caught %d hidden %d uncaught %d\n"
          k c0 h0 u0 c1 h1 u1
      in
      let failures =
        List.map
          (Printf.sprintf "grade stream %d: %s" k)
          (violations
             [
               (c0 + h0 + u0 = n, Printf.sprintf "%d+%d+%d <> %d before the flush" c0 h0 u0 n);
               (c1 + h1 + u1 = n, Printf.sprintf "%d+%d+%d <> %d after the flush" c1 h1 u1 n);
               (h1 = 0, Printf.sprintf "%d faults still hidden after the flush" h1);
               (c1 >= c0, Printf.sprintf "the flush lost caught faults (%d -> %d)" c0 c1);
             ])
      in
      (line, failures)
    in
    let per_stream = List.init grade_streams stream in
    let output =
      Printf.sprintf
        "circuit  : %s\nfaults   : %d\nstreams  : %d x %d steps (shift %d, then %d)\n%s"
        (Circuit.name circuit) n grade_streams grade_stream_steps chain_len shift
        (String.concat "" (List.map fst per_stream))
    in
    { output; ops = grade_streams; failures = List.concat_map snd per_stream }
  in
  { run; finish; probe = None }

(* prove: CEC of s9234 against its scan insertion, then lint of s5378 with
   the default SAT budget. Every D004 "untestable" proof is cross-checked
   by PODEM, which must not find a test: s5378's collapsed faults and PODEM
   context are built in the set-up for that check. *)
let prove ~seed:_ times =
  let s9234 = synth times "s9234" in
  let inserted =
    other times "scan_insert" (fun () -> (Tvs_netlist.Scan_insert.insert s9234).circuit)
  in
  let s5378 = synth times "s5378" in
  let faults = collapse times s5378 in
  let ctx = podem_ctx times s5378 in
  let result = ref None in
  let run () =
    let cec, _ = timed "cec.check" (fun () -> Cec.check s9234 inserted) in
    let lint, _ = timed "lint.run" (fun () -> Lint.run s5378) in
    result := Some (cec, lint)
  in
  let finish () =
    let cec, (lint : Lint.report) = result_of result in
    let by_name = Hashtbl.create (Array.length faults) in
    Array.iter (fun f -> Hashtbl.replace by_name (Fault.name s5378 f) f) faults;
    let confirm (d : Tvs_lint.Diagnostic.t) =
      if d.rule <> "TVS-D004" then None
      else
        match Scanf.sscanf_opt d.message "stuck-at fault %s@ is untestable" Fun.id with
        | None -> Some (Printf.sprintf "prove: unparsable D004 message %S" d.message)
        | Some name -> (
            match Hashtbl.find_opt by_name name with
            | None -> Some (Printf.sprintf "prove: D004 names unknown fault %s" name)
            | Some f -> (
                match Podem.generate ctx f with
                | Podem.Detected _ ->
                    Some (Printf.sprintf "prove: PODEM detects D004 fault %s" name)
                | Podem.Untestable | Podem.Aborted -> None))
    in
    let failures =
      (match cec.Cec.verdict with
      | Cec.Equivalent -> []
      | v -> [ Printf.sprintf "prove: scan insertion of s9234 is %s" (Cec.verdict_name v) ])
      @ List.filter_map confirm lint.diagnostics
    in
    { output = Cec.to_ascii cec ^ Lint.to_ascii lint; ops = 2; failures }
  in
  { run; finish; probe = None }

let workloads = [ ("stitch", stitch); ("sweep", sweep); ("grade", grade); ("prove", prove) ]

(* --- per-layer attribution ---------------------------------------------- *)

(* Spans arrive sorted by (tid, ts, depth), so a span's parent is the latest
   span one level up on the same domain. Self time is a span's duration
   minus the time its direct children cover. *)
type node = { span : Trace.span; mutable parent : int; mutable children_s : float }

let span_tree () =
  let nodes =
    Array.of_list (List.map (fun span -> { span; parent = -1; children_s = 0.0 }) (Trace.spans ()))
  in
  let open_at = Hashtbl.create 16 in
  Array.iteri
    (fun i n ->
      let s = n.span in
      (if s.depth > 0 then
         match Hashtbl.find_opt open_at (s.tid, s.depth - 1) with
         | Some p ->
             n.parent <- p;
             nodes.(p).children_s <- nodes.(p).children_s +. s.dur
         | None -> ());
      Hashtbl.replace open_at (s.tid, s.depth) i)
    nodes;
  nodes

let rec within nodes i pred =
  let p = nodes.(i).parent in
  p >= 0 && (pred nodes.(p).span.name || within nodes p pred)

let is_faultsim name = String.starts_with ~prefix:"faultsim." name

let layers ~wall ~counters =
  let nodes = span_tree () in
  let fold f = Array.fold_left (fun acc n -> acc +. f n) 0.0 nodes in
  let dur pred = fold (fun n -> if pred n.span.name then n.span.dur else 0.0) in
  let self pred = fold (fun n -> if pred n.span.name then n.span.dur -. n.children_s else 0.0) in
  let named name = ( = ) name in
  let durations pred =
    Array.fold_left (fun acc n -> if pred n.span.name then n.span.dur :: acc else acc) [] nodes
  in
  let ctr name = float_of_int (Option.value ~default:0 (List.assoc_opt name counters)) in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  (* Outermost fault-simulation spans under a preparation: a nested
     faultsim span is already inside its parent's duration. *)
  let faultsim_in_prep =
    let acc = ref 0.0 in
    Array.iteri
      (fun i n ->
        if is_faultsim n.span.name && within nodes i (named "prep")
           && not (within nodes i is_faultsim)
        then acc := !acc +. n.span.dur)
      nodes;
    !acc
  in
  let steps_us =
    List.map
      (fun s -> s *. 1e6)
      (durations (fun n -> n = "bench.cycle.step" || n = "engine.stitch"))
  in
  let flows = durations (named "flow") in
  let gate_evals = ctr "faultsim.gate_evals" and skipped = ctr "faultsim.gates_skipped" in
  let faultsim_self = self is_faultsim in
  (* Pool metrics are registered unstable: read them from the full snapshot. *)
  let all = Metrics.snapshot ~all:true () in
  let pool_sum name =
    match List.assoc_opt name all with
    | Some (Metrics.Histogram_v { sum; _ }) -> float_of_int sum /. 1e6
    | _ -> 0.0
  in
  let pool_ctr name =
    match List.assoc_opt name all with Some (Metrics.Counter_v n) -> float_of_int n | _ -> 0.0
  in
  let sat_faults = float_of_int Lint.default_options.Lint.sat_faults in
  let linted = dur (named "lint") > 0.0 in
  [
    ("prep.wall_s", dur (named "prep"));
    ("prep.faultsim_s", faultsim_in_prep);
    ("prep.atpg_self_s", self (named "prep"));
    ("engine.wall_s", dur (named "engine.run"));
    ("engine.atpg_self_s", self (named "engine.atpg"));
    ("engine.stitch_self_s", self (named "engine.stitch"));
    ("engine.extra_s", dur (named "engine.extra"));
    ("engine.atpg_attempts", ctr "engine.atpg_attempts");
    ("engine.stitched_vectors", ctr "engine.stitched_vectors");
    ("engine.extra_vectors", ctr "engine.extra_vectors");
    ("engine.atpg_yield", ratio (ctr "engine.stitched_vectors") (ctr "engine.atpg_attempts"));
    ("faultsim.self_s", faultsim_self);
    ("faultsim.gate_evals", gate_evals);
    ("faultsim.gates_skipped", skipped);
    ("faultsim.events_fired", ctr "faultsim.events_fired");
    ("faultsim.chunks", ctr "faultsim.chunks");
    ("faultsim.ns_per_gate_eval", ratio (faultsim_self *. 1e9) gate_evals);
    ("faultsim.skip_ratio", ratio skipped (gate_evals +. skipped));
    ("cycle.step_us_p50", percentile 0.50 steps_us);
    ("cycle.step_us_p99", percentile 0.99 steps_us);
    ("cycle.flush_s", dur (named "bench.cycle.flush"));
    ("cycle.caught", ctr "cycle.caught");
    ("cycle.became_hidden", ctr "cycle.became_hidden");
    ("cycle.reverted", ctr "cycle.reverted");
    ("cycle.peak_hidden", ctr "cycle.peak_hidden");
    ("pool.submissions", pool_ctr "pool.submissions");
    ("pool.chunks", pool_ctr "pool.chunks");
    ("pool.busy_s", pool_sum "pool.chunk_busy_us");
    ("pool.wait_s", pool_sum "pool.chunk_wait_us");
    ("experiments.flows", float_of_int (List.length flows));
    ("experiments.flow_s_p50", percentile 0.50 flows);
    ("experiments.flow_s_max", List.fold_left Float.max 0.0 flows);
    ("experiments.overlap", ratio (dur (named "flow") +. dur (named "prep")) wall);
    ("cec.wall_s", dur (named "bench.cec.check"));
    ("cec.sat.calls", ctr "cec.sat.calls");
    ("cec.sat.decisions", ctr "cec.sat.decisions");
    ("cec.sat.propagations", ctr "cec.sat.propagations");
    ("cec.sweep.proved", ctr "cec.sweep.proved");
    ("lint.wall_s", dur (named "lint"));
    ("lint.sat.decisions", ctr "lint.sat.decisions");
    ("lint.sat.propagations", ctr "lint.sat.propagations");
    ("lint.sat.unknown", ctr "lint.sat.unknown");
    ( "lint.sat.decided_ratio",
      if linted then ratio (sat_faults -. ctr "lint.sat.unknown") sat_faults else 0.0 );
  ]

(* --- process ------------------------------------------------------------ *)

(* Stable (deterministic) metrics, flattened to integers. *)
let work_counters () =
  List.concat_map
    (fun (name, v) ->
      match v with
      | Metrics.Counter_v n | Metrics.Gauge_v n -> [ (name, n) ]
      | Metrics.Histogram_v { count; sum; _ } -> [ (name ^ ".count", count); (name ^ ".sum", sum) ])
    (Metrics.snapshot ())

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | status ->
      List.fold_left
        (fun acc line ->
          match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
          | Some kb -> float_of_int kb /. 1024.0
          | None -> acc)
        0.0 (String.split_on_char '\n' status)

let usage () =
  prerr_endline
    "usage: bench.exe (stitch|sweep|grade|prove) [--seed N] [--jobs N] [--trace]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let int_arg ~min v = match int_of_string_opt v with Some n when n >= min -> n | _ -> usage () in
  let rec parse (name, seed, trace) = function
    | [] -> (name, seed, trace)
    | "--seed" :: v :: rest -> parse (name, int_arg ~min:0 v, trace) rest
    | "--jobs" :: v :: rest ->
        Tvs_util.Pool.set_default_jobs (int_arg ~min:1 v);
        parse (name, seed, trace) rest
    | "--trace" :: rest -> parse (name, seed, true) rest
    | w :: rest when name = None && List.mem_assoc w workloads -> parse (Some w, seed, trace) rest
    | _ -> usage ()
  in
  let name, seed, trace = parse (None, default_seed, false) args in
  let name = match name with Some n -> n | None -> usage () in
  if trace then begin
    Tvs_obs.Instrument.install_pool_probe ();
    Trace.start ()
  end;
  let setup = List.assoc name workloads in
  let first = fresh_times () in
  let prepared = setup ~seed first in
  Metrics.reset ();
  let (), wall_s = Clock.time_it prepared.run in
  (* VmHWM is the peak of the process's whole life, so it is read before
     the repeated set-ups: it covers one set-up and the timed part. *)
  let rss = peak_rss_mb () in
  if trace then Trace.stop ();
  let counters = work_counters () in
  let layer_metrics = if trace then layers ~wall:wall_s ~counters else [] in
  let finished = prepared.finish () in
  let probe_metrics, probe_failures =
    match (trace, prepared.probe) with
    | true, Some probe -> probe ()
    | _ -> ([], [])
  in
  let rec more samples =
    let total = List.fold_left (fun acc t -> acc +. setup_total t) 0.0 samples in
    if List.length samples >= min_setups && total >= setup_budget_s then List.rev samples
    else begin
      let times = fresh_times () in
      ignore (setup ~seed times);
      more (times :: samples)
    end
  in
  let samples = more [ first ] in
  let floats f = Json.Arr (List.map (fun t -> Json.Float (f t)) samples) in
  let obj kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) kvs) in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("workload", Json.Str name);
            ("seed", Json.Int seed);
            ("jobs", Json.Int (Tvs_util.Pool.default_jobs ()));
            ("ocaml", Json.Str Sys.ocaml_version);
            ( "setup",
              Json.Obj
                [
                  ("setup_s", floats setup_total);
                  ("synth_s", floats (fun t -> t.synth_s));
                  ("collapse_s", floats (fun t -> t.collapse_s));
                  ("podem_ctx_s", floats (fun t -> t.podem_ctx_s));
                ] );
            ("wall_s", Json.Float wall_s);
            ("peak_rss_mb", Json.Float rss);
            ("ops", Json.Int finished.ops);
            ( "failures",
              Json.Arr (List.map (fun s -> Json.Str s) (finished.failures @ probe_failures)) );
            ("output", Json.Str finished.output);
            ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters));
            ("layers", obj (layer_metrics @ probe_metrics));
          ]))
