module Parallel = Tvs_sim.Parallel
module Event = Tvs_sim.Event
module Lanes = Tvs_sim.Lanes
module Circuit = Tvs_netlist.Circuit
module Pool = Tvs_util.Pool
module Metrics = Tvs_obs.Metrics
module Trace = Tvs_obs.Trace

type outcome = Same | Po_detected | Capture_differs of bool array

type frame = { po : bool array; capture : bool array }

type batch_result = { good : frame; outcomes : outcome array }

type mode = Event_driven | Full

(* Per-slot engine contexts for pool fan-out. The engines are documented not
   thread-safe, so each pool slot — one fixed domain — owns a private pair;
   slot 0 aliases the submitter's own contexts. Built on the first fan-out
   and reused for the context's lifetime. *)
type slot = { s_par : Parallel.t; s_ev : Event.t Lazy.t }

type fanout = { pool : Pool.t; slots : slot array }

(* Everything a screen of one fault array needs besides the stimulus: the
   chunk order and, per 62-fault chunk, the injection list for lanes
   1..len (full path) and its compiled plan (event path; empty on the full
   path). Built on the submitter before any fan-out; pool workers only read
   it. *)
type prepared = {
  faults : Fault.t array;
  order : int array;
  inj : Parallel.injection list array;
  plans : Tvs_sim.Inject.plan array;
}

type t = {
  circuit : Circuit.t;
  soa : Tvs_sim.Soa.t;  (* flat gate tables, shared read-only by every slot *)
  par : Parallel.t;
  ev : Event.t Lazy.t;
  mode : mode;
  jobs : int;
  mutable fanout : fanout option;
  mutable prepared : prepared option;  (* one-entry memo, see [prepare] *)
}

let create ?(mode = Event_driven) ?jobs circuit =
  let soa = Tvs_sim.Soa.create circuit in
  {
    circuit;
    soa;
    par = Parallel.create ~soa circuit;
    ev = lazy (Event.create ~soa circuit);
    mode;
    jobs = max 1 (match jobs with Some j -> j | None -> Pool.default_jobs ());
    fanout = None;
    prepared = None;
  }

let parallel t = t.par

(* Work counters. Every add happens on the submitter once a call's chunks
   are done, so the totals are identical for every jobs value. *)
let m_full_runs = Metrics.counter "faultsim.full_runs"
let m_event_runs = Metrics.counter "faultsim.event_runs"
let m_events_fired = Metrics.counter "faultsim.events_fired"
let m_gate_evals = Metrics.counter "faultsim.gate_evals"
let m_gates_skipped = Metrics.counter "faultsim.gates_skipped"
let m_faults_dropped = Metrics.counter "faultsim.faults_dropped"
let m_chunks = Metrics.counter "faultsim.chunks"
let m_batches = Metrics.counter "faultsim.batches"

let note_dropped n = Metrics.add m_faults_dropped n

let chunk_size = Lanes.width - 1 (* lane 0 is the fault-free machine *)

let num_chunks n = (n + chunk_size - 1) / chunk_size

(* Per-lane difference masks against lane 0 for one array of result words. *)
let diff_mask words used_mask =
  let acc = ref 0 in
  Array.iter
    (fun w ->
      let ref0 = - (w land 1) land Lanes.all_mask in
      acc := !acc lor ((w lxor ref0) land used_mask))
    words;
  !acc

let lane0_frame (r : Parallel.result) =
  {
    po = Array.map (fun w -> Lanes.get w 0) r.po;
    capture = Array.map (fun w -> Lanes.get w 0) r.capture;
  }

let outcomes_of_run (r : Parallel.result) ~nfaults =
  let used = Lanes.mask (nfaults + 1) in
  let po_diff = diff_mask r.po used in
  let cap_diff = diff_mask r.capture used in
  Array.init nfaults (fun i ->
      let lane = i + 1 in
      if Lanes.get po_diff lane then Po_detected
      else if Lanes.get cap_diff lane then
        Capture_differs (Array.map (fun w -> Lanes.get w lane) r.capture)
      else Same)

(* Chunking order: faults whose cones overlap share a chunk, so each chunk's
   event activity stays confined to a few cones instead of spraying one cone
   per lane across the whole circuit. Sorting by the cone representative (the
   lowest-numbered observation point a stem reaches, O(E) to index once per
   circuit) clusters overlapping cones at O(n log n) per fault array; the
   secondary key packs stems of the same sub-cone next to each other.

   The permutation is a performance hint only — outcomes are mapped back
   through it, so any order is correct. *)
let chunk_order c (faults : Fault.t array) =
  let n = Array.length faults in
  if n <= chunk_size then Array.init n (fun i -> i)
  else begin
    (* Composite int key: (cone_rep, stem, original index), packed so a
       single monomorphic int sort orders and disambiguates at once. *)
    let order = Array.init n (fun i -> i) in
    let key =
      Array.init n (fun i ->
          let f = faults.(i) in
          (Circuit.cone_rep c f.Fault.stem, f.Fault.stem, i))
    in
    Array.sort
      (fun a b ->
        let (ra, sa, ia) = key.(a) and (rb, sb, ib) = key.(b) in
        if ra <> rb then (if ra < rb then -1 else 1)
        else if sa <> sb then (if sa < sb then -1 else 1)
        else if ia < ib then -1
        else if ia > ib then 1
        else 0)
      order;
    order
  end

(* The order, the lane assignment [i + 1] and the compiled plans are pure
   functions of the fault array, so a context memoizes them for the last
   physical array it screened: drivers like [Generator.drop_detected] and
   multi-vector screens re-screen one array against many vectors, and
   re-sorting and recompiling it each time would cost more than the
   simulation itself. *)
let prepare t (faults : Fault.t array) =
  match t.prepared with
  | Some p when p.faults == faults -> p
  | Some _ | None ->
      let n = Array.length faults in
      let order = chunk_order t.circuit faults in
      let inj =
        Array.init (num_chunks n) (fun ci ->
            let pos = ci * chunk_size in
            let len = min chunk_size (n - pos) in
            List.init len (fun i -> Fault.to_injection faults.(order.(pos + i)) ~lane:(i + 1)))
      in
      let plans =
        match t.mode with
        | Full -> [||]
        | Event_driven -> Array.map (Event.compile (Lazy.force t.ev)) inj
      in
      let p = { faults; order; inj; plans } in
      t.prepared <- Some p;
      p

let chunk_len p ci = min chunk_size (Array.length p.faults - (ci * chunk_size))

let broadcast_words arr = Array.map (fun b -> if b then Lanes.all_mask else 0) arr

(* --- the parallel axis: 62-fault chunks -------------------------------- *)

let fanout_ctx t =
  match t.fanout with
  | Some fo -> fo
  | None ->
      let pool = Pool.shared ~jobs:t.jobs in
      let slots =
        Array.init (Pool.jobs pool) (fun i ->
            if i = 0 then { s_par = t.par; s_ev = t.ev }
            else
              {
                s_par = Parallel.create ~soa:t.soa t.circuit;
                s_ev = lazy (Event.create ~soa:t.soa t.circuit);
              })
      in
      let fo = { pool; slots } in
      t.fanout <- Some fo;
      fo

(* Run [nchunks] independent chunks, [f slot ci] computing chunk [ci] on the
   engines of [slot], across the pool when both the context and the workload
   are wide enough. On the event path [t.ev] must already hold the stimulus;
   worker slots inherit it by baseline adoption (O(nets) blits, no gate work)
   on their first chunk of each submission. Results and per-chunk event
   tallies are indexed by chunk and summed here, so outputs and counters are
   identical for every jobs value — including jobs = 1, which runs inline
   on the caller. *)
let map_chunks t ~nchunks f =
  let events = Array.make nchunks 0 and evals = Array.make nchunks 0 in
  let run slot ci =
    let r = f slot ci in
    (match t.mode with
    | Full -> ()
    | Event_driven ->
        let ev = Lazy.force slot.s_ev in
        events.(ci) <- Event.last_events ev;
        evals.(ci) <- Event.last_evals ev);
    r
  in
  let out =
    if t.jobs = 1 || nchunks <= 1 then Array.init nchunks (run { s_par = t.par; s_ev = t.ev })
    else begin
      let fo = fanout_ctx t in
      (* Fresh per submission: a slot's baseline is only valid for this
         stimulus. Each cell is touched by exactly one domain. *)
      let adopted = Array.make (Array.length fo.slots) false in
      adopted.(0) <- true;
      Pool.parallel_map_chunks fo.pool ~n:nchunks (fun ~slot ci ->
          let s = fo.slots.(slot) in
          if t.mode = Event_driven && not adopted.(slot) then begin
            Event.adopt_baseline (Lazy.force s.s_ev) ~from:(Lazy.force t.ev);
            adopted.(slot) <- true
          end;
          run s ci)
    end
  in
  (match t.mode with
  | Full -> Metrics.add m_full_runs nchunks
  | Event_driven ->
      let evals = Array.fold_left ( + ) 0 evals in
      Metrics.add m_event_runs nchunks;
      Metrics.add m_events_fired (Array.fold_left ( + ) 0 events);
      Metrics.add m_gate_evals evals;
      Metrics.add m_gates_skipped ((nchunks * Event.full_evals (Lazy.force t.ev)) - evals));
  Metrics.add m_chunks nchunks;
  out

(* --- entry points ----------------------------------------------------- *)

(* Outcomes under one stimulus. [states = None] broadcasts [state] to every
   lane; [Some states] gives fault [i]'s machine [states.(i)], packed per
   chunk with the good state in lane 0. The full path runs one complete
   levelized pass per chunk, at least one so the good frame can come from
   lane 0; the event path evaluates the fault-free machine once in
   [set_stimulus] and then only the gates each chunk's fault cones
   disturb. *)
let simulate t ~pi ~state ~faults ~states =
  let p = prepare t faults in
  let n = Array.length faults in
  let pack ci =
    Option.map
      (fun states ->
        let pos = ci * chunk_size in
        Array.init (Array.length state) (fun j ->
            let w = ref (if state.(j) then 1 else 0) in
            for i = 0 to chunk_len p ci - 1 do
              if states.(p.order.(pos + i)).(j) then w := !w lor (1 lsl (i + 1))
            done;
            !w))
      states
  in
  let good, chunk_out =
    match t.mode with
    | Full ->
        let pi_words = broadcast_words pi and state_words = broadcast_words state in
        let out =
          map_chunks t ~nchunks:(max 1 (num_chunks n)) (fun slot ci ->
              let injections = if ci < Array.length p.inj then p.inj.(ci) else [] in
              let state = Option.value (pack ci) ~default:state_words in
              let r = Parallel.run slot.s_par ~pi:pi_words ~state ~injections in
              (lane0_frame r, outcomes_of_run r ~nfaults:(chunk_len p ci)))
        in
        (fst out.(0), Array.map snd out)
    | Event_driven ->
        let ev0 = Lazy.force t.ev in
        Event.set_stimulus ev0 ~pi ~state;
        let out =
          map_chunks t ~nchunks:(num_chunks n) (fun slot ci ->
              let r = Event.run (Lazy.force slot.s_ev) ?states:(pack ci) ~plan:p.plans.(ci) () in
              outcomes_of_run r ~nfaults:(chunk_len p ci))
        in
        ({ po = Event.good_po ev0; capture = Event.good_capture ev0 }, out)
  in
  let outcomes = Array.make n Same in
  Array.iteri
    (fun ci out ->
      let pos = ci * chunk_size in
      Array.iteri (fun i o -> outcomes.(p.order.(pos + i)) <- o) out)
    chunk_out;
  { good; outcomes }

let run_batch t ~pi ~state ~faults =
  Metrics.incr m_batches;
  Trace.with_span "faultsim.run_batch"
    ~args:[ ("faults", string_of_int (Array.length faults)) ]
    (fun () -> simulate t ~pi ~state ~faults ~states:None)

let run_per_state t ~pi ~good_state ~faults ~states =
  if Array.length states <> Array.length faults then
    invalid_arg "Fault_sim.run_per_state: states length mismatch";
  Metrics.incr m_batches;
  Trace.with_span "faultsim.run_per_state"
    ~args:[ ("faults", string_of_int (Array.length faults)) ]
    (fun () -> simulate t ~pi ~state:good_state ~faults ~states:(Some states))

let detects t ~pi ~state fault =
  let r = run_batch t ~pi ~state ~faults:[| fault |] in
  match r.outcomes.(0) with Same -> false | Po_detected | Capture_differs _ -> true

(* Detection flags of a prepared array under one stimulus. Flags don't need
   the per-fault faulty-capture payloads that [outcomes_of_run]
   materializes, so each chunk only yields its lane difference mask. *)
let screen t p ~pi ~state =
  let nchunks = num_chunks (Array.length p.faults) in
  let used ci = Lanes.mask (chunk_len p ci + 1) in
  let diffs =
    match t.mode with
    | Full ->
        let pi_words = broadcast_words pi and state_words = broadcast_words state in
        map_chunks t ~nchunks (fun slot ci ->
            let r = Parallel.run slot.s_par ~pi:pi_words ~state:state_words ~injections:p.inj.(ci) in
            diff_mask r.po (used ci) lor diff_mask r.capture (used ci))
    | Event_driven ->
        Event.set_stimulus (Lazy.force t.ev) ~pi ~state;
        map_chunks t ~nchunks (fun slot ci ->
            Event.run_diff (Lazy.force slot.s_ev) ~plan:p.plans.(ci) ~used:(used ci) ())
  in
  let flags = Array.make (Array.length p.faults) false in
  Array.iteri
    (fun ci diff ->
      let pos = ci * chunk_size in
      for i = 0 to chunk_len p ci - 1 do
        if Lanes.get diff (i + 1) then flags.(p.order.(pos + i)) <- true
      done)
    diffs;
  flags

let detected_faults t ~pi ~state faults =
  Metrics.incr m_batches;
  Trace.with_span "faultsim.detected_faults"
    ~args:[ ("faults", string_of_int (Array.length faults)) ]
    (fun () -> screen t (prepare t faults) ~pi ~state)

(* Multi-vector screening: a plain loop over the vectors that prepares the
   fault array once, counts as one batch and records one span. Each vector
   fans out along the chunk axis like every other entry point. *)
let detected_matrix t ~vectors faults =
  Metrics.incr m_batches;
  Trace.with_span "faultsim.detected_matrix"
    ~args:
      [
        ("vectors", string_of_int (Array.length vectors));
        ("faults", string_of_int (Array.length faults));
      ]
  @@ fun () ->
  if Array.length vectors = 0 then [||]
  else
    let p = prepare t faults in
    Array.map (fun (pi, state) -> screen t p ~pi ~state) vectors
