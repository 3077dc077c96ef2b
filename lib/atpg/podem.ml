module Circuit = Tvs_netlist.Circuit
module Ternary = Tvs_logic.Ternary
module Fivev = Tvs_logic.Fivev
module Fault = Tvs_fault.Fault
module Soa = Tvs_sim.Soa
module Metrics = Tvs_obs.Metrics

type result = Detected of Cube.t | Untestable | Aborted

type config = { backtrack_limit : int; guided : bool }

let default_config = { backtrack_limit = 100; guided = true }

(* --- five-valued logic on ints ------------------------------------------ *)

(* A value is the index of its [Fivev.t] in [of_code]: 0 = Zero, 1 = One,
   2 = D, 3 = Dbar, 4 = X. Every table below is computed from [Fivev]'s own
   connectives, so the kernel agrees with the D-calculus by construction. *)
let of_code = [| Fivev.Zero; Fivev.One; Fivev.D; Fivev.Dbar; Fivev.X |]

let code = function Fivev.Zero -> 0 | Fivev.One -> 1 | Fivev.D -> 2 | Fivev.Dbar -> 3 | Fivev.X -> 4

let zero = 0
let one = 1
let x = 4
let is_error v = v lsr 1 = 1 (* D or Dbar *)
let good_is_one v = v = 1 || v = 2 (* One or D *)

(* [fold.(op * 25 + acc * 5 + v)] is one left-fold step of a [Soa] opcode:
   AND, OR and XOR fold through [Fivev]; copy (BUF/NOT) takes the input. *)
let fold =
  let step op a b =
    match op with 0 -> Fivev.f_and a b | 1 -> Fivev.f_or a b | 2 -> Fivev.f_xor a b | _ -> b
  in
  Array.init 100 (fun i -> code (step (i / 25) of_code.(i / 5 mod 5) of_code.(i mod 5)))

(* Fold seeds per opcode, as in the gate definitions: AND from One, OR and
   XOR from Zero; copy overwrites its seed with the single input. *)
let seed = [| one; zero; zero; x |]
let invert = Array.map (fun v -> code (Fivev.f_not v)) of_code

(* Value of the faulty machine forced at the fault site, given the fault-free
   value flowing there. Unknown good value stays unknown. *)
let site_table stuck =
  Array.map
    (fun v ->
      match Fivev.good v with
      | Ternary.X -> x
      | g -> code (Fivev.of_pair g (Ternary.of_bool stuck)))
    of_code

let site_sa0 = site_table false
let site_sa1 = site_table true

(* --- work counters ------------------------------------------------------- *)

let m_detected = Metrics.counter "podem.detected"
let m_untestable = Metrics.counter "podem.untestable"
let m_aborted = Metrics.counter "podem.aborted"
let m_decisions = Metrics.counter "podem.decisions"
let m_backtracks = Metrics.counter "podem.backtracks"
let m_implications = Metrics.counter "podem.implications"
let m_base_evals = Metrics.counter "podem.base_evals"
let m_screened = Metrics.counter "podem.screened"

(* --- context -------------------------------------------------------------- *)

(* Assignable positions are the primary inputs, then the scan cells:
   position [i < npi] is PI [i], position [npi + j] is scan cell [j]. *)
type ctx = {
  soa : Soa.t;
  guide : Scoap.t;
  npi : int;
  pos_net : int array;  (* position -> net *)
  pos_of_net : int array;  (* net -> position, or -1 *)
  assignment : Ternary.t array;  (* per position *)
  all_free : Ternary.t array;  (* the constraint array of unconstrained calls *)
  values : int array;  (* per net *)
  (* Event queue: one bucket per level, laid out in [queue] at [qbase]. A
     level holds at most its gates (level 0: the one source). *)
  qbase : int array;
  qlen : int array;
  queue : int array;
  queued : bool array;
  (* Undo trail: [net * 8 + old value], newest on top. *)
  mutable trail : int array;
  mutable top : int;
  (* Decision stack: position, value, whether flipped, trail mark. *)
  dec_pos : int array;
  dec_val : bool array;
  dec_flipped : bool array;
  dec_mark : int array;
  mutable ndec : int;
  (* Generation stamps: [seen] serves the TFO walk and each X-path search,
     [obs_seen] (per scan cell) dedupes the observed flops. *)
  seen : int array;
  obs_seen : int array;
  mutable stamp : int;
  (* The fault's cone: gate nets in DFS preorder, observation points. *)
  tfo : int array;
  mutable ntfo : int;
  obs_po : int array;
  mutable npo : int;
  obs_cells : int array;
  mutable ncells : int;
  frontier : int array;
  mutable nfrontier : int;
  (* The fault being targeted; -1 fields when evaluating fault-free. *)
  mutable stem_site : int;  (* stem of a stem fault *)
  mutable branch_sink : int;
  mutable branch_pin : int;
  mutable site : int array;
  (* [values] holds the fault-free implication of [memo_key] (compared by
     physical identity) whenever [memo_valid]; each search undoes its trail
     back to it, so calls under one cycle's constraints skip the full
     evaluation. *)
  mutable memo_key : Ternary.t array;
  mutable memo_valid : bool;
  (* Per-call tallies, flushed to the counters when the call ends. *)
  mutable implications : int;
  mutable decisions : int;
  mutable backtracks : int;
}

let create ?scoap c =
  let guide = match scoap with Some s -> s | None -> Scoap.compute c in
  let soa = Soa.create c in
  let pos_net = Array.append (Circuit.inputs c) (Circuit.flops c) in
  let npos = Array.length pos_net in
  let n = Circuit.num_nets c in
  let pos_of_net = Array.make n (-1) in
  Array.iteri (fun idx net -> pos_of_net.(net) <- idx) pos_net;
  let nflops = Circuit.num_flops c in
  let qbase = Array.make (soa.depth + 1) 0 in
  for l = 1 to soa.depth do
    qbase.(l) <- qbase.(l - 1) + (if l = 1 then 1 else soa.level_pop.(l - 1))
  done;
  let ngates = Array.fold_left (fun acc p -> acc + p) 0 soa.level_pop in
  {
    soa;
    guide;
    npi = Circuit.num_inputs c;
    pos_net;
    pos_of_net;
    assignment = Array.make npos Ternary.X;
    all_free = Array.make nflops Ternary.X;
    values = Array.make n x;
    qbase;
    qlen = Array.make (soa.depth + 1) 0;
    queue = Array.make (ngates + 1) 0;
    queued = Array.make n false;
    trail = Array.make (max 16 n) 0;
    top = 0;
    dec_pos = Array.make npos 0;
    dec_val = Array.make npos false;
    dec_flipped = Array.make npos false;
    dec_mark = Array.make npos 0;
    ndec = 0;
    seen = Array.make n 0;
    obs_seen = Array.make nflops 0;
    stamp = 0;
    tfo = Array.make ngates 0;
    ntfo = 0;
    obs_po = Array.make (Array.length (Circuit.outputs c)) 0;
    npo = 0;
    obs_cells = Array.make nflops 0;
    ncells = 0;
    frontier = Array.make ngates 0;
    nfrontier = 0;
    stem_site = -1;
    branch_sink = -1;
    branch_pin = -1;
    site = site_sa0;
    memo_key = [||];
    memo_valid = false;
    implications = 0;
    decisions = 0;
    backtracks = 0;
  }

let circuit ctx = Soa.circuit ctx.soa
let scoap ctx = ctx.guide

(* --- implication ----------------------------------------------------------- *)

(* Value of [net] from its fanins (fault-aware) or its position. *)
let eval ctx net =
  let soa = ctx.soa and values = ctx.values in
  let v =
    if soa.is_gate.(net) then begin
      let op = soa.op.(net) in
      let t = op * 25 in
      let base = soa.fanin_base.(net) and stop = soa.fanin_base.(net + 1) in
      let acc = ref seed.(op) in
      if net <> ctx.branch_sink then
        (* The hot loop: [soa] holds valid nets and [values] codes 0..4. *)
        for p = base to stop - 1 do
          acc :=
            Array.unsafe_get fold
              (t + (!acc * 5) + Array.unsafe_get values (Array.unsafe_get soa.fanin p))
        done
      else
        for p = base to stop - 1 do
          let v = values.(soa.fanin.(p)) in
          let v = if p - base = ctx.branch_pin then ctx.site.(v) else v in
          acc := fold.(t + (!acc * 5) + v)
        done;
      if soa.inv.(net) <> 0 then invert.(!acc) else !acc
    end
    else
      let idx = ctx.pos_of_net.(net) in
      if idx >= 0 then
        match ctx.assignment.(idx) with Ternary.Zero -> zero | Ternary.One -> one | Ternary.X -> x
      else if soa.inv.(net) <> 0 then one (* constant: the inversion word carries it *)
      else zero
  in
  if net = ctx.stem_site then ctx.site.(v) else v

let enqueue ctx net =
  if not ctx.queued.(net) then begin
    ctx.queued.(net) <- true;
    let l = ctx.soa.level_of.(net) in
    ctx.queue.(ctx.qbase.(l) + ctx.qlen.(l)) <- net;
    ctx.qlen.(l) <- ctx.qlen.(l) + 1
  end

let push_trail ctx entry =
  if ctx.top = Array.length ctx.trail then begin
    let bigger = Array.make (2 * ctx.top) 0 in
    Array.blit ctx.trail 0 bigger 0 ctx.top;
    ctx.trail <- bigger
  end;
  ctx.trail.(ctx.top) <- entry;
  ctx.top <- ctx.top + 1

(* Event-driven implication from one changed source net, level by level
   ascending so each net is evaluated at most once. Every change goes on the
   trail. Gates only feed higher levels, so a level's bucket is complete when
   its turn comes. *)
let propagate ctx source =
  let soa = ctx.soa and values = ctx.values in
  enqueue ctx source;
  let pending = ref 1 and level = ref soa.level_of.(source) in
  while !pending > 0 do
    let l = !level in
    let base = ctx.qbase.(l) in
    for i = 0 to ctx.qlen.(l) - 1 do
      let net = ctx.queue.(base + i) in
      ctx.queued.(net) <- false;
      decr pending;
      let old = values.(net) in
      let v = eval ctx net in
      ctx.implications <- ctx.implications + 1;
      if v <> old then begin
        push_trail ctx ((net lsl 3) lor old);
        values.(net) <- v;
        for k = soa.sink_base.(net) to soa.sink_base.(net + 1) - 1 do
          let s = soa.sink.(k) in
          if not ctx.queued.(s) then begin
            enqueue ctx s;
            incr pending
          end
        done
      end
    done;
    ctx.qlen.(l) <- 0;
    incr level
  done

let undo ctx mark =
  let values = ctx.values and trail = ctx.trail in
  for k = ctx.top - 1 downto mark do
    let e = trail.(k) in
    values.(e lsr 3) <- e land 7
  done;
  ctx.top <- mark

(* Fault-free full evaluation of the constraint-only assignment: the base
   every call under the same constraints starts from. *)
let eval_fault_free ctx =
  ctx.stem_site <- -1;
  ctx.branch_sink <- -1;
  Array.iter (fun net -> ctx.values.(net) <- eval ctx net) ctx.pos_net;
  Array.iter (fun net -> ctx.values.(net) <- eval ctx net) ctx.soa.order

(* --- the fault's cone ------------------------------------------------------ *)

let observe_cell ctx fnet =
  let cell = ctx.pos_of_net.(fnet) - ctx.npi in
  if ctx.obs_seen.(cell) <> ctx.stamp then begin
    ctx.obs_seen.(cell) <- ctx.stamp;
    ctx.obs_cells.(ctx.ncells) <- cell;
    ctx.ncells <- ctx.ncells + 1
  end

(* Depth-first over gate consumers in fanout order; [tfo] gets the gate
   nets in preorder. *)
let rec visit ctx net =
  let soa = ctx.soa in
  if ctx.seen.(net) <> ctx.stamp then begin
    ctx.seen.(net) <- ctx.stamp;
    if soa.is_gate.(net) then begin
      ctx.tfo.(ctx.ntfo) <- net;
      ctx.ntfo <- ctx.ntfo + 1
    end;
    if soa.is_po.(net) then begin
      ctx.obs_po.(ctx.npo) <- net;
      ctx.npo <- ctx.npo + 1
    end;
    for k = soa.dflop_base.(net) to soa.dflop_base.(net + 1) - 1 do
      observe_cell ctx soa.dflop.(k)
    done;
    for k = soa.sink_base.(net) to soa.sink_base.(net + 1) - 1 do
      visit ctx soa.sink.(k)
    done
  end

(* Mark the fault's transitive fanout cone; collect its observation points
   and gate nets. *)
let mark_tfo ctx (fault : Fault.t) =
  ctx.stamp <- ctx.stamp + 1;
  ctx.ntfo <- 0;
  ctx.npo <- 0;
  ctx.ncells <- 0;
  match fault.branch with
  | None -> visit ctx fault.stem
  | Some (sink, _pin) ->
      if ctx.soa.is_flop.(sink) then observe_cell ctx sink
      else if ctx.soa.is_gate.(sink) then visit ctx sink

(* The value scan cell [cell] captures, fault-aware. *)
let captured ctx cell =
  let v = ctx.values.(ctx.soa.flop_d.(cell)) in
  if ctx.pos_net.(ctx.npi + cell) = ctx.branch_sink && ctx.branch_pin = 0 then ctx.site.(v) else v

let rec po_error ctx k = k < ctx.npo && (is_error ctx.values.(ctx.obs_po.(k)) || po_error ctx (k + 1))

let rec cell_error ctx k =
  k < ctx.ncells && (is_error (captured ctx ctx.obs_cells.(k)) || cell_error ctx (k + 1))

let error_observed ctx = po_error ctx 0 || cell_error ctx 0

let site_value ctx (fault : Fault.t) =
  let v = ctx.values.(fault.stem) in
  if ctx.stem_site >= 0 then v else ctx.site.(v)

let rec error_input ctx net base p =
  p < ctx.soa.fanin_base.(net + 1)
  &&
  let v = ctx.values.(ctx.soa.fanin.(p)) in
  let v = if net = ctx.branch_sink && p - base = ctx.branch_pin then ctx.site.(v) else v in
  is_error v || error_input ctx net base (p + 1)

let has_error_input ctx net =
  let base = ctx.soa.fanin_base.(net) in
  error_input ctx net base base

(* Gates in the fault cone whose output is X while a (fault-aware) input
   carries an error, in reverse DFS preorder. *)
let d_frontier ctx =
  ctx.nfrontier <- 0;
  for i = ctx.ntfo - 1 downto 0 do
    let net = ctx.tfo.(i) in
    if ctx.values.(net) = x && has_error_input ctx net then begin
      ctx.frontier.(ctx.nfrontier) <- net;
      ctx.nfrontier <- ctx.nfrontier + 1
    end
  done

(* Can an error at some D-frontier gate still reach an observation point
   through X-valued nets? *)
let rec reachable ctx net =
  let soa = ctx.soa in
  if ctx.seen.(net) = ctx.stamp then false
  else begin
    ctx.seen.(net) <- ctx.stamp;
    ctx.values.(net) = x
    && (soa.is_po.(net)
       || soa.dflop_base.(net + 1) > soa.dflop_base.(net)
       || reachable_sink ctx soa.sink_base.(net) soa.sink_base.(net + 1))
  end

and reachable_sink ctx k stop = k < stop && (reachable ctx ctx.soa.sink.(k) || reachable_sink ctx (k + 1) stop)

let rec reachable_from ctx i =
  i < ctx.nfrontier && (reachable ctx ctx.frontier.(i) || reachable_from ctx (i + 1))

let x_path_exists ctx =
  ctx.stamp <- ctx.stamp + 1;
  reachable_from ctx 0

(* --- objectives and backtrace ---------------------------------------------- *)

(* Objectives and decisions travel as [net_or_position * 2 + value], -1 for
   none. *)
let encode target v = (target lsl 1) lor Bool.to_int v

(* The X fanin of [net] to backtrace through: the first one unguided, else
   the cheapest (or, with [hardest], the costliest) to drive to [v], the
   first such on ties. -1 when no fanin is X. *)
let pick ctx ~guided ~hardest net v =
  let soa = ctx.soa in
  let best = ref (-1) and bcost = ref 0 in
  for p = soa.fanin_base.(net) to soa.fanin_base.(net + 1) - 1 do
    let i = soa.fanin.(p) in
    if ctx.values.(i) = x then
      if not guided then (if !best < 0 then best := i)
      else
        let cost = Scoap.cc ctx.guide i v in
        if !best < 0 || (if hardest then cost > !bcost else cost < !bcost) then begin
          best := i;
          bcost := cost
        end
  done;
  !best

(* Backtrace an objective (net, value) to an unassigned input position.
   Heuristic only; soundness comes from implication plus backtracking.
   [fuel] bounds the walk. *)
let rec backtrace ctx ~guided net v fuel =
  let soa = ctx.soa in
  if fuel = 0 then -1
  else
    let idx = ctx.pos_of_net.(net) in
    if idx >= 0 then if ctx.assignment.(idx) = Ternary.X then encode idx v else -1
    else if not soa.is_gate.(net) then -1
    else
      let u = v <> (soa.inv.(net) <> 0) in
      match soa.op.(net) with
      | (0 | 1) as op ->
          (* AND-folds are controlled by 0, OR-folds by 1: chase the easiest
             input to the controlling value, else the hardest. *)
          let ctrl = op = 1 in
          let i = pick ctx ~guided ~hardest:(u <> ctrl) net u in
          if i < 0 then -1 else backtrace ctx ~guided i u (fuel - 1)
      | 2 ->
          (* Choose an X input; its target makes the total parity match,
             counting specified inputs and treating other X inputs as 0
             ([u] already accounts for XNOR inversion). *)
          let parity = ref u in
          for p = soa.fanin_base.(net) to soa.fanin_base.(net + 1) - 1 do
            if good_is_one ctx.values.(soa.fanin.(p)) then parity := not !parity
          done;
          let i = pick ctx ~guided ~hardest:false net !parity in
          if i < 0 then -1 else backtrace ctx ~guided i !parity (fuel - 1)
      | _ -> backtrace ctx ~guided soa.fanin.(soa.fanin_base.(net)) u (fuel - 1)

let rec first_x_input ctx net p =
  if p >= ctx.soa.fanin_base.(net + 1) then -1
  else if ctx.values.(ctx.soa.fanin.(p)) = x then ctx.soa.fanin.(p)
  else first_x_input ctx net (p + 1)

(* Pick the propagation objective from the D-frontier: the first gate whose
   output is cheapest to observe, targeting its first X input with the
   gate's non-controlling value. *)
let propagation_objective ctx =
  let soa = ctx.soa in
  let best = ref (-1) and bcost = ref 0 in
  for i = 0 to ctx.nfrontier - 1 do
    let net = ctx.frontier.(i) in
    let cost = Scoap.co_stem ctx.guide net in
    if !best < 0 || cost < !bcost then begin
      best := net;
      bcost := cost
    end
  done;
  let net = !best in
  let i = first_x_input ctx net soa.fanin_base.(net) in
  if i < 0 then -1 else encode i (soa.op.(net) = 0)

(* The next decision, or -1 when the current assignment cannot lead to a
   test. *)
let next_decision ctx ~guided (fault : Fault.t) =
  let site = site_value ctx fault in
  let objective =
    if is_error site then begin
      d_frontier ctx;
      if ctx.nfrontier = 0 || not (x_path_exists ctx) then -1 else propagation_objective ctx
    end
    else if site = x then encode fault.stem (not fault.stuck)
    else -1 (* activation impossible under current assignments *)
  in
  if objective < 0 then -1
  else backtrace ctx ~guided (objective lsr 1) (objective land 1 = 1) (Array.length ctx.values + 1)

(* --- search ----------------------------------------------------------------- *)

let assign ctx idx v =
  ctx.assignment.(idx) <- Ternary.of_bool v;
  propagate ctx ctx.pos_net.(idx)

(* Pop fully explored decisions, then flip the most recent unexplored one.
   [false] when the whole space is exhausted. *)
let rec flip_last ctx =
  if ctx.ndec = 0 then false
  else begin
    let d = ctx.ndec - 1 in
    let idx = ctx.dec_pos.(d) in
    ctx.assignment.(idx) <- Ternary.X;
    undo ctx ctx.dec_mark.(d);
    if ctx.dec_flipped.(d) then begin
      ctx.ndec <- d;
      flip_last ctx
    end
    else begin
      ctx.dec_val.(d) <- not ctx.dec_val.(d);
      ctx.dec_flipped.(d) <- true;
      assign ctx idx ctx.dec_val.(d);
      true
    end
  end

let extract_cube ctx =
  let nflops = Array.length ctx.assignment - ctx.npi in
  ({ pi = Array.sub ctx.assignment 0 ctx.npi; scan = Array.sub ctx.assignment ctx.npi nflops }
    : Cube.t)

let rec search ctx config fault backtracks =
  if error_observed ctx then Detected (extract_cube ctx)
  else
    let next = next_decision ctx ~guided:config.guided fault in
    if next >= 0 then begin
      let d = ctx.ndec in
      let idx = next lsr 1 and v = next land 1 = 1 in
      ctx.dec_pos.(d) <- idx;
      ctx.dec_val.(d) <- v;
      ctx.dec_flipped.(d) <- false;
      ctx.dec_mark.(d) <- ctx.top;
      ctx.ndec <- d + 1;
      ctx.decisions <- ctx.decisions + 1;
      assign ctx idx v;
      search ctx config fault backtracks
    end
    else if backtracks >= config.backtrack_limit then Aborted
    else if flip_last ctx then begin
      ctx.backtracks <- ctx.backtracks + 1;
      search ctx config fault (backtracks + 1)
    end
    else Untestable

let count ctx result =
  (match result with
  | Detected _ -> Metrics.incr m_detected
  | Untestable -> Metrics.incr m_untestable
  | Aborted -> Metrics.incr m_aborted);
  if ctx.implications > 0 then Metrics.add m_implications ctx.implications;
  if ctx.decisions > 0 then Metrics.add m_decisions ctx.decisions;
  if ctx.backtracks > 0 then Metrics.add m_backtracks ctx.backtracks;
  result

let generate ?(config = default_config) ?constraints ctx (fault : Fault.t) =
  let npi = ctx.npi in
  let constraints =
    match constraints with
    | Some arr ->
        if Array.length arr <> Array.length ctx.all_free then
          invalid_arg "Podem.generate: constraints length mismatch";
        arr
    | None -> ctx.all_free
  in
  Array.fill ctx.assignment 0 npi Ternary.X;
  Array.blit constraints 0 ctx.assignment npi (Array.length constraints);
  if not (ctx.memo_valid && ctx.memo_key == constraints) then begin
    (* Also a full reset of the search state, should a call have ended in
       an exception. *)
    Array.fill ctx.queued 0 (Array.length ctx.queued) false;
    Array.fill ctx.qlen 0 (Array.length ctx.qlen) 0;
    ctx.top <- 0;
    ctx.ndec <- 0;
    eval_fault_free ctx;
    Metrics.incr m_base_evals;
    ctx.memo_key <- constraints;
    ctx.memo_valid <- true
  end;
  ctx.implications <- 0;
  ctx.decisions <- 0;
  ctx.backtracks <- 0;
  if ctx.values.(fault.stem) = (if fault.stuck then one else zero) then begin
    (* The fault-free value at the site already equals the stuck value, and
       no decision can change a constraint-implied value: the search would
       find no activation and give up without branching. *)
    Metrics.incr m_screened;
    count ctx (if 0 >= config.backtrack_limit then Aborted else Untestable)
  end
  else begin
    ctx.memo_valid <- false;
    ctx.site <- (if fault.stuck then site_sa1 else site_sa0);
    (match fault.branch with
    | None ->
        ctx.stem_site <- fault.stem;
        ctx.branch_sink <- -1;
        ctx.branch_pin <- -1
    | Some (sink, pin) ->
        ctx.stem_site <- -1;
        ctx.branch_sink <- sink;
        ctx.branch_pin <- pin);
    mark_tfo ctx fault;
    (* Layer the fault transform on the fault-free base. *)
    (match fault.branch with
    | None -> propagate ctx fault.stem
    | Some (sink, _pin) -> if ctx.soa.is_gate.(sink) then propagate ctx sink);
    let result = search ctx config fault 0 in
    undo ctx 0;
    ctx.ndec <- 0;
    ctx.memo_valid <- true;
    count ctx result
  end
