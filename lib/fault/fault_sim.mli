(** Batch fault simulation on top of the word-parallel engines.

    One engine run simulates the fault-free machine in lane 0 and up to 62
    faulty machines in the remaining lanes; arbitrary fault batches are
    chunked internally. Two entry points cover the stitching engine's needs:

    - {!run_batch}: all machines receive the same stimulus (screening the
      uncaught set against a candidate vector);
    - {!run_per_state}: each faulty machine applies its own scan state (the
      hidden-fault case, where a fault's retained response bits mutate the
      vector it actually receives).

    Two execution paths produce bit-identical outcomes. {!Full} runs one
    complete levelized pass per chunk ({!Tvs_sim.Parallel}).
    {!Event_driven} (the default) evaluates the fault-free machine once per
    stimulus and then propagates only lane events inside the chunk's fault
    cones ({!Tvs_sim.Event}); chunks are grouped so faults with overlapping
    cones share lanes. Work done and skipped is tallied in the [faultsim.*]
    counters of {!Tvs_obs.Metrics}.

    There is one parallel axis: the 62-fault chunks of a call fan out across
    a {!Tvs_util.Pool} domain pool when [jobs > 1]. Each pool slot owns a
    private engine context (the engines are not thread-safe), and results
    and counter tallies are merged in chunk order, making outcomes and
    counters bit-identical for every [jobs] value — including [jobs = 1],
    which never touches the pool. Entry points must be called from one
    domain at a time (the submitter). *)

type outcome =
  | Same  (** response identical to the fault-free machine *)
  | Po_detected  (** differs at a primary output: immediately observed *)
  | Capture_differs of bool array
      (** primary outputs identical; faulty captured scan state attached
          (length = number of flip-flops) *)

type frame = { po : bool array; capture : bool array }

type batch_result = { good : frame; outcomes : outcome array }

type mode =
  | Event_driven  (** cone-restricted event propagation (default) *)
  | Full  (** one full levelized pass per chunk *)

type t
(** Reusable fault-simulation context for one circuit: a {!Tvs_sim.Parallel}
    engine plus a lazily-built {!Tvs_sim.Event} engine (and, when [jobs > 1],
    per-domain copies of both). It memoizes the chunk order and injection
    plans of the last fault array it screened, keyed by physical identity,
    so do not mutate a fault array between screens. Not thread-safe. *)

val create : ?mode:mode -> ?jobs:int -> Tvs_netlist.Circuit.t -> t
(** [jobs] is the fan-out width (clamped to at least 1); defaults to
    {!Tvs_util.Pool.default_jobs}. Calls too small to chunk always run
    inline on the caller's domain. *)

val parallel : t -> Tvs_sim.Parallel.t
(** The underlying broadcast engine, for callers that also need raw
    {!Tvs_sim.Parallel.run} access on the same circuit. *)

val note_dropped : int -> unit
(** Record that [n] caught faults were dropped from further simulation. *)

val run_batch : t -> pi:bool array -> state:bool array -> faults:Fault.t array -> batch_result

val run_per_state :
  t ->
  pi:bool array ->
  good_state:bool array ->
  faults:Fault.t array ->
  states:bool array array ->
  batch_result
(** [states.(i)] is the scan state fault [i]'s machine applies;
    [Array.length states] must equal [Array.length faults]. *)

val detects : t -> pi:bool array -> state:bool array -> Fault.t -> bool
(** Full-observability detection (all POs and the whole captured state), the
    criterion of a traditional full-shift scan test. *)

val detected_faults : t -> pi:bool array -> state:bool array -> Fault.t array -> bool array
(** Full-observability detection flags for a whole fault list. *)

val detected_matrix :
  t -> vectors:(bool array * bool array) array -> Fault.t array -> bool array array
(** [detected_matrix t ~vectors faults] screens every [(pi, state)] vector
    against the whole fault list: row [v] equals
    [detected_faults t ~pi ~state faults] for vector [v].

    A loop over the vectors that amortizes the per-array setup: the cone
    order and compiled injection plans are built once for the whole call,
    and the call counts as one [faultsim.batches] and one
    [faultsim.detected_matrix] span. Each vector fans out along the chunk
    axis like {!detected_faults}. *)
