(** The per-cycle fault-set machine of the stitched flow.

    Tracks the three disjoint fault sets of Section 4 — caught [f_c], hidden
    [f_h], uncaught [f_u] — together with the fault-free chain contents and,
    for every hidden fault, its private (divergent) chain contents. One
    {!step} models: shift [s] fresh bits in (observing [s] bits of the
    previous response, which resolves hidden faults), apply the resulting
    vector, capture, and write back according to the XOR scheme.

    {!preview} runs the same classification without committing, which is how
    the greedy vector-selection strategies score candidates. *)

type status =
  | Caught of int  (** cycle number (1-based) at which the fault was observed *)
  | Hidden
  | Uncaught

type t

val create :
  ?scheme:Tvs_scan.Xor_scheme.t ->
  ?jobs:int ->
  Tvs_netlist.Circuit.t ->
  faults:Tvs_fault.Fault.t array ->
  t
(** Fresh machine: every fault uncaught, chain contents all-zero (the first
    vector is fully shifted so the initial contents never matter). [jobs] is
    the fault-simulation fan-out width (see {!Tvs_fault.Fault_sim.create});
    results are identical for every value. *)

val circuit : t -> Tvs_netlist.Circuit.t
val scheme : t -> Tvs_scan.Xor_scheme.t
val num_faults : t -> int
val status : t -> int -> status
val cycle_count : t -> int

val num_caught : t -> int
val num_hidden : t -> int
val num_uncaught : t -> int

val uncaught_indices : t -> int list
(** Ascending fault indices currently in [f_u]. *)

val hidden_indices : t -> int list

val good_contents : t -> bool array
(** Fault-free chain contents (post write-back). Do not mutate. *)

(** {2 Persisted state}

    Everything a mid-flow machine carries beyond its construction inputs:
    the fault partition (with each hidden fault's private chain contents),
    the fault-free chain contents, and the cycle counters. {!export} and
    {!restore} are the checkpoint/resume substrate — restoring an exported
    state into a machine created with the same circuit and fault list
    continues the flow bit-identically. *)

type fault_state =
  | Fs_caught of int  (** cycle number at which the fault was observed *)
  | Fs_hidden of bool array  (** the fault's private (divergent) chain contents *)
  | Fs_uncaught

type persisted = {
  states : fault_state array;  (** one per fault, in fault-list order *)
  good : bool array;  (** fault-free chain contents *)
  cycles : int;
  last_shift : int;
}

val export : t -> persisted
(** Deep copy of the machine's mutable state. *)

val restore : t -> persisted -> unit
(** Overwrite the machine's state. Raises [Invalid_argument] when the
    persisted shape does not match the machine's circuit or fault count. *)

val constraints_for : t -> s:int -> Tvs_logic.Ternary.t array
(** The scan-part constraint cube a vector built with shift [s] must satisfy:
    head [s] cells free, the rest pinned to the retained response. *)

type report = {
  caught_now : int list;  (** fault indices newly caught this cycle *)
  newly_hidden : int list;  (** [f_u] faults that became hidden *)
  reverted : int list;  (** hidden faults whose effect vanished (back to [f_u]) *)
  still_hidden : int list;  (** hidden faults remaining hidden *)
  good_po : bool array;
  good_capture : bool array;
}

val step : t -> pi:bool array -> fresh:bool array -> report
(** Commit one test cycle. [Array.length fresh] is the shift size [s]; the
    applied scan part is [fresh] concatenated with the retained contents.
    Raises [Invalid_argument] if [s] exceeds the chain length. *)

val preview : t -> pi:bool array -> fresh:bool array -> report
(** Same classification as {!step} but without mutating the machine. *)

val flush : t -> full:bool -> report
(** Final unload with no new vector: observe [s] bits ([s] = chain length
    when [full], else the last step's shift size) of the last response.
    Hidden faults observed there are caught; the rest revert to uncaught.
    After [flush] the hidden set is empty. *)

val differentiated : report -> int
(** [caught_now] plus [newly_hidden]: how many uncaught faults the cycle's
    vector told apart from the fault-free machine — the greedy score. *)
