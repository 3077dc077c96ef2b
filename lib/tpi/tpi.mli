(** ATPG-aware test-point insertion: propose, insert, evaluate.

    A {e study} closes the loop the lint risk table opens. Candidates are
    mined from the S004 hidden-fault-risk analysis ({!Candidate.mine}),
    applied to the netlist ({!Transform.apply}), and selected greedily: each
    round evaluates every remaining candidate by running the full stitched
    flow ({!Tvs_harness.Experiments.run_flow}) on the modified circuit —
    fanned out across {!Tvs_util.Pool} — and keeps the one converting the
    most statically hidden nets (coverage, test time and memory break
    ties). Conversions are measured at the {e matched emitted window}: a
    circuit with [k] observe cells appended is compared at shift [s + k],
    so the original emitted cells stay emitted, every observe cell is
    emitted, and the exclusive-net union can only shrink (DESIGN.md §13).

    Everything is deterministic: candidate order, the chunk-ordered pool
    results, and the jobs-invariant flow summaries make the study
    byte-identical at every [--jobs]. When a result cache is
    installed ({!Tvs_harness.Experiments.set_cache}) each evaluation's flow
    memoizes per modified-circuit digest under kind ["EXPR"], and the whole
    study memoizes under kind ["TPIS"] keyed by the base circuit digest and
    the options — a re-run loads the study without touching the engine. *)

type options = {
  points : int;  (** K: test points to select (greedy rounds) *)
  budget : int;  (** candidate pool size (top of the mined ranking) *)
  shift : int option;  (** mining shift; [None] = {!Tvs_lint.Scan_lint.default_shift} *)
  po_taps : bool;  (** also mine direct primary-output taps *)
  controls : bool;  (** also mine control points *)
}

val default_options : options
(** 2 points from the top 8 candidates, default shift, observe cells only. *)

type point = {
  candidate : Candidate.t;
  conversions : int;
      (** stem faults on nets this point made observable (2 per net),
          incremental over the previously selected points *)
  summary : Tvs_harness.Experiments.run_summary;
      (** the stitched flow on the circuit with this point and all prior
          selections inserted *)
  d_coverage : float;  (** vs the previous round's summary *)
  dm : float;
  dt : float;
}

type result = {
  circuit : string;
  chain_len : int;  (** original chain length *)
  shift : int;  (** mining shift actually used (clamped) *)
  candidates : int;  (** mined pool size *)
  base : Tvs_harness.Experiments.run_summary;  (** unmodified circuit's flow *)
  points : point list;  (** selection order *)
  converted : string list;
      (** nets exclusive under [shift] in the base circuit but observable in
          the final circuit at the matched window, sorted by name *)
  caught : int;
      (** converted stem faults the final circuit's own stitched test set
          actually catches, confirmed by replaying the engine's stimuli
          through a {!Tvs_core.Cycle} machine *)
  converted_faults : int;  (** [2 * length converted] *)
}

val final_summary : result -> Tvs_harness.Experiments.run_summary
(** Last selected point's summary; [base] when nothing was selected. *)

val run : ?options:options -> Tvs_netlist.Circuit.t -> result
(** Run (or load from cache) a study. Raises
    {!Tvs_netlist.Circuit.Build_error} on a circuit without flip-flops or
    one already using the [tpi_] name prefix. *)

val schema_version : int
(** Version of the JSON schema and the cache wire encoding. *)

val study_kind : string
(** Cache frame kind of stored studies (["TPIS"]); exposed so the serve
    daemon can probe {!Tvs_store.Cache.entry_path} for dedupe. *)

val study_key : ?options:options -> Tvs_netlist.Circuit.t -> Tvs_store.Digest.t
(** The cache key {!run} stores its study under: the circuit digest
    combined with the schema version, the label and the options. *)

val label : string
(** The experiment label ("tpi") all of a study's flows run under. *)

val encode_options : Tvs_util.Wire.writer -> options -> unit
val encode_result : Tvs_util.Wire.writer -> result -> unit

val decode_result : Tvs_util.Wire.reader -> result
(** Raises [Tvs_util.Wire.Error] on malformed input. *)

val to_ascii : result -> string
(** Header, base/final summary lines, the per-point table, and the
    hidden-to-caught line. Deterministic; ends with a newline. *)

val to_json : result -> Tvs_obs.Json.t
(** Schema (also enforced by `validate_report --tpi`):
    {v
    { "schema": 1, "circuit": str, "chain_len": int, "shift": int,
      "candidates": int, "base": summary, "points": [point],
      "final": summary, "converted": [str], "caught": int,
      "converted_faults": int }
    summary = { "atv": int, "tv": int, "extra": int, "m": num, "t": num,
                "coverage": num, "peak_hidden": int }
    point   = { "kind": "obs-cell|obs-po|ctl-1|ctl-0", "net": str,
                "score": int, "hits": int, "dmem": int, "dtime": int,
                "conversions": int, "summary": summary, "d_coverage": num,
                "dm": num, "dt": num }
    v} *)

val to_json_string : result -> string
