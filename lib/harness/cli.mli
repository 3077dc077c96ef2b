(** Argument validation shared by the [tvs] CLI, the bench driver and the
    test suite. Every checker returns [Error msg] instead of raising, so the
    drivers can surface bad input through their usual error channel
    (cmdliner's [`Msg], the bench usage message) with a non-zero exit, and
    the tests can cover the rejection paths directly. *)

val check_spec : string -> (string, string) result
(** A circuit spec is a benchmark profile name, ["s27"], ["fig1"], or a path
    to an existing netlist file ([.bench] or structural Verilog). *)

val load_circuit :
  ?scale:float -> ?format:Tvs_verilog.Loader.format -> string -> (Tvs_netlist.Circuit.t, string) result
(** Validate [spec] and build the circuit. [scale] (default 1.0) applies to
    profile circuits only. File specs are parsed through
    {!Tvs_verilog.Loader} — format forced by [format], else auto-detected by
    extension then content — and parse failures render as
    ["path:line: message"]. *)

val parse_format : string -> (Tvs_verilog.Loader.format option, string) result
(** The [--format] / job-field vocabulary: ["auto"] ([None]), ["bench"],
    ["verilog"]. Shared between the CLI and the serve protocol. *)

val parse_scheme : string -> (Tvs_scan.Xor_scheme.t, string) result
(** ["nxor"] | ["vxor"] | ["hxor:<taps>"] — the [--scheme] vocabulary,
    shared with the serve protocol's ["scheme"] job field. *)

val parse_selection : string -> (Tvs_core.Policy.selection, string) result
(** ["random"] | ["hardness"] | ["most-faults"] | ["weighted"] — the
    [--selection] vocabulary, shared with the serve protocol. *)

val check_shift : int -> (int, string) result
(** Fixed shift size: at least 1. *)

val inline_name : string -> string
(** The circuit name given to an inline netlist text: ["inline-<hex>"] of
    the text's content digest, so identical texts name (and digest)
    identically, and a copy saved as {!inline_file_name} reparses to the
    same circuit. *)

val inline_file_name : ?format:Tvs_verilog.Loader.format -> string -> string
(** {!inline_name} plus the extension of the resolved format
    ([.bench] / [.v]), the file name serve uses to persist inline text. *)

val inline_circuit :
  ?format:Tvs_verilog.Loader.format -> string -> (Tvs_netlist.Circuit.t, string) result
(** Parse an inline netlist text (a serve-protocol job with a ["bench"]
    field), named by {!inline_name}; format auto-detected by content when
    absent. [Error] carries the source line. *)

val parse_ties : string -> ((string * bool) list, string) result
(** The [--scan-map] / serve ["scan_map"] vocabulary: comma-separated
    [name=0|1] pin ties for the equivalence checker (e.g.
    ["scan_en=0,test_mode=1"]). Whitespace-tolerant; empty entries are
    skipped; the empty string is the empty list. *)

val check_table : int -> (int, string) result
(** The paper has tables 1-5. *)

val check_jobs : int -> (int, string) result
(** Fan-out width for the fault-simulation domain pool: at least 1. *)

val check_scale : float -> (float, string) result
(** Profile scale factor: must lie in (0, 1]. Values above 1 would blow up
    synthetic profiles past their reference sizes, and non-positive values
    silently produce empty circuits and degenerate tables. *)

val check_out_file : flag:string -> string -> (string, string) result
(** An output file path the driver will create or overwrite: non-empty, not
    an existing directory, and its parent directory must exist (the write
    happens at exit — failing then would silently lose a whole run).
    [flag] names the offending option in the error message. *)

val check_trace_file : string -> (string, string) result
(** [check_out_file ~flag:"--trace"]. *)

val check_checkpoint_file : string -> (string, string) result
(** [check_out_file ~flag:"--checkpoint"]. *)

val check_checkpoint_every : int -> (int, string) result
(** Checkpoint period in stitched cycles: at least 1. *)

val check_resume_file : string -> (string, string) result
(** The checkpoint file to resume from must exist (its contents are
    validated later, by {!Tvs_store.Checkpoint.load}). *)
