(** Environment-variable knobs with misconfiguration reporting.

    The scheduling knob [TVS_JOBS] is read through
    {!positive_int}, which distinguishes "unset" (use the default, silently)
    from "set but unparseable" (use the default, but say so): a deployment
    that exports [TVS_JOBS=sixteen] gets a one-line stderr warning and a tick
    on the warning counter instead of silently running at the wrong
    parallelism. Warnings are deduplicated per distinct value, so hot paths
    that re-read a knob do not spam. *)

val positive_int : ?fallback:string -> string -> int option
(** [positive_int key] is [Some v] when the variable is set to a positive
    integer (surrounding whitespace tolerated), [None] when unset. A set but
    non-positive or unparseable value warns on stderr (once per distinct
    value), fires the {!set_warning_hook} hook, and returns [None];
    [fallback] names the default used in the warning text. *)

val set_warning_hook : (key:string -> value:string -> unit) option -> unit
(** Install (or remove) the process-wide bad-value hook. [tvs_util] sits
    below the [tvs_obs] metrics library, so instead of counting directly it
    reports through this hook ({!Tvs_obs.Instrument.install_env_warning_counter}
    routes it into the [util.env.invalid] counter). Called at most once per
    distinct bad value, on whichever thread read the knob. *)

val warning_count : unit -> int
(** Total misconfiguration warnings emitted so far (hook installed or not). *)
