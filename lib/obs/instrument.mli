(** Glue between the generic observability primitives and the pieces of the
    toolkit that cannot depend on [tvs_obs] themselves.

    {!Tvs_util.Pool} sits below this library in the dependency order, so it
    exposes a neutral probe hook instead of recording metrics directly;
    {!install_pool_probe} plugs that hook into {!Metrics}. All pool metrics
    are registered unstable: queue wait and per-slot busy time are wall-clock
    scheduling artifacts that legitimately differ between runs and [jobs]
    values, so they must not pollute the deterministic snapshot. *)

val install_pool_probe : unit -> unit
(** Route {!Tvs_util.Pool} probe events into metrics:
    [pool.submissions] / [pool.chunks] (counters), [pool.chunk_wait_us] /
    [pool.chunk_busy_us] (histograms, microseconds) and [pool.slot<i>.busy_us]
    (per-slot counters). Also installs the {!install_env_warning_counter}
    hook. Idempotent. *)

val install_env_warning_counter : unit -> unit
(** Route {!Tvs_util.Env} misconfiguration warnings (a set but unparseable
    [TVS_JOBS]) into the [util.env.invalid] counter, backfilling
    warnings emitted before installation. Idempotent. *)
