"""Parallel experiment orchestration with a persistent result store.

The runner subsystem turns declarative sweep specs (scheduler x load x
seed x config-override grids) into simulation runs executed across a
crash-tolerant process pool, with every completed run checkpointed in an
on-disk content-hash-keyed :class:`ResultStore`:

* :mod:`repro.runner.spec` -- :class:`RunSpec` / :class:`SweepSpec`
  declarative descriptions and their stable content hashes;
* :mod:`repro.runner.store` -- the atomic, corruption-tolerant on-disk
  store shared across processes and invocations;
* :mod:`repro.runner.worker` -- picklable worker entry points that
  persist results before returning;
* :mod:`repro.runner.pool` -- :class:`SweepRunner`: sharding, retry with
  capped exponential backoff, quarantine of repeatedly-failing runs,
  pool-break recovery, and checkpoint/resume.

See ``docs/RUNNER.md`` for the sweep-spec format, store layout, and
resume semantics.  Quickstart::

    from repro.runner.pool import run_sweep
    from repro.runner.spec import RunSpec
    specs = [RunSpec("lte", sched, load=0.7, num_ues=20, duration_s=4.0)
             for sched in ("pf", "outran")]
    outcome = run_sweep(specs, jobs=4, store="results/.store")
    for spec, result in zip(specs, outcome.in_order(specs)):
        print(spec.label(), result.avg_fct_ms())
"""
