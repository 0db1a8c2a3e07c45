"""Deterministic thread-parallel execution layer.

Runs the hot kernels — CSR/sliced-ELL SpMV/SpMM, the fused residual
updates, the matrix-free stencil sweeps, and the within-level triangular
substitutions — across a persistent worker pool with **bit-identical
results**: every partition computes its output rows with exactly the serial
kernel's arithmetic and writes to disjoint slices, so the ``REPRO_THREADS``
knob changes wall-clock, never a single bit of any result.

Layout:

* :mod:`repro.par.pool` — the worker pool, the ``REPRO_THREADS``
  configuration (default ``1`` = today's serial behavior; ``auto`` = the
  core count), and the shared budget that keeps dispatcher workers and
  intra-kernel threads from oversubscribing the machine.
* :mod:`repro.par.partition` — nnz-balanced row/slab partition plans,
  cached per storage object (:class:`ParState`), plus the per-kernel
  thread-count resolution (forced override → autotuned verdict → size
  heuristic).
* :mod:`repro.par.kernels` — the partitioned executors the ``fast``
  backend dispatches to.
* :mod:`repro.par.procpool` — the ``REPRO_PROCS`` process tier: persistent
  spawn-start workers executing whole batched solves past the GIL, fed by
  :class:`repro.serve.ShardedGateway`.
* :mod:`repro.par.shm` — zero-copy shared-memory operator storage for the
  process tier (publish once, attach-on-first-use, refcounted registry).

The :mod:`repro.plans` layer prebuilds partitions and autotunes
per-(fingerprint, kernel) thread counts at plan-compile time, so small
operators stay serial and the solve hot loop never partitions.
"""

from .partition import (
    MIN_WORK_PER_THREAD,
    ParState,
    balanced_boundaries,
    csr_partition,
    csr_slabs_from_boundaries,
    kernel_threads,
    level_partition,
    par_state,
    span_partition,
)
from .pool import (
    active_consumers,
    configured_threads,
    effective_threads,
    force_threads,
    forced_threads,
    parallel_enabled,
    pool_consumer,
    pool_stats,
    run_tasks,
    set_threads,
    use_threads,
)

#: the process tier's exports, resolved on first access (PEP 562) so that
#: kernels and direct solves never import multiprocessing or shared memory
_LAZY = {
    **dict.fromkeys(("ExpiredRequest", "ProcPool", "WorkerDied", "WorkerError",
                     "WorkerHung", "configured_procs", "resolve_procs",
                     "set_procs", "use_procs"), "procpool"),
    **dict.fromkeys(("AttachedArrays", "ShmDescriptor", "ShmRegistry",
                     "attach_arrays", "operator_from_payload",
                     "operator_payload", "publish_arrays", "segment_exists"),
                    "shm"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "MIN_WORK_PER_THREAD",
    "AttachedArrays",
    "ExpiredRequest",
    "ParState",
    "ProcPool",
    "ShmDescriptor",
    "ShmRegistry",
    "WorkerDied",
    "WorkerError",
    "WorkerHung",
    "active_consumers",
    "attach_arrays",
    "balanced_boundaries",
    "configured_procs",
    "configured_threads",
    "csr_partition",
    "csr_slabs_from_boundaries",
    "effective_threads",
    "force_threads",
    "forced_threads",
    "kernel_threads",
    "level_partition",
    "operator_from_payload",
    "operator_payload",
    "par_state",
    "parallel_enabled",
    "pool_consumer",
    "pool_stats",
    "publish_arrays",
    "resolve_procs",
    "run_tasks",
    "segment_exists",
    "set_procs",
    "set_threads",
    "span_partition",
    "use_procs",
    "use_threads",
]
