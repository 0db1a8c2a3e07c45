"""Workspace thread-safety under real concurrency (the PR-5 audit gate).

Every object with scratch state (matrices, factors, stencil operators,
solver levels, compiled plans) carries *per-thread* arenas
(:class:`~repro.backends.workspace.ThreadLocalWorkspace`), and the
partition workers of :mod:`repro.par` use a dedicated per-worker slab
arena — caller arenas cross into workers only as read-only inputs (value
casts, staged input vectors) or as disjoint output spans.  These tests
hammer one shared object from several *user* threads at once — each of
which may itself fan its kernels across the worker pool — and require
every concurrent result to be bit-identical to the serial one.  A shared
scratch buffer anywhere in that path shows up as a corrupted result.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import par
from repro.core import F3RConfig, F3RSolver
from repro.matgen import hpcg_operator, hpgmp_matrix, poisson2d
from repro.plans import plan_for
from repro.precision import Precision
from repro.sparse.triangular import TriangularFactor

pytestmark = pytest.mark.tier1

HAMMER_THREADS = 4
ROUNDS = 5


def _hammer(fn, nthreads=HAMMER_THREADS):
    """Run ``fn(thread_index)`` concurrently; re-raise the first failure."""
    barrier = threading.Barrier(nthreads)
    failures = []

    def run(i):
        try:
            barrier.wait(timeout=30)
            fn(i)
        except BaseException as exc:  # noqa: BLE001 - surfaced to the test
            failures.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(nthreads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise failures[0]


class TestConcurrentKernels:
    def test_one_plan_hammered_from_four_threads(self):
        """The satellite's regression gate: one compiled plan, four threads,
        every concurrent apply/residual bit-identical to serial."""
        matrix = poisson2d(32)
        plan = plan_for(matrix, Precision.FP64)
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, matrix.ncols)
        v = rng.uniform(-1, 1, matrix.nrows)
        xb = rng.uniform(-1, 1, (matrix.ncols, 3))
        want_apply = plan.apply(x)
        want_resid = plan.residual(v, x)
        want_batch = plan.apply_batch(xb)

        def work(i):
            # odd threads additionally fan their kernels across the pool
            ctx = par.force_threads(2 + i) if i % 2 else par.force_threads(1)
            with ctx:
                for _ in range(ROUNDS):
                    assert np.array_equal(plan.apply(x), want_apply)
                    assert np.array_equal(plan.residual(v, x), want_resid)
                    assert np.array_equal(plan.apply_batch(xb), want_batch)

        _hammer(work)

    def test_one_solver_hammered_from_four_threads(self):
        """One cached solver under concurrent solves (the dispatcher's
        sharing pattern), with intra-kernel threading active.  Richardson's
        adaptive weights are shared *algorithmic* state (solves on one
        solver are not idempotent with them), so the static-weight strategy
        is pinned — any difference then indicts scratch arenas."""
        matrix = poisson2d(32)
        config = F3RConfig(variant="fp64", backend="fast",
                           adaptive_weight=False)
        solver = F3RSolver(matrix, preconditioner="auto", config=config,
                           nblocks=4)
        rng = np.random.default_rng(8)
        b = rng.uniform(-1, 1, matrix.nrows)
        want = solver.solve(b).x

        def work(i):
            with par.force_threads(1 + i % 3):
                for _ in range(ROUNDS):
                    got = solver.solve(b)
                    assert np.array_equal(got.x, want)

        _hammer(work)

    def test_shared_stencil_and_factor(self):
        from repro.backends import get_backend

        op = hpcg_operator(8)
        lower, _ = get_backend().ilu0_factor(hpgmp_matrix(6))
        factor = TriangularFactor(lower, lower=True, unit_diagonal=True)
        rng = np.random.default_rng(9)
        x = rng.uniform(-1, 1, op.nrows)
        b = rng.uniform(-1, 1, factor.nrows)
        want_apply = op.apply(x)
        want_solve = factor.solve(b)

        def work(i):
            with par.force_threads(1 + i):
                for _ in range(ROUNDS):
                    assert np.array_equal(op.apply(x), want_apply)
                    assert np.array_equal(factor.solve(b), want_solve)

        _hammer(work)

    @pytest.mark.parametrize("precision", ["fp16", "fp64"])
    def test_one_factor_native_sweeps_from_four_threads(self, precision):
        """Four threads race the first native solves of one factor (its
        layout and per-dtype cache builds) and keep solving while the
        interpreter switches threads every few microseconds; every result
        is bit-identical to the serial one from an identical factor."""
        import sys

        from repro.backends import get_backend

        lower, _ = get_backend().ilu0_factor(hpgmp_matrix(6))
        fresh = TriangularFactor(lower, lower=True, unit_diagonal=True)
        factor = fresh.astype(precision)
        serial = fresh.astype(precision)
        rng = np.random.default_rng(10)
        b = rng.uniform(-1, 1, factor.nrows).astype(factor.precision.dtype)
        bb = rng.uniform(-1, 1, (factor.nrows, 3)).astype(b.dtype)
        want, want_batch = serial.solve(b), serial.solve_batch(bb)

        def work(i):
            for _ in range(4 * ROUNDS):
                assert np.array_equal(factor.solve(b), want)
                assert np.array_equal(factor.solve_batch(bb), want_batch)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _hammer(work)
        finally:
            sys.setswitchinterval(interval)

    def test_worker_arenas_are_distinct(self):
        """Partition workers must never share a slab arena instance."""
        from repro.par.kernels import slab_workspace

        seen = []
        lock = threading.Lock()
        barrier = threading.Barrier(4)      # forces 4 concurrent executors

        def record():
            barrier.wait(timeout=30)
            ws = slab_workspace()
            with lock:
                seen.append(id(ws))

        par.run_tasks([record for _ in range(4)])
        assert len(seen) == 4
        assert len(set(seen)) == 4          # one arena per executing thread
