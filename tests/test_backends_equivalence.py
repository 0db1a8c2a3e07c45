"""Backend equivalence: the ``fast`` engine must match the ``reference`` oracle.

Property-based kernel tests sweep fp16/fp32/fp64 storage and adversarial
sparsity (empty rows, empty matrices, single rows), and a tier-2 solver sweep
runs every solver variant end-to-end on both backends.  Tolerances scale with
the compute precision: the fast backend may reorder floating-point sums
(BLAS-2 vs per-column loops) or fuse multiply-adds (scipy's compiled CSR
matvec), so CSR/ELL SpMV and FGMRES agree to last-ulp-level tolerances, while
kernels with identical operation order (triangular solve, ILU(0)) must agree
exactly.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.backends import (
    Workspace,
    available_backends,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)
from repro.core import F3RConfig, solve_f3r
from repro.perf import counting
from repro.precision import Precision
from repro.solvers import RestartedFGMRES, fgmres_cycle
from repro.sparse import COOMatrix, CSRMatrix, SlicedEllMatrix, TriangularFactor

from conftest import native_forced_off

pytestmark = pytest.mark.tier1

# hypothesis sweeps ride in tier 2; under CI=1 the example budget comes from
# the deterministic "ci" profile registered in conftest.py
COMMON = (dict(deadline=None) if os.environ.get("CI", "") == "1"
          else dict(max_examples=25, deadline=None))

finite_floats = st.floats(min_value=-1e2, max_value=1e2, allow_nan=False,
                          allow_infinity=False, width=64)

#: summation-order-sensitive kernels agree to these per-precision tolerances
TOLS = {
    Precision.FP16: dict(rtol=2e-2, atol=2e-2),
    Precision.FP32: dict(rtol=1e-5, atol=1e-6),
    Precision.FP64: dict(rtol=1e-12, atol=1e-13),
}

DTYPES = [Precision.FP16, Precision.FP32, Precision.FP64]


@st.composite
def csr_matrices(draw, max_n=14, with_diagonal=False):
    """Random small square CSR matrices, possibly with empty rows/columns."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    nnz = draw(st.integers(min_value=0, max_value=3 * n))
    rows = draw(hnp.arrays(np.int32, nnz, elements=st.integers(0, n - 1)))
    cols = draw(hnp.arrays(np.int32, nnz, elements=st.integers(0, n - 1)))
    vals = draw(hnp.arrays(np.float64, nnz, elements=finite_floats))
    if with_diagonal:
        diag_rows = np.arange(n, dtype=np.int32)
        diag_vals = draw(hnp.arrays(np.float64, n,
                                    elements=st.floats(min_value=1.0, max_value=10.0)))
        rows = np.concatenate([rows, diag_rows])
        cols = np.concatenate([cols, diag_rows])
        vals = np.concatenate([vals, diag_vals])
    return COOMatrix(rows, cols, vals, (n, n)).to_csr()


def _both_backends(fn):
    """Run ``fn(backend)`` under reference and fast; return the two results."""
    with use_backend("reference"):
        ref = fn(get_backend())
    with use_backend("fast"):
        fast = fn(get_backend())
    return ref, fast


# --------------------------------------------------------------------------- #
class TestSpmvEquivalence:
    @pytest.mark.tier2
    @settings(**COMMON)
    @given(csr_matrices(), st.sampled_from(DTYPES), st.sampled_from(DTYPES),
           st.integers(0, 2**31 - 1))
    def test_csr_matches_reference(self, csr, mat_prec, vec_prec, seed):
        a = csr.astype(mat_prec)
        x = np.random.default_rng(seed).uniform(-1, 1, a.ncols).astype(vec_prec.dtype)
        ref, fast = _both_backends(lambda b: a.matvec(x, record=False))
        # same accumulation precision and order on both engines; the fast
        # engine's fused multiply-adds may differ in the last ulp
        compute = mat_prec if mat_prec.bytes >= vec_prec.bytes else vec_prec
        assert np.allclose(ref.astype(np.float64), fast.astype(np.float64),
                           **TOLS[compute])
        assert ref.dtype == fast.dtype

    @pytest.mark.tier2
    @settings(**COMMON)
    @given(csr_matrices(), st.sampled_from(DTYPES), st.sampled_from([1, 3, 8, 32]),
           st.integers(0, 2**31 - 1))
    def test_ell_matches_reference(self, csr, mat_prec, chunk_size, seed):
        ell = SlicedEllMatrix(csr, chunk_size=chunk_size).astype(mat_prec)
        x = np.random.default_rng(seed).uniform(-1, 1, csr.ncols)
        ref, fast = _both_backends(lambda b: ell.matvec(x, record=False))
        # x is fp64, so the compute precision is fp64 regardless of storage
        assert np.allclose(ref, fast, **TOLS[Precision.FP64])
        assert ref.dtype == fast.dtype

    @pytest.mark.parametrize("mat_prec", DTYPES)
    @pytest.mark.parametrize("vec_prec", DTYPES)
    def test_ell_low_precision_vectors(self, mat_prec, vec_prec):
        rng = np.random.default_rng(11)
        csr = CSRMatrix.from_dense(rng.uniform(-1, 1, (37, 37)) *
                                   (rng.random((37, 37)) < 0.15))
        ell = SlicedEllMatrix(csr, chunk_size=8).astype(mat_prec)
        x = rng.uniform(-1, 1, 37).astype(vec_prec.dtype)
        ref, fast = _both_backends(lambda b: ell.matvec(x, record=False))
        compute = mat_prec if mat_prec.bytes >= vec_prec.bytes else vec_prec
        assert np.allclose(ref.astype(np.float64), fast.astype(np.float64),
                           **TOLS[compute])

    def test_empty_matrix(self):
        csr = CSRMatrix(np.zeros(0), np.zeros(0, np.int32), np.zeros(2, np.int32),
                        (1, 1))
        ell = SlicedEllMatrix(csr, chunk_size=4)
        x = np.zeros(1)
        ref, fast = _both_backends(lambda b: csr.matvec(x, record=False))
        assert np.array_equal(ref, fast)
        ref, fast = _both_backends(lambda b: ell.matvec(x, record=False))
        assert np.array_equal(ref, fast)

    def test_interleaved_empty_rows(self):
        # rows 0, 2, 4 empty; exercises the reduceat empty-segment handling
        dense = np.zeros((5, 5))
        dense[1, [0, 3]] = [2.0, -1.0]
        dense[3, [1, 2, 4]] = [1.0, 4.0, 0.5]
        csr = CSRMatrix.from_dense(dense)
        x = np.arange(1.0, 6.0)
        ref, fast = _both_backends(lambda b: csr.matvec(x, record=False))
        assert np.allclose(ref, fast, **TOLS[Precision.FP64])
        assert np.allclose(fast, dense @ x)
        ell = SlicedEllMatrix(csr, chunk_size=2)
        ref, fast = _both_backends(lambda b: ell.matvec(x, record=False))
        assert np.allclose(ref, fast)


# --------------------------------------------------------------------------- #
class TestTrsvEquivalence:
    @pytest.mark.tier2
    @settings(**COMMON)
    @given(csr_matrices(with_diagonal=True), st.sampled_from(DTYPES),
           st.booleans(), st.booleans(), st.integers(0, 2**31 - 1))
    def test_matches_reference(self, csr, prec, lower, unit_diagonal, seed):
        from repro.sparse import split_triangular

        lo, diag, up = split_triangular(csr)
        tri = lo if lower else up
        if not unit_diagonal:
            from repro.sparse.coo import COOMatrix as COO

            n = csr.nrows
            coo = tri.to_coo()
            tri = COO(np.concatenate([coo.rows, np.arange(n, dtype=np.int32)]),
                      np.concatenate([coo.cols, np.arange(n, dtype=np.int32)]),
                      np.concatenate([coo.values, diag]), (n, n)).to_csr()
        factor_args = dict(lower=lower, unit_diagonal=unit_diagonal)
        b = np.random.default_rng(seed).uniform(-1, 1, csr.nrows)

        def run(backend):
            factor = TriangularFactor(tri.astype(prec), **factor_args)
            return factor.solve(b, record=False)

        ref, fast = _both_backends(run)
        assert np.array_equal(ref, fast, equal_nan=True)

    def test_plan_cached_and_shared_across_astype(self):
        csr = CSRMatrix.from_dense(np.tril(np.arange(1.0, 26.0).reshape(5, 5)) +
                                   4 * np.eye(5))
        factor = TriangularFactor(csr, lower=True)
        b = np.arange(1.0, 6.0)
        # the level plan belongs to the NumPy sweep, the compiled sweep's
        # fallback (its own layout sharing: tests/test_native_kernels.py)
        with use_backend("fast"), native_forced_off():
            factor.solve(b, record=False)
            plan = factor._fast_plan
            assert plan is not None
            factor.solve(b, record=False)
            assert factor._fast_plan is plan
            assert factor.astype(Precision.FP32)._fast_plan is plan


# --------------------------------------------------------------------------- #
class TestIlu0Equivalence:
    @pytest.mark.tier2
    @settings(**COMMON)
    @given(csr_matrices(with_diagonal=True), st.floats(0.9, 1.1))
    def test_factors_match_reference(self, csr, alpha):
        from repro.precond import ilu0_factor

        def run(backend):
            return ilu0_factor(csr, alpha=alpha)

        (l_ref, u_ref), (l_fast, u_fast) = _both_backends(run)
        assert np.array_equal(l_ref.indptr, l_fast.indptr)
        assert np.array_equal(l_ref.indices, l_fast.indices)
        assert np.array_equal(u_ref.indptr, u_fast.indptr)
        assert np.array_equal(u_ref.indices, u_fast.indices)
        # identical elimination order => identical floating-point results
        assert np.array_equal(l_ref.values, l_fast.values)
        assert np.array_equal(u_ref.values, u_fast.values)


# --------------------------------------------------------------------------- #
class TestFgmresEquivalence:
    @pytest.mark.parametrize("prec", DTYPES)
    def test_cycle_matches_reference(self, dd_matrix, prec):
        rng = np.random.default_rng(5)
        b = rng.uniform(-1, 1, dd_matrix.nrows).astype(prec.dtype)
        a = dd_matrix.astype(prec)

        def run(backend):
            z, iters, est = fgmres_cycle(a, b.copy(), None, m=8, vec_prec=prec)
            return z.astype(np.float64), iters

        (z_ref, it_ref), (z_fast, it_fast) = _both_backends(run)
        assert it_ref == it_fast
        scale = max(1.0, float(np.max(np.abs(z_ref))))
        tol = TOLS[prec]
        assert np.allclose(z_ref, z_fast, rtol=50 * tol["rtol"],
                           atol=50 * tol["atol"] * scale)

    def test_workspace_buffers_are_reused(self, dd_matrix):
        b = np.random.default_rng(0).uniform(-1, 1, dd_matrix.nrows)
        ws = Workspace()
        with use_backend("fast"):
            fgmres_cycle(dd_matrix, b, None, m=6, vec_prec=Precision.FP64,
                         workspace=ws)
            basis = ws.get("krylov_basis", (7, dd_matrix.nrows), np.float64)
            fgmres_cycle(dd_matrix, b, None, m=6, vec_prec=Precision.FP64,
                         workspace=ws)
            assert ws.get("krylov_basis", (7, dd_matrix.nrows), np.float64) is basis


# --------------------------------------------------------------------------- #
@pytest.mark.tier2
class TestSolverSweepEquivalence:
    """Tier-2: every solver variant produces equivalent solves on both backends."""

    @pytest.mark.parametrize("variant", ["fp16", "fp32", "fp64"])
    @pytest.mark.parametrize("fixture", ["spd", "nonsym"])
    def test_f3r_variants(self, variant, fixture, spd_matrix, nonsym_matrix,
                          spd_rhs, nonsym_rhs):
        matrix = spd_matrix if fixture == "spd" else nonsym_matrix
        rhs = spd_rhs if fixture == "spd" else nonsym_rhs
        config = F3RConfig(variant=variant, m1=60, m2=4, m3=2, m4=2, tol=1e-7)

        def run(backend):
            return solve_f3r(matrix, rhs, preconditioner="auto", nblocks=4,
                             config=config)

        ref, fast = _both_backends(run)
        assert ref.converged and fast.converged
        assert ref.relative_residual < config.tol
        assert fast.relative_residual < config.tol
        scale = max(1.0, float(np.linalg.norm(ref.x)))
        assert np.linalg.norm(ref.x - fast.x) / scale < 1e-4

    def test_restarted_fgmres(self, dd_matrix, jacobi_precond):
        b = np.random.default_rng(3).uniform(-1, 1, dd_matrix.nrows)

        def run(backend):
            solver = RestartedFGMRES(dd_matrix, jacobi_precond, restart=20, tol=1e-9)
            return solver.solve(b)

        ref, fast = _both_backends(run)
        assert ref.converged and fast.converged
        assert np.allclose(ref.x, fast.x, rtol=1e-5, atol=1e-8)

    def test_config_backend_knob(self, dd_matrix):
        b = np.random.default_rng(4).uniform(-1, 1, dd_matrix.nrows)
        for backend in ("reference", "fast"):
            config = F3RConfig(variant="fp64", m1=40, m2=2, m3=2, m4=1,
                               tol=1e-7, backend=backend)
            result = solve_f3r(dd_matrix, b, preconditioner="jacobi", config=config)
            assert result.converged

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            F3RConfig(backend="cuda-imaginary")


# --------------------------------------------------------------------------- #
class TestCounterParity:
    """Both backends must record identical traffic totals."""

    def _traffic(self, fn, backend):
        with use_backend(backend):
            with counting() as counter:
                fn()
        return counter.summary()

    def test_spmv_traffic_identical(self, spd_matrix, spd_rhs):
        ref = self._traffic(lambda: spd_matrix.matvec(spd_rhs), "reference")
        fast = self._traffic(lambda: spd_matrix.matvec(spd_rhs), "fast")
        assert ref == fast

    def test_trsv_traffic_identical(self, spd_matrix):
        from repro.precond import ilu0_factor

        lower, _ = ilu0_factor(spd_matrix)
        b = np.random.default_rng(0).random(spd_matrix.nrows)

        def run():
            TriangularFactor(lower, lower=True, unit_diagonal=True).solve(b)

        assert self._traffic(run, "reference") == self._traffic(run, "fast")

    def test_fgmres_cycle_traffic_identical(self, dd_matrix):
        b = np.random.default_rng(1).uniform(-1, 1, dd_matrix.nrows)

        def run():
            fgmres_cycle(dd_matrix, b, None, m=5, vec_prec=Precision.FP64)

        ref = self._traffic(run, "reference")
        fast = self._traffic(run, "fast")
        assert ref["kernel_calls"] == fast["kernel_calls"]
        assert ref["bytes"] == fast["bytes"]
        assert ref["flops"] == fast["flops"]


# --------------------------------------------------------------------------- #
class TestBackendRegistry:
    def test_available_and_default(self):
        names = available_backends()
        assert "reference" in names and "fast" in names

    def test_use_backend_restores(self):
        before = get_backend().name
        with use_backend("reference"):
            assert get_backend().name == "reference"
            with use_backend("fast"):
                assert get_backend().name == "fast"
            assert get_backend().name == "reference"
        assert get_backend().name == before

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("imaginary")

    def test_mistyped_env_default_fails_at_import(self):
        import os
        import subprocess
        import sys

        env = dict(os.environ, REPRO_BACKEND="fsat",
                   PYTHONPATH="src" + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run([sys.executable, "-c", "import repro"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode != 0
        assert "REPRO_BACKEND='fsat'" in proc.stderr

    def test_register_custom_backend(self):
        from repro.backends.fast import FastBackend

        class TracingBackend(FastBackend):
            name = "tracing-test"

        register_backend("tracing-test", TracingBackend)
        try:
            with use_backend("tracing-test"):
                assert get_backend().name == "tracing-test"
        finally:
            from repro.backends import _FACTORIES, _INSTANCES

            _FACTORIES.pop("tracing-test", None)
            _INSTANCES.pop("tracing-test", None)

    def test_set_backend_returns_instance(self):
        previous = get_backend().name
        try:
            assert set_backend("reference").name == "reference"
        finally:
            set_backend(previous)

    def test_set_backend_keys_by_registry_name(self):
        # a third-party subclass that forgets to override `name` must still
        # activate under its registered key, not its inherited class name
        from repro.backends import _FACTORIES, _INSTANCES
        from repro.backends.fast import FastBackend

        class ForgotName(FastBackend):
            pass                      # inherits name == "fast"

        register_backend("forgot-name", ForgotName)
        try:
            with use_backend("forgot-name"):
                assert isinstance(get_backend(), ForgotName)
        finally:
            _FACTORIES.pop("forgot-name", None)
            _INSTANCES.pop("forgot-name", None)


class TestCountersDisabled:
    def test_disabled_recording_is_noop(self, spd_matrix, spd_rhs):
        from repro.perf import counters_disabled, counting

        with counting() as counter:
            with counters_disabled():
                spd_matrix.matvec(spd_rhs)
        assert counter.total_bytes == 0
        assert counter.kernel_calls == {}

    def test_disabled_solve_still_converges(self, dd_matrix):
        from repro.perf import counters_disabled

        b = np.random.default_rng(2).uniform(-1, 1, dd_matrix.nrows)
        with counters_disabled():
            result = solve_f3r(dd_matrix, b, preconditioner="jacobi",
                               config=F3RConfig(variant="fp64", m1=40, m2=2,
                                                m3=2, m4=1, tol=1e-7))
        assert result.converged

    def test_explicit_counting_scope_reenables(self, spd_matrix, spd_rhs):
        # REPRO_COUNTERS=0 must not silently zero out an explicit measurement
        from repro.perf import counters_disabled, counters_enabled, counting

        with counters_disabled():
            with counting() as counter:
                spd_matrix.matvec(spd_rhs)
            assert not counters_enabled()   # restored after the scope
        assert counter.total_bytes > 0
        assert counter.calls_for("spmv") == 1

    def test_disable_is_thread_local(self, spd_matrix, spd_rhs):
        import threading

        from repro.perf import counters_disabled, counting

        recorded = {}
        gate_disabled = threading.Event()
        gate_measured = threading.Event()

        def disabler():
            with counters_disabled():
                gate_disabled.set()
                gate_measured.wait(timeout=10)

        def measurer():
            gate_disabled.wait(timeout=10)
            with counting() as counter:
                spd_matrix.matvec(spd_rhs)
            recorded["bytes"] = counter.total_bytes
            gate_measured.set()

        threads = [threading.Thread(target=disabler), threading.Thread(target=measurer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # thread B's measurement must be unaffected by thread A's disable
        assert recorded["bytes"] > 0


class TestConcurrentSharedMatrix:
    def test_parallel_matvecs_on_shared_matrix_are_correct(self):
        # per-thread scratch arenas: two threads hammering the same matrix
        # (fp16 compute exercises the shared product-buffer path) must not
        # interleave results
        import threading

        rng = np.random.default_rng(9)
        dense = rng.uniform(-1, 1, (64, 64)) * (rng.random((64, 64)) < 0.2)
        csr = CSRMatrix.from_dense(dense).astype(Precision.FP16)
        ell = SlicedEllMatrix(CSRMatrix.from_dense(dense), chunk_size=8)
        x16 = rng.uniform(-1, 1, 64).astype(np.float16)
        x64 = rng.uniform(-1, 1, 64)
        with use_backend("fast"):
            expected_csr = csr.matvec(x16, record=False)
            expected_ell = ell.matvec(x64, record=False)
        errors = []

        def worker():
            try:
                with use_backend("fast"):
                    for _ in range(200):
                        if not np.array_equal(csr.matvec(x16, record=False),
                                              expected_csr):
                            raise AssertionError("csr race")
                        if not np.array_equal(ell.matvec(x64, record=False),
                                              expected_ell):
                            raise AssertionError("ell race")
            except Exception as exc:  # propagate to the main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors


class TestConcurrentSharedSolver:
    def test_parallel_solves_on_shared_solver_are_correct(self, dd_matrix,
                                                          jacobi_precond):
        import threading

        solver = RestartedFGMRES(dd_matrix, jacobi_precond, restart=20, tol=1e-9)
        rngs = [np.random.default_rng(s) for s in range(4)]
        rhss = [r.uniform(-1, 1, dd_matrix.nrows) for r in rngs]
        expected = [solver.solve(b).x for b in rhss]
        errors = []

        def worker(i):
            try:
                for _ in range(5):
                    result = solver.solve(rhss[i])
                    if not np.allclose(result.x, expected[i], rtol=1e-8, atol=1e-10):
                        raise AssertionError(f"solver race on rhs {i}")
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors


class TestScratchSerializability:
    def test_used_objects_pickle_and_deepcopy(self):
        # lazily attached scratch state must not break pickling/deepcopying
        import copy
        import pickle

        dense = np.diag(np.arange(1.0, 9.0)) + np.tri(8, k=-1)
        csr = CSRMatrix.from_dense(dense)
        ell = SlicedEllMatrix(csr, chunk_size=4)
        factor = TriangularFactor(csr, lower=True)
        x = np.arange(1.0, 9.0)
        with use_backend("fast"):
            csr.matvec(x, record=False)
            ell.matvec(x, record=False)
            factor.solve(x, record=False)
            for obj in (csr, ell, factor):
                clone = pickle.loads(pickle.dumps(obj))
                deep = copy.deepcopy(obj)
                for other in (clone, deep):
                    if hasattr(other, "matvec"):
                        assert np.array_equal(other.matvec(x, record=False),
                                              obj.matvec(x, record=False))
                    else:
                        assert np.array_equal(other.solve(x, record=False),
                                              obj.solve(x, record=False))


class TestConfigBackendScopesConstruction:
    def test_preconditioner_built_on_configured_backend(self, dd_matrix):
        from repro.backends import _FACTORIES, _INSTANCES
        from repro.backends.reference import ReferenceBackend
        from repro.core import F3RSolver

        calls = []

        class TracingReference(ReferenceBackend):
            name = "tracing-ref"

            def ilu0_factor(self, matrix, alpha=1.0, breakdown_shift=1e-12):
                calls.append("ilu0")
                return super().ilu0_factor(matrix, alpha, breakdown_shift)

        register_backend("tracing-ref", TracingReference)
        try:
            with use_backend("fast"):      # process default differs from config
                F3RSolver(dd_matrix, preconditioner="auto",
                          config=F3RConfig(variant="fp64", backend="tracing-ref"))
            assert calls, "construction did not run on the configured backend"
        finally:
            _FACTORIES.pop("tracing-ref", None)
            _INSTANCES.pop("tracing-ref", None)


# --------------------------------------------------------------------------- #
def _looped_matvec(op, x: np.ndarray, record: bool = False) -> np.ndarray:
    """Column-by-column oracle for any operator with a ``matvec`` method."""
    return np.stack([op.matvec(np.ascontiguousarray(x[:, j]), record=record)
                     for j in range(x.shape[1])], axis=1)


class TestBatchedKernelEquivalence:
    """Batched multi-RHS kernels must equal the column-by-column loop.

    On ``reference`` the batched entry points *are* the loop (the base-class
    oracle); on ``fast`` they are vectorized SpMM / batched-trsm kernels, so
    these sweeps are what licenses using them interchangeably.  SpMM may fuse
    multiply-adds (scipy path), so it matches to compute-precision tolerance;
    the batched triangular solve performs the identical operation order per
    column and must match exactly.
    """

    @pytest.mark.tier2
    @settings(**COMMON)
    @given(csr_matrices(), st.sampled_from(DTYPES), st.sampled_from(DTYPES),
           st.integers(1, 6), st.integers(0, 2**31 - 1))
    def test_spmm_csr_matches_looped(self, csr, mat_prec, vec_prec, k, seed):
        a = csr.astype(mat_prec)
        x = (np.random.default_rng(seed)
             .uniform(-1, 1, (a.ncols, k)).astype(vec_prec.dtype))
        compute = mat_prec if mat_prec.bytes >= vec_prec.bytes else vec_prec
        for backend in ("reference", "fast"):
            with use_backend(backend):
                batched = a.matmat(x, record=False)
                looped = _looped_matvec(a, x)
            assert batched.shape == (a.nrows, k)
            assert batched.dtype == looped.dtype
            assert np.allclose(batched.astype(np.float64),
                               looped.astype(np.float64), **TOLS[compute])

    @pytest.mark.tier2
    @settings(**COMMON)
    @given(csr_matrices(), st.sampled_from(DTYPES), st.sampled_from([1, 3, 8, 32]),
           st.integers(1, 6), st.integers(0, 2**31 - 1))
    def test_spmm_ell_matches_looped(self, csr, mat_prec, chunk_size, k, seed):
        ell = SlicedEllMatrix(csr, chunk_size=chunk_size).astype(mat_prec)
        x = np.random.default_rng(seed).uniform(-1, 1, (csr.ncols, k))
        for backend in ("reference", "fast"):
            with use_backend(backend):
                batched = ell.matmat(x, record=False)
                looped = _looped_matvec(ell, x)
            assert np.allclose(batched, looped, **TOLS[Precision.FP64])
            assert batched.dtype == looped.dtype

    @pytest.mark.tier2
    @settings(**COMMON)
    @given(csr_matrices(with_diagonal=True), st.sampled_from(DTYPES),
           st.booleans(), st.booleans(), st.integers(1, 6),
           st.integers(0, 2**31 - 1))
    def test_trsm_matches_looped_trsv(self, csr, prec, lower, unit_diagonal, k,
                                      seed):
        from repro.sparse import split_triangular

        lo, diag, up = split_triangular(csr)
        tri = lo if lower else up
        if not unit_diagonal:
            n = csr.nrows
            coo = tri.to_coo()
            tri = COOMatrix(np.concatenate([coo.rows, np.arange(n, dtype=np.int32)]),
                            np.concatenate([coo.cols, np.arange(n, dtype=np.int32)]),
                            np.concatenate([coo.values, diag]), (n, n)).to_csr()
        b = np.random.default_rng(seed).uniform(-1, 1, (csr.nrows, k))

        results = {}
        for backend in ("reference", "fast"):
            with use_backend(backend):
                factor = TriangularFactor(tri.astype(prec), lower=lower,
                                          unit_diagonal=unit_diagonal)
                batched = factor.solve_batch(b, record=False)
                looped = np.stack([factor.solve(np.ascontiguousarray(b[:, j]),
                                                record=False)
                                   for j in range(k)], axis=1)
            # identical per-column operation order => exact equality
            assert np.array_equal(batched, looped, equal_nan=True), backend
            results[backend] = batched
        assert np.array_equal(results["reference"], results["fast"], equal_nan=True)

    # -- deterministic tier-1 coverage across every precision pair ---------- #
    @pytest.mark.parametrize("mat_prec", DTYPES)
    @pytest.mark.parametrize("vec_prec", DTYPES)
    def test_batched_kernels_fixed_matrix(self, mat_prec, vec_prec):
        from repro.precond import ilu0_factor

        rng = np.random.default_rng(17)
        dense = rng.uniform(-1, 1, (41, 41)) * (rng.random((41, 41)) < 0.2)
        np.fill_diagonal(dense, 4.0 + rng.random(41))
        csr = CSRMatrix.from_dense(dense)
        a = csr.astype(mat_prec)
        ell = SlicedEllMatrix(csr, chunk_size=8).astype(mat_prec)
        x = rng.uniform(-1, 1, (41, 5)).astype(vec_prec.dtype)
        compute = mat_prec if mat_prec.bytes >= vec_prec.bytes else vec_prec
        lower, _ = ilu0_factor(csr)

        for backend in ("reference", "fast"):
            with use_backend(backend):
                assert np.allclose(a.matmat(x, record=False).astype(np.float64),
                                   _looped_matvec(a, x).astype(np.float64),
                                   **TOLS[compute])
                assert np.allclose(ell.matmat(x, record=False),
                                   _looped_matvec(ell, x), **TOLS[compute])
                factor = TriangularFactor(lower.astype(mat_prec), lower=True,
                                          unit_diagonal=True)
                assert np.array_equal(
                    factor.solve_batch(x, record=False),
                    np.stack([factor.solve(np.ascontiguousarray(x[:, j]),
                                           record=False) for j in range(5)],
                             axis=1),
                    equal_nan=True)

    def test_empty_and_single_column_batches(self):
        csr = CSRMatrix.from_dense(np.diag(np.arange(1.0, 6.0)) + np.tri(5, k=-1))
        x1 = np.arange(1.0, 6.0)[:, None]
        for backend in ("reference", "fast"):
            with use_backend(backend):
                batched = csr.matmat(x1, record=False)
                assert np.array_equal(batched[:, 0],
                                      csr.matvec(x1[:, 0], record=False))

    def test_matmul_operator_dispatches_on_ndim(self):
        csr = CSRMatrix.from_dense(np.eye(4) * 2.0)
        x = np.arange(4.0)
        assert (csr @ x).shape == (4,)
        assert (csr @ np.stack([x, x], axis=1)).shape == (4, 2)
        ell = SlicedEllMatrix(csr, chunk_size=2)
        assert (ell @ x).shape == (4,)
        assert (ell @ np.stack([x, x], axis=1)).shape == (4, 2)

    def test_shape_validation(self):
        csr = CSRMatrix.from_dense(np.eye(4))
        with pytest.raises(ValueError, match="dimension mismatch"):
            csr.matmat(np.zeros((5, 2)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            csr.matmat(np.zeros(4))


class TestBatchedCounterParity:
    """Per-column counter parity: a batched kernel records exactly what the
    column-by-column loop records, on both engines."""

    def _traffic(self, fn, backend):
        with use_backend(backend):
            with counting() as counter:
                fn()
        return counter.summary()

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_spmm_parity(self, spd_matrix, backend):
        x = np.random.default_rng(5).uniform(-1, 1, (spd_matrix.ncols, 4))
        looped = self._traffic(lambda: _looped_matvec(spd_matrix, x, record=True),
                               backend)
        batched = self._traffic(lambda: spd_matrix.matmat(x), backend)
        assert looped == batched

    @pytest.mark.parametrize("backend", ["reference", "fast"])
    def test_trsm_parity(self, spd_matrix, backend):
        from repro.precond import ilu0_factor

        lower, _ = ilu0_factor(spd_matrix)
        b = np.random.default_rng(6).uniform(-1, 1, (spd_matrix.nrows, 4))
        factor = TriangularFactor(lower, lower=True, unit_diagonal=True)
        looped = self._traffic(
            lambda: [factor.solve(np.ascontiguousarray(b[:, j]))
                     for j in range(4)], backend)
        batched = self._traffic(lambda: factor.solve_batch(b), backend)
        assert looped == batched

    def test_spmm_parity_across_backends(self, spd_matrix):
        x = np.random.default_rng(7).uniform(-1, 1, (spd_matrix.ncols, 3))
        ref = self._traffic(lambda: spd_matrix.matmat(x), "reference")
        fast = self._traffic(lambda: spd_matrix.matmat(x), "fast")
        assert ref == fast

    def test_precond_apply_batch_counts_k_applications(self, spd_matrix):
        from repro.precond import BlockJacobiILU0

        precond = BlockJacobiILU0(spd_matrix, nblocks=4)
        r = np.random.default_rng(8).uniform(-1, 1, (spd_matrix.nrows, 6))
        before = precond.num_applications
        precond.apply_batch(r)
        assert precond.num_applications - before == 6
