"""Compiled kernels of the ``fast`` engine (``repro.backends.native``).

The ``fast`` engine runs ``trsv``/``trsm``, the CSR products and fused
residuals (``spmv_csr``, ``spmm_csr``, ``spmv_axpy``, ``spmm_axpy``) and
the fp16 vector updates (``residual_update``, ``weighted_update`` and its
batched form) through compiled C when the library builds, loads and passes
its self-test, and through its NumPy/scipy paths otherwise.  Both must
return the same bits; the triangular solves must also equal the
``reference`` oracle's, and the fp32/fp64 products scipy's
``csr_matvec``/``csr_matvecs`` called directly:

* every precision pair, each ``out_precision``, row lengths 0 to 139
  (every branch of numpy's pairwise sum), lower/upper and unit/non-unit
  triangular factors;
* signed zeros, fp16 subnormals, inf/NaN propagation, ``n = 0``, batches of
  ``k = 0, 1, 4`` columns, non-contiguous inputs and ``REPRO_THREADS`` of
  1, 2 and 4;
* counter parity, end-to-end F3R solves (single and batched), the import
  graph of a direct solve, pickling, the build cache and every fallback
  reason.

The NumPy/scipy paths are forced with ``native_forced_off`` (a test hook
that swaps the engine's library for one stuck in the fallback state).
"""

from __future__ import annotations

import contextlib
import copy
import json
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import F3RConfig, F3RSolver
from repro.backends import get_backend, use_backend
from repro.backends.native import Library, NativeCache, default_cache_dirs
from repro.matgen import hpcg_matrix, hpcg_operator
from repro.par import par_state
from repro.par.pool import force_threads
from repro.perf import counting
from repro.precision import Precision, precision_of_dtype, promote
from repro.sparse import CSRMatrix, TriangularFactor, diagonal_scaling

from conftest import native_forced_off

pytestmark = pytest.mark.tier1

SRC = Path(__file__).resolve().parent.parent / "src"
PRECS = [Precision.FP16, Precision.FP32, Precision.FP64]
#: off-diagonal counts cycled over the rows (capped by the row's position)
ROW_COUNTS = (0, 1, 2, 3, 4, 5, 7, 8, 9, 12, 17, 40, 139)


def _cpu_has_f16c() -> bool:
    try:
        return " f16c" in Path("/proc/cpuinfo").read_text()
    except OSError:
        return False


def _native_state() -> str:
    factor, b = _factor(True, False, Precision.FP64, n=12)
    with use_backend("fast"):
        factor.solve(b[:, 0], record=False)
    return get_backend("fast").native_status()["state"]


NATIVE_EXPECTED = shutil.which("cc") is not None and _cpu_has_f16c()
requires_native = pytest.mark.skipif(not NATIVE_EXPECTED,
                                     reason="no cc or no F16C on this host")


def _factor(lower: bool, unit: bool, prec: Precision, n: int = 180, seed: int = 0,
            counts=ROW_COUNTS):
    """A diagonally dominant triangular factor whose rows cycle through
    ``counts`` off-diagonals, with stored ±0 entries and values spanning
    fp16's subnormal range; plus a (n, 3) right-hand side block."""
    rng = np.random.default_rng(seed)
    rows, cols, vals = [], [], []
    for i in range(n):
        avail = i if lower else n - 1 - i
        m = min(counts[i % len(counts)], avail)
        pool = np.arange(i) if lower else np.arange(i + 1, n)
        picked = np.sort(rng.choice(pool, size=m, replace=False))
        v = rng.uniform(-1, 1, m) * 10.0 ** rng.uniform(-7, 0, m) / max(m, 1)
        v[rng.random(m) < 0.08] = 0.0
        v[rng.random(m) < 0.08] = -0.0
        rows += [i] * (m + 1)
        cols += picked.tolist() + [i]
        vals += v.tolist() + [rng.choice([-1, 1]) * rng.uniform(1.0, 3.0)]
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], np.asarray(vals, dtype=np.float64)[order]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    matrix = CSRMatrix(vals.astype(np.float64), cols.astype(np.int32), indptr,
                       (n, n)).astype(prec)
    b = rng.uniform(-1, 1, (n, 3)) * 10.0 ** rng.uniform(-6, 1, (n, 3))
    b[rng.random((n, 3)) < 0.05] = -0.0
    return TriangularFactor(matrix, lower=lower, unit_diagonal=unit), b


def _three_ways(factor, b, out_precision=None, skip_reference=False):
    """``(native, numpy, reference)`` results of ``trsv`` (1-D ``b``) or
    ``trsm`` (2-D ``b``), each on a fresh copy of the factor."""
    def run():
        fresh = factor.astype(factor.precision)
        if b.ndim == 1:
            return fresh, fresh.solve(b, out_precision=out_precision, record=False)
        return fresh, fresh.solve_batch(b, out_precision=out_precision,
                                        record=False)

    with use_backend("fast"):
        solved, native = run()
        # the native sweep really ran (its per-dtype entry exists)
        assert bool(solved._native) == NATIVE_EXPECTED
        with native_forced_off():
            _, numpy_path = run()
    if skip_reference:
        return native, numpy_path, None
    with use_backend("reference"):
        _, reference = run()
    return native, numpy_path, reference


def _assert_bits(results):
    native, numpy_path, reference = results
    assert native.dtype == numpy_path.dtype == reference.dtype
    assert native.shape == numpy_path.shape == reference.shape
    assert native.tobytes() == numpy_path.tobytes()
    assert native.tobytes() == reference.tobytes()


# --------------------------------------------------------------------------- #
class TestLoad:
    def test_loads_where_cc_and_f16c_exist(self):
        state = _native_state()
        if NATIVE_EXPECTED:
            assert state == "ready", get_backend("fast").native_status()
        else:
            assert state == "fallback"

    @requires_native
    def test_library_cached_under_xdg_cache_home(self):
        path = Path(get_backend("fast").native_status()["path"])
        assert path.name.startswith("kernels-") and path.suffix == ".so"
        assert path.parent.name == "native"


# --------------------------------------------------------------------------- #
class TestBitIdentity:
    @pytest.mark.parametrize("out", [None, "fp16", "fp32", "fp64"])
    @pytest.mark.parametrize("vec_prec", PRECS, ids=lambda p: f"vec-{p.value}")
    @pytest.mark.parametrize("mat_prec", PRECS, ids=lambda p: f"mat-{p.value}")
    def test_precision_pairs(self, mat_prec, vec_prec, out):
        for lower in (True, False):
            for unit in (True, False):
                factor, b = _factor(lower, unit, mat_prec, seed=int(lower) + 2 * unit)
                b = b.astype(vec_prec.dtype)
                _assert_bits(_three_ways(factor, b[:, 0], out))
                _assert_bits(_three_ways(factor, b, out))

    @pytest.mark.parametrize("prec", PRECS, ids=lambda p: p.value)
    @pytest.mark.parametrize("count", [1, 2, 7, 8, 9, 16, 17, 128, 129, 130, 139])
    def test_single_row_lengths(self, prec, count):
        """One dense row per length: the sequential, 8-accumulator and
        recursive branches of numpy's pairwise sum, at their edges."""
        factor, b = _factor(True, False, prec, n=count + 1, seed=count,
                            counts=(count,))
        b = b.astype(prec.dtype)
        _assert_bits(_three_ways(factor, b[:, 0]))
        _assert_bits(_three_ways(factor, b))

    @pytest.mark.parametrize("prec", PRECS, ids=lambda p: p.value)
    def test_signed_zeros(self, prec):
        factor, b = _factor(True, True, prec, seed=5)
        zeros = np.zeros_like(b)
        zeros[::2] = -0.0
        results = _three_ways(factor, zeros.astype(prec.dtype))
        _assert_bits(results)
        assert np.signbit(results[0]).any() and not np.signbit(results[0]).all()

    def test_fp16_subnormals(self):
        factor, b = _factor(False, False, Precision.FP16, seed=6)
        tiny = (b * 1e-5).astype(np.float16)
        assert (np.abs(tiny) < np.finfo(np.float16).tiny).any()
        assert (tiny != 0).any()
        _assert_bits(_three_ways(factor, tiny[:, 0]))
        _assert_bits(_three_ways(factor, tiny))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("prec", PRECS, ids=lambda p: p.value)
    def test_inf_nan_propagation(self, prec):
        factor, b = _factor(True, False, prec, seed=7)
        b = b.astype(prec.dtype)
        b[3, 0] = np.nan
        b[10, 1] = np.inf
        b[11, 1] = -np.inf
        b[20, 2] = np.finfo(prec.dtype).max   # overflows in the products
        for rhs in (b[:, 0].copy(), b):
            results = _three_ways(factor, rhs)
            _assert_bits(results)
            assert np.isnan(results[0]).sum() > 1   # NaN spread to dependents

    def test_empty_factor(self):
        matrix = CSRMatrix(np.zeros(0), np.zeros(0, dtype=np.int32),
                           np.zeros(1, dtype=np.int32), (0, 0))
        factor = TriangularFactor(matrix, lower=True)
        _assert_bits(_three_ways(factor, np.zeros(0)))
        _assert_bits(_three_ways(factor, np.zeros((0, 2))))

    def test_narrow_batches(self):
        factor, b = _factor(False, True, Precision.FP16, seed=8)
        one = b[:, :1].astype(np.float16)
        _assert_bits(_three_ways(factor, one))
        assert (_three_ways(factor, one)[0][:, 0].tobytes()
                == _three_ways(factor, one[:, 0].copy())[0].tobytes())
        # k = 0 (the reference oracle's column loop has nothing to stack)
        native, numpy_path, _ = _three_ways(factor, one[:, :0], skip_reference=True)
        assert native.shape == numpy_path.shape == (factor.nrows, 0)
        assert native.dtype == numpy_path.dtype == np.float16

    def test_noncontiguous_rhs(self):
        factor, b = _factor(True, False, Precision.FP32, seed=9)
        b = np.asfortranarray(b.astype(np.float32))
        _assert_bits(_three_ways(factor, b[:, 1]))
        _assert_bits(_three_ways(factor, b))

    def test_wrong_length_rejected(self):
        factor, b = _factor(True, False, Precision.FP64, n=20)
        with use_backend("fast"), pytest.raises((ValueError, IndexError)):
            factor.solve(np.ones(21))


# --------------------------------------------------------------------------- #
class TestCounters:
    @pytest.mark.parametrize("prec", PRECS, ids=lambda p: p.value)
    def test_counter_parity(self, prec):
        factor, b = _factor(False, False, prec, seed=10)
        b = b.astype(prec.dtype)

        def traffic(backend, forced_off=False):
            with use_backend(backend), counting() as counter:
                if forced_off:
                    with native_forced_off():
                        factor.solve(b[:, 0])
                        factor.solve_batch(b)
                else:
                    factor.solve(b[:, 0])
                    factor.solve_batch(b)
            return counter.summary()

        native = traffic("fast")
        assert native == traffic("fast", forced_off=True)
        assert native == traffic("reference")


# --------------------------------------------------------------------------- #
class TestLayoutCacheAndPickling:
    @requires_native
    def test_layout_shared_across_astype_values_per_dtype(self):
        factor, b = _factor(True, False, Precision.FP64, seed=11)
        with use_backend("fast"):
            factor.solve(b[:, 0], record=False)
            factor.solve(b[:, 0].astype(np.float16), record=False)   # fp64 compute
            assert list(factor._native) == [np.dtype(np.float64)]
            layout = factor._native.layout
            half = factor.astype(Precision.FP16)
            assert half._native.layout is layout
            assert not half._native
            half.solve(b[:, 0].astype(np.float16), record=False)
            assert half._native.layout is layout
            assert list(half._native) == [np.dtype(np.float16)]

    @requires_native
    def test_pickle_and_deepcopy_drop_native_state(self):
        factor, b = _factor(False, True, Precision.FP16, seed=12)
        rhs = b.astype(np.float16)
        with use_backend("fast"):
            want = factor.solve(rhs[:, 0], record=False)
            factor.solve_batch(rhs, record=False)
            assert factor._native
            blob = pickle.dumps(factor)
            assert b"ctypes" not in blob and b"Sweep" not in blob
            for clone in (pickle.loads(blob), copy.deepcopy(factor)):
                assert isinstance(clone._native, NativeCache)
                assert not clone._native and clone._native.layout is None
                assert clone.solve(rhs[:, 0], record=False).tobytes() == want.tobytes()
                assert clone._native

    def test_solver_pickles_after_native_solves(self):
        matrix, _ = diagonal_scaling(hpcg_matrix(6))
        rhs = np.ones(matrix.nrows)
        with use_backend("fast"):
            solver = F3RSolver(matrix, preconditioner="block-ic0", nblocks=4,
                               config=F3RConfig())
            solver.solve(rhs)
            # copies carry the adapted Richardson weights: compare the next
            # solve of each copy with the original's next solve
            clone = pickle.loads(pickle.dumps(solver))
            deep = copy.deepcopy(solver)
            want = solver.solve(rhs).x
            assert clone.solve(rhs).x.tobytes() == want.tobytes()
            assert deep.solve(rhs).x.tobytes() == want.tobytes()

    def test_shm_payload_carries_no_native_state(self):
        from repro.par.shm import operator_payload

        matrix, _ = diagonal_scaling(hpcg_matrix(6))
        with use_backend("fast"):
            F3RSolver(matrix, preconditioner="block-ic0", nblocks=4,
                      config=F3RConfig()).solve(np.ones(matrix.nrows))
        arrays, meta = operator_payload(matrix)
        assert all(isinstance(a, np.ndarray) and a.dtype != object
                   for a in arrays.values())
        assert b"ctypes" not in pickle.dumps(meta)

    @requires_native
    def test_preconditioner_pickles_after_native_solves(self):
        from repro.precond import BlockJacobiIC0

        matrix, _ = diagonal_scaling(hpcg_matrix(6))
        with use_backend("fast"):
            precond = BlockJacobiIC0(matrix, nblocks=4)
            r = np.random.default_rng(13).uniform(-1, 1, matrix.nrows)
            want = precond.apply(r)
            blob = pickle.dumps(precond)
            assert b"ctypes" not in blob
            assert pickle.loads(blob).apply(r).tobytes() == want.tobytes()


# --------------------------------------------------------------------------- #
class TestFallbacks:
    """Every fallback reason: no exception, identical bits."""

    def _swap(self, monkeypatch, **kwargs):
        backend = get_backend("fast")
        lib = Library(backend._sweep_levels, **kwargs)
        monkeypatch.setattr(backend, "_native", lib)
        return lib

    def _check_fallback(self, lib, reason):
        factor, b = _factor(True, False, Precision.FP16, seed=14)
        rhs = b.astype(np.float16)
        with use_backend("fast"):
            got = factor.solve(rhs[:, 0], record=False)
            got_batch = factor.solve_batch(rhs, record=False)
        assert lib.status()["state"] == "fallback"
        assert lib.status()["reason"] == reason
        assert not factor._native
        with native_forced_off():
            want = factor.astype(Precision.FP16).solve(rhs[:, 0], record=False)
        assert got.tobytes() == want.tobytes()
        with use_backend("reference"):
            want_batch = factor.solve_batch(rhs, record=False)
        assert got_batch.tobytes() == want_batch.tobytes()

    def test_missing_compiler(self, monkeypatch, tmp_path):
        lib = self._swap(monkeypatch, cc=str(tmp_path / "no-such-cc"),
                         cache_dirs=[tmp_path / "cache"])
        self._check_fallback(lib, "no_compiler")

    def test_unwritable_cache_dirs(self, monkeypatch, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        lib = self._swap(monkeypatch, cache_dirs=[blocker / "a", blocker / "b"])
        self._check_fallback(lib, "cache_unwritable")

    @requires_native
    def test_first_unwritable_dir_falls_through_to_the_next(self, monkeypatch,
                                                            tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        lib = self._swap(monkeypatch, cache_dirs=[blocker / "a", tmp_path / "b"])
        factor, b = _factor(True, False, Precision.FP64, n=30)
        with use_backend("fast"):
            factor.solve(b[:, 0], record=False)
        assert lib.status()["state"] == "ready"
        assert Path(lib.status()["path"]).parent == tmp_path / "b"

    def test_shared_writable_dir_is_not_trusted(self, monkeypatch, tmp_path):
        shared = tmp_path / "shared"
        shared.mkdir()
        shared.chmod(0o777)
        lib = self._swap(monkeypatch, cache_dirs=[shared])
        self._check_fallback(lib, "cache_unwritable")

    def test_failed_build(self, monkeypatch, tmp_path):
        fake = tmp_path / "fake-cc"
        fake.write_text("#!/bin/sh\n[ \"$1\" = --version ] && echo fake-cc 1.0 "
                        "&& exit 0\nexit 1\n")
        fake.chmod(0o755)
        lib = self._swap(monkeypatch, cc=str(fake), cache_dirs=[tmp_path / "c"])
        self._check_fallback(lib, "build_failed")
        assert not list((tmp_path / "c").iterdir())   # no temp file left

    def test_unloadable_library(self, monkeypatch, tmp_path):
        fake = tmp_path / "fake-cc"
        fake.write_text("#!/bin/sh\n[ \"$1\" = --version ] && echo fake-cc 2.0 "
                        "&& exit 0\nwhile [ $# -gt 0 ]; do [ \"$1\" = -o ] && "
                        "echo garbage > \"$2\"; shift; done\nexit 0\n")
        fake.chmod(0o755)
        lib = self._swap(monkeypatch, cc=str(fake), cache_dirs=[tmp_path / "c"])
        self._check_fallback(lib, "load_failed")

    def test_default_cache_dirs(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setenv("REPRO_ARTIFACTS", str(tmp_path / "artifacts"))
        first, second = default_cache_dirs()
        assert first == tmp_path / "repro" / "native"
        assert second.parent == Path(tempfile.gettempdir())
        assert second.name.startswith("repro-native-")

    @requires_native
    def test_selftest_mismatch(self, monkeypatch, tmp_path):
        backend = get_backend("fast")

        def skewed(factor, b):
            x = backend._sweep_levels(factor, b)
            x.flat[-1] = np.nextafter(x.flat[-1], np.inf)
            return x

        lib = Library(skewed, cache_dirs=[tmp_path])
        monkeypatch.setattr(backend, "_native", lib)
        self._check_fallback(lib, "selftest_mismatch")

    def test_forced_off_hook(self, native_off):
        self._check_fallback(get_backend("fast")._native, "forced_off")


# --------------------------------------------------------------------------- #
class TestProcesses:
    CHILD = textwrap.dedent("""
        import json, os, sys, time
        import numpy as np
        from repro.backends import get_backend
        from repro.matgen import hpcg_matrix
        from repro.sparse import TriangularFactor
        go = sys.argv[1]
        lower, _ = get_backend("fast").ilu0_factor(hpcg_matrix(5))
        factor = TriangularFactor(lower.astype("fp16"), lower=True,
                                  unit_diagonal=True)
        b = np.linspace(-1, 1, factor.nrows).astype(np.float16)
        deadline = time.time() + 60
        while not os.path.exists(go) and time.time() < deadline:
            time.sleep(0.001)
        x = factor.solve(b)
        print(json.dumps({**get_backend("fast").native_status(),
                          "x": x.tobytes().hex()}))
    """)

    def _spawn(self, tmp_path, args=(), code=None):
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path / "xdg"),
               "PYTHONPATH": str(SRC)}
        return subprocess.Popen([sys.executable, "-c", code or self.CHILD, *args],
                                env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)

    @requires_native
    def test_two_processes_race_the_first_build(self, tmp_path):
        go = tmp_path / "go"
        children = [self._spawn(tmp_path, [str(go)]) for _ in range(2)]
        go.write_text("")
        outs = []
        for child in children:
            out, err = child.communicate(timeout=120)
            assert child.returncode == 0, err
            outs.append(json.loads(out.strip().splitlines()[-1]))
        assert [o["state"] for o in outs] == ["ready", "ready"]
        assert outs[0]["path"] == outs[1]["path"]
        assert outs[0]["x"] == outs[1]["x"]
        cache = tmp_path / "xdg" / "repro" / "native"
        assert [p.name for p in cache.iterdir()] == [Path(outs[0]["path"]).name]

    def test_matrix_free_jacobi_solve_builds_nothing(self, monkeypatch, tmp_path):
        backend = get_backend("fast")
        lib = Library(backend._sweep_levels, cache_dirs=[tmp_path / "cache"])
        monkeypatch.setattr(backend, "_native", lib)
        op = hpcg_operator(6)
        with use_backend("fast"):
            result = F3RSolver(op, preconditioner="auto").solve(np.ones(op.nrows))
        assert result.converged
        assert lib.status()["state"] == "unloaded"
        assert not (tmp_path / "cache").exists()


# --------------------------------------------------------------------------- #
class TestEndToEnd:
    def test_f3r_hpcg12_block_ic0_same_bytes(self):
        """Warm default-config fp16 F3R solve on diagonally scaled HPCG 12^3
        with 16-block IC(0): identical ``x`` with native on and forced off."""
        matrix, _ = diagonal_scaling(hpcg_matrix(12))
        rhs = np.random.default_rng(15).uniform(-1, 1, matrix.nrows)

        def warm_solve():
            solver = F3RSolver(matrix, preconditioner="block-ic0", nblocks=16,
                               config=F3RConfig())
            solver.solve(np.ones(matrix.nrows))
            return solver.solve(rhs)

        with use_backend("fast"):
            native = warm_solve()
            with native_forced_off():
                numpy_path = warm_solve()
        assert native.converged
        assert native.x.tobytes() == numpy_path.x.tobytes()
        assert native.iterations == numpy_path.iterations

    def test_f3r_batch_hpcg8_auto_same_bytes(self):
        """Warm k=4 ``solve_batch`` on diagonally scaled HPCG 8^3 with the
        ``"auto"`` preconditioner: batched SpMM, residuals and per-column
        weighted updates give identical ``x`` with native on and off."""
        matrix, _ = diagonal_scaling(hpcg_matrix(8))
        rhs = np.random.default_rng(16).uniform(-1, 1, (matrix.nrows, 4))

        def warm_batch():
            solver = F3RSolver(matrix, preconditioner="auto", config=F3RConfig())
            solver.solve_batch(np.ones((matrix.nrows, 4)))
            return solver.solve_batch(rhs)

        with use_backend("fast"):
            native = warm_batch()
            with native_forced_off():
                numpy_path = warm_batch()
        assert native.all_converged
        assert native.x.tobytes() == numpy_path.x.tobytes()
        assert list(native.iterations) == list(numpy_path.iterations)


# --------------------------------------------------------------------------- #
# CSR products, fused residuals and fp16 vector updates
# --------------------------------------------------------------------------- #
#: CSR row lengths cycled over the test rows (empty rows included)
CSR_COUNTS = (0, 1, 2, 3, 5, 7, 8, 9, 12, 16, 17, 40, 128, 129, 130, 139)
CSR_KERNELS = ("spmv_csr", "spmm_csr", "spmv_axpy", "spmm_axpy")


def _csr(prec: Precision, n: int = 48, ncols: int = 150, seed: int = 0,
         counts=CSR_COUNTS):
    """An ``(n, ncols)`` CSR matrix whose rows cycle through ``counts`` terms,
    with stored ±0 and values reaching fp16's subnormals; plus an
    ``(ncols, 6)`` operand block and an ``(n, 6)`` combine block (the
    kernels' four-lane body and a tail)."""
    rng = np.random.default_rng(seed)
    lens = [min(counts[i % len(counts)], ncols) for i in range(n)]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(lens, out=indptr[1:])
    indices = np.array([c for m in lens
                        for c in np.sort(rng.choice(ncols, size=m, replace=False))],
                       dtype=np.int32)
    nnz = indices.size
    vals = rng.uniform(-1, 1, nnz) * 10.0 ** rng.uniform(-4, 1, nnz)
    vals[rng.random(nnz) < 0.08] = 0.0
    vals[rng.random(nnz) < 0.08] = -0.0
    matrix = CSRMatrix(vals, indices, indptr, (n, ncols)).astype(prec)
    x = rng.uniform(-1, 1, (ncols, 6)) * 10.0 ** rng.uniform(-7, 1, (ncols, 6))
    x[rng.random(x.shape) < 0.05] = -0.0
    y = rng.uniform(-1, 1, (n, 6)) * 10.0 ** rng.uniform(-6, 1, (n, 6))
    y[rng.random(y.shape) < 0.05] = -0.0
    return matrix, x, y


def _operands(kernel, x, y):
    """The kernel's operands: a column for the single-RHS kernels."""
    if kernel in ("spmv_csr", "spmv_axpy"):
        return np.ascontiguousarray(x[:, 0]), np.ascontiguousarray(y[:, 0])
    return x, y


def _csr_call(kernel, matrix, x, y, out=None, threads=1, record=False):
    """``kernel`` on a fresh copy of ``matrix`` (its own scratch arena) with
    ``threads`` forced; returns ``(copy, result)``."""
    fresh = CSRMatrix(matrix.values, matrix.indices, matrix.indptr, matrix.shape)
    args = (fresh.values, fresh.indices, fresh.indptr, x)
    if kernel.endswith("axpy"):
        args += (y,)
    with use_backend("fast"), force_threads(threads):
        result = getattr(get_backend("fast"), kernel)(
            *args, out_precision=out, record=record, scratch=fresh.scratch(),
            par=par_state(fresh))
    return fresh, result


def _csr_two_ways(kernel, matrix, x, y, out=None, threads=1):
    """``(native, numpy/scipy)`` results of one CSR kernel."""
    fresh, native = _csr_call(kernel, matrix, x, y, out, threads)
    ran = any(isinstance(key, tuple) and key[0] == "native_csr"
              for key in fresh.scratch()._memos)
    assert ran == NATIVE_EXPECTED
    with native_forced_off():
        _, fallback = _csr_call(kernel, matrix, x, y, out, threads)
    return native, fallback


def _scipy_direct(kernel, matrix, x, y, out=None):
    """scipy's ``csr_matvec``/``csr_matvecs`` called directly: the product,
    or the fused residual (``y`` plus the negated products) when the output,
    ``y`` and the compute dtype agree; ``None`` for fp16 compute."""
    from scipy.sparse import _sparsetools

    compute = promote(matrix.precision, precision_of_dtype(x.dtype)).dtype
    out_dtype = np.dtype(out.dtype if out is not None else x.dtype)
    if compute == np.float16:
        return None
    n, ncols = matrix.shape
    vals = matrix.values.astype(compute)
    xc = np.ascontiguousarray(x, dtype=compute)
    if kernel.endswith("axpy"):
        if not out_dtype == y.dtype == compute:
            return None
        r, vals = y.astype(compute, order="C", copy=True), -vals
    else:
        r = np.zeros((n,) + x.shape[1:], dtype=compute)
    if x.ndim == 1:
        _sparsetools.csr_matvec(n, ncols, matrix.indptr, matrix.indices, vals,
                                xc, r)
    else:
        _sparsetools.csr_matvecs(n, ncols, x.shape[1], matrix.indptr,
                                 matrix.indices, vals, xc.ravel(), r.ravel())
    return r.astype(out_dtype, copy=False)


def _assert_same(native, fallback, scipy_result=None):
    assert native.dtype == fallback.dtype and native.shape == fallback.shape
    assert native.tobytes() == fallback.tobytes()
    if scipy_result is not None:
        assert native.tobytes() == scipy_result.tobytes()


def _check_csr(kernel, matrix, x, y, out=None, threads=1):
    xk, yk = _operands(kernel, x, y)
    native, fallback = _csr_two_ways(kernel, matrix, xk, yk, out, threads)
    _assert_same(native, fallback, _scipy_direct(kernel, matrix, xk, yk, out))
    return native


class TestCSRBits:
    @pytest.mark.parametrize("out", [None, Precision.FP16, Precision.FP32,
                                     Precision.FP64], ids=str)
    @pytest.mark.parametrize("vec_prec", PRECS, ids=lambda p: f"vec-{p.value}")
    @pytest.mark.parametrize("mat_prec", PRECS, ids=lambda p: f"mat-{p.value}")
    def test_precision_pairs(self, mat_prec, vec_prec, out):
        matrix, x, y = _csr(mat_prec, seed=1)
        for kernel in CSR_KERNELS:
            _check_csr(kernel, matrix, x.astype(vec_prec.dtype),
                       y.astype(vec_prec.dtype), out)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("prec", PRECS, ids=lambda p: p.value)
    def test_threads_same_bits(self, prec, threads):
        """Row slabs run the same kernel per row: every thread count gives
        the serial bits."""
        matrix, x, y = _csr(prec, n=90, seed=2)
        x, y = x.astype(prec.dtype), y.astype(prec.dtype)
        for kernel in CSR_KERNELS:
            serial = _check_csr(kernel, matrix, x, y)
            assert _check_csr(kernel, matrix, x, y,
                              threads=threads).tobytes() == serial.tobytes()

    @pytest.mark.parametrize("prec", PRECS, ids=lambda p: p.value)
    def test_signed_zeros(self, prec):
        matrix, x, y = _csr(prec, seed=3)
        zeros = np.zeros_like(x)
        zeros[::2] = -0.0
        for kernel in CSR_KERNELS:
            got = _check_csr(kernel, matrix, zeros.astype(prec.dtype),
                             (y * 0.0).astype(prec.dtype))
            assert not np.any(got)

    def test_fp16_subnormals(self):
        matrix, x, y = _csr(Precision.FP16, seed=4)
        tiny = (x * 1e-3).astype(np.float16)
        assert (np.abs(tiny) < np.finfo(np.float16).tiny).any() and tiny.any()
        for kernel in CSR_KERNELS:
            _check_csr(kernel, matrix, tiny, (y * 1e-4).astype(np.float16))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("prec", PRECS, ids=lambda p: p.value)
    def test_inf_nan_propagation(self, prec):
        matrix, x, y = _csr(prec, seed=5)
        x, y = x.astype(prec.dtype), y.astype(prec.dtype)
        x[3, :] = np.nan
        x[10, 1:] = np.inf
        x[11, 2:] = -np.inf
        y[4, 0] = np.nan
        for kernel in CSR_KERNELS:
            got = _check_csr(kernel, matrix, x, y)
            assert np.isnan(got).any()

    def test_empty_matrix_and_narrow_blocks(self):
        empty = CSRMatrix(np.zeros(0), np.zeros(0, dtype=np.int32),
                          np.zeros(1, dtype=np.int32), (0, 5))
        for prec in PRECS:
            matrix = empty.astype(prec)
            x = np.ones((5, 2), dtype=prec.dtype)
            y = np.ones((0, 2), dtype=prec.dtype)
            for kernel in CSR_KERNELS:
                got = _check_csr(kernel, matrix, x, y)
                assert got.shape[0] == 0
        matrix, x, y = _csr(Precision.FP16, seed=6)
        for k in (0, 1, 4, 6):
            for kernel in ("spmm_csr", "spmm_axpy"):
                got = _check_csr(kernel, matrix, x[:, :k].astype(np.float16),
                                 y[:, :k].astype(np.float16))
                assert got.shape == (matrix.nrows, k)

    @pytest.mark.parametrize("prec", PRECS, ids=lambda p: p.value)
    def test_noncontiguous_operands(self, prec):
        matrix, x, y = _csr(prec, seed=7)
        xf = np.asfortranarray(x.astype(prec.dtype))
        yf = np.asfortranarray(y.astype(prec.dtype))
        for kernel in ("spmm_csr", "spmm_axpy"):
            _check_csr(kernel, matrix, xf, yf)
        for kernel in ("spmv_csr", "spmv_axpy"):
            xk, yk = x.astype(prec.dtype)[:, 1], y.astype(prec.dtype)[:, 2]
            assert not xk.flags.c_contiguous
            native, fallback = _csr_two_ways(kernel, matrix, xk, yk)
            _assert_same(native, fallback,
                         _scipy_direct(kernel, matrix, xk, yk))

    def test_short_operand_rejected(self):
        matrix, x, y = _csr(Precision.FP32, seed=8)
        with pytest.raises((IndexError, ValueError)):
            _csr_call("spmv_csr", matrix, np.ones(matrix.ncols - 10,
                                                  dtype=np.float32), None)


def _half(rng, shape, scale):
    """fp16 values from normal down to subnormal magnitudes, with ±0."""
    v = rng.uniform(-1, 1, shape) * 10.0 ** rng.uniform(np.log10(scale) - 4,
                                                         np.log10(scale), shape)
    v[rng.random(shape) < 0.05] = -0.0
    return v.astype(np.float16)


def _update_three_ways(fn):
    """``(native, staged NumPy, reference)`` results of ``fn(backend)``."""
    with use_backend("fast"):
        native = fn(get_backend("fast"))
        with native_forced_off():
            staged = fn(get_backend("fast"))
    with use_backend("reference"):
        reference = fn(get_backend("reference"))
    return native, staged, reference


class TestHalfUpdates:
    """fp16 residual and weighted updates: native == staged == reference.
    Lengths that are not multiples of 8 exercise the scalar tails."""

    @pytest.mark.parametrize("threads", [1, 2, 4])
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 29, 1003])
    def test_residual_update(self, n, threads):
        rng = np.random.default_rng(n)
        for shape in ((n,), (n, 3)):
            v, az = _half(rng, shape, 1.0), _half(rng, shape, 1.0)

            def run(backend):
                with force_threads(threads):
                    return backend.residual_update(v, az, record=False)

            _assert_bits(_update_three_ways(run))

    @pytest.mark.parametrize("scale", [1.0, 1e-4], ids=["normal", "subnormal"])
    @pytest.mark.parametrize("n", [0, 1, 7, 8, 29, 1003])
    def test_weighted_update(self, n, scale):
        rng = np.random.default_rng(n + 1)
        z, mr = _half(rng, (n,), scale), _half(rng, (n,), scale)
        for omega in (0.97, 1.3, np.float32(1.0712), -0.0):
            _assert_bits(_update_three_ways(lambda b: b.weighted_update(
                z.copy(), mr, omega, Precision.FP16, record=False)))

    @pytest.mark.parametrize("k", [0, 1, 3, 4, 8])
    def test_weighted_update_batch(self, k):
        rng = np.random.default_rng(k)
        z, mr = _half(rng, (37, k), 1.0), _half(rng, (37, k), 1e-3)
        omega = rng.uniform(0.5, 1.5, k)
        _assert_bits(_update_three_ways(lambda b: b.weighted_update_batch(
            z, mr, omega, Precision.FP16, record=False)))
        # one weight per column: each column equals the single-RHS update
        with use_backend("fast"):
            backend = get_backend("fast")
            batch = backend.weighted_update_batch(z, mr, omega, Precision.FP16)
            for j in range(k):
                single = backend.weighted_update(
                    np.ascontiguousarray(z[:, j]), np.ascontiguousarray(mr[:, j]),
                    np.float16(omega[j]), Precision.FP16)
                assert batch[:, j].tobytes() == single.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_inf_nan_and_overflow(self):
        z = np.array([np.inf, -np.inf, np.nan, 60000, -60000, 1, 2, 3, 4],
                     dtype=np.float16)
        mr = np.array([1, np.inf, 1, 60000, -60000, np.nan, 0, -0.0, 5],
                      dtype=np.float16)
        _assert_bits(_update_three_ways(lambda b: b.weighted_update(
            z.copy(), mr, 1.5, Precision.FP16, record=False)))
        _assert_bits(_update_three_ways(lambda b: b.residual_update(
            z, mr, record=False)))

    def test_mismatched_shapes_rejected(self):
        _native_state()                       # the library is loaded
        with use_backend("fast"), pytest.raises(ValueError):
            get_backend("fast").residual_update(
                np.ones(9, dtype=np.float16), np.ones(8, dtype=np.float16))

    def test_updates_never_load_the_library(self, monkeypatch, tmp_path):
        backend = get_backend("fast")
        lib = Library(backend._sweep_levels, cache_dirs=[tmp_path / "cache"])
        monkeypatch.setattr(backend, "_native", lib)
        rng = np.random.default_rng(9)
        z, mr = _half(rng, (40, 2), 1.0), _half(rng, (40, 2), 1.0)
        with use_backend("fast"):
            backend.residual_update(z, mr)
            backend.weighted_update(z[:, 0].copy(), mr[:, 0], 0.9, Precision.FP16)
            backend.weighted_update_batch(z, mr, np.ones(2), Precision.FP16)
        assert lib.status()["state"] == "unloaded"
        assert not (tmp_path / "cache").exists()


class TestCSRCounters:
    @pytest.mark.parametrize("prec", PRECS, ids=lambda p: p.value)
    def test_counter_parity(self, prec):
        matrix, x, y = _csr(prec, seed=10)
        x, y = x.astype(prec.dtype), y.astype(prec.dtype)

        def traffic(mode):
            with counting() as counter:
                if mode == "reference":
                    with use_backend("reference"):
                        backend = get_backend("reference")
                        for kernel in CSR_KERNELS:
                            xk, yk = _operands(kernel, x, y)
                            args = (matrix.values, matrix.indices,
                                    matrix.indptr, xk)
                            if kernel.endswith("axpy"):
                                args += (yk,)
                            getattr(backend, kernel)(*args)
                        self._updates(backend, prec)
                else:
                    with (native_forced_off() if mode == "off"
                          else contextlib.nullcontext()):
                        for kernel in CSR_KERNELS:
                            xk, yk = _operands(kernel, x, y)
                            _csr_call(kernel, matrix, xk, yk, record=True)
                        with use_backend("fast"):
                            self._updates(get_backend("fast"), prec)
            return counter.summary()

        native = traffic("native")
        assert native == traffic("off")
        assert native == traffic("reference")

    @staticmethod
    def _updates(backend, prec):
        rng = np.random.default_rng(11)
        z, mr = (rng.uniform(-1, 1, (33, 3)).astype(prec.dtype) for _ in range(2))
        backend.residual_update(z[:, 0].copy(), mr[:, 0].copy())
        backend.residual_update_batch(z, mr)
        backend.weighted_update(z[:, 0].copy(), mr[:, 0].copy(), 0.8, prec)
        backend.weighted_update_batch(z, mr, np.array([0.8, 0.9, 1.1]), prec)


class TestImportGraph:
    """A warm direct solve with native kernels ready loads neither scipy nor
    the serving tier; forced off, it returns the same bytes through scipy."""

    CHILD = textwrap.dedent("""
        import json, sys
        import numpy as np
        from repro import F3RConfig, F3RSolver
        from repro.backends import get_backend
        from repro.backends.native import Library
        from repro.matgen import hpcg_matrix
        from repro.sparse import diagonal_scaling
        if sys.argv[1] == "off":
            get_backend("fast")._native = Library._forced_off()
        A, _ = diagonal_scaling(hpcg_matrix(8))
        solver = F3RSolver(A, preconditioner="block-ic0", nblocks=8,
                           config=F3RConfig())
        solver.solve(np.ones(A.nrows))
        x = solver.solve(np.linspace(-1, 1, A.nrows)).x
        loaded = sorted({m.split(".")[0] for m in sys.modules}
                        & {"scipy", "multiprocessing", "socket"})
        tiers = sorted(m for m in sys.modules if m.startswith(
            ("repro.serve", "repro.par.procpool", "repro.par.shm")))
        print(json.dumps({"state": get_backend("fast").native_status()["state"],
                          "loaded": loaded, "tiers": tiers,
                          "x": x.tobytes().hex()}))
    """)

    def _run(self, mode):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        env.pop("REPRO_FAULTS", None)
        proc = subprocess.run([sys.executable, "-c", self.CHILD, mode], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    @requires_native
    def test_warm_solve_imports_no_scipy_or_serving_tier(self):
        on, off = self._run("on"), self._run("off")
        assert on["state"] == "ready" and off["state"] == "fallback"
        assert on["loaded"] == [] and on["tiers"] == []
        assert "scipy" in off["loaded"] and "multiprocessing" not in off["loaded"]
        assert off["tiers"] == []
        assert on["x"] == off["x"]

    def test_serving_exports_resolve_lazily(self):
        import repro
        import repro.par

        assert repro.BatchDispatcher.__module__ == "repro.serve.dispatcher"
        assert repro.par.ProcPool.__module__ == "repro.par.procpool"
        assert repro.configured_procs() == repro.par.configured_procs()
        with pytest.raises(AttributeError):
            repro.no_such_export
        with pytest.raises(AttributeError):
            repro.par.no_such_export


# --------------------------------------------------------------------------- #
@st.composite
def _factors(draw):
    n = draw(st.integers(0, 40))
    lower = draw(st.booleans())
    unit = draw(st.booleans())
    prec = draw(st.sampled_from(PRECS))
    counts = tuple(draw(st.lists(st.integers(0, 24), min_size=1, max_size=6)))
    seed = draw(st.integers(0, 2**31 - 1))
    return _factor(lower, unit, prec, n=n, seed=seed, counts=counts)


@st.composite
def _csr_cases(draw):
    n = draw(st.integers(0, 30))
    ncols = draw(st.integers(1, 40))
    counts = tuple(draw(st.lists(st.integers(0, 40), min_size=1, max_size=6)))
    prec = draw(st.sampled_from(PRECS))
    seed = draw(st.integers(0, 2**31 - 1))
    return _csr(prec, n=n, ncols=ncols, seed=seed, counts=counts)


@pytest.mark.tier2
class TestHypothesisSweep:
    @settings(deadline=None)
    @given(_factors(), st.sampled_from(PRECS), st.sampled_from([None, *PRECS]),
           st.integers(1, 4))
    def test_random_factors(self, made, vec_prec, out, k):
        factor, b = made
        rhs = np.resize(b, (factor.nrows, k)).astype(vec_prec.dtype)
        _assert_bits(_three_ways(factor, rhs, out))
        _assert_bits(_three_ways(factor, np.ascontiguousarray(rhs[:, 0]), out))

    @settings(deadline=None)
    @given(_csr_cases(), st.sampled_from(PRECS), st.sampled_from([None, *PRECS]),
           st.integers(0, 6), st.sampled_from([1, 2, 4]))
    def test_random_csr(self, made, vec_prec, out, k, threads):
        matrix, x, y = made
        x = np.resize(x, (matrix.ncols, k)).astype(vec_prec.dtype)
        y = np.resize(y, (matrix.nrows, k)).astype(vec_prec.dtype)
        for kernel in ("spmm_csr", "spmm_axpy"):
            _check_csr(kernel, matrix, x, y, out, threads)
        if k:
            for kernel in ("spmv_csr", "spmv_axpy"):
                _check_csr(kernel, matrix, x, y, out, threads)
