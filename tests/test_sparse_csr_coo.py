"""Tests for the COO and CSR containers and the mixed-precision SpMV."""

import numpy as np
import pytest

from repro.precision import Precision
from repro.sparse import COOMatrix, CSRMatrix

pytestmark = pytest.mark.tier1


def _example_dense():
    return np.array([
        [4.0, 0.0, -1.0, 0.0],
        [0.0, 5.0, 0.0, -2.0],
        [-1.0, 0.0, 6.0, 0.0],
        [0.0, -2.0, 0.0, 7.0],
    ])


class TestCOO:
    def test_roundtrip_dense(self):
        dense = _example_dense()
        coo = COOMatrix.from_dense(dense)
        assert np.allclose(coo.to_dense(), dense)

    def test_duplicates_are_summed(self):
        coo = COOMatrix(np.array([0, 0]), np.array([1, 1]), np.array([2.0, 3.0]), (2, 2))
        csr = coo.to_csr()
        assert csr.nnz == 1
        assert csr.to_dense()[0, 1] == pytest.approx(5.0)

    def test_transpose(self):
        dense = _example_dense()
        coo = COOMatrix.from_dense(dense)
        assert np.allclose(coo.transpose().to_dense(), dense.T)

    def test_out_of_range_index_raises(self):
        with pytest.raises(ValueError):
            COOMatrix(np.array([5]), np.array([0]), np.array([1.0]), (2, 2))

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            COOMatrix(np.array([0, 1]), np.array([0]), np.array([1.0]), (2, 2))

    def test_to_csr_matches_dense(self):
        dense = _example_dense()
        csr = COOMatrix.from_dense(dense).to_csr()
        assert np.allclose(csr.to_dense(), dense)


class TestCSRBasics:
    def test_from_dense_roundtrip(self):
        dense = _example_dense()
        csr = CSRMatrix.from_dense(dense)
        assert np.allclose(csr.to_dense(), dense)
        assert csr.nnz == np.count_nonzero(dense)

    def test_identity(self):
        eye = CSRMatrix.identity(5)
        assert np.allclose(eye.to_dense(), np.eye(5))

    def test_from_diagonal(self):
        diag = np.array([1.0, 2.0, 3.0])
        mat = CSRMatrix.from_diagonal(diag)
        assert np.allclose(mat.to_dense(), np.diag(diag))

    def test_diagonal_extraction(self):
        csr = CSRMatrix.from_dense(_example_dense())
        assert np.allclose(csr.diagonal(), [4.0, 5.0, 6.0, 7.0])

    def test_malformed_indptr_raises(self):
        with pytest.raises(ValueError):
            CSRMatrix(np.array([1.0]), np.array([0]), np.array([0, 0]), (2, 2))

    def test_row_nnz(self):
        csr = CSRMatrix.from_dense(_example_dense())
        assert np.array_equal(csr.row_nnz(), [2, 2, 2, 2])

    def test_memory_bytes_accounts_for_precision(self):
        csr = CSRMatrix.from_dense(_example_dense())
        full = csr.memory_bytes()
        half = csr.astype("fp16").memory_bytes()
        # value storage shrinks 4x, index storage unchanged
        assert half < full
        assert half == csr.nnz * 2 + csr.indices.size * 4 + csr.indptr.size * 4

    def test_scipy_roundtrip(self):
        dense = _example_dense()
        csr = CSRMatrix.from_dense(dense)
        back = CSRMatrix.from_scipy(csr.to_scipy())
        assert np.allclose(back.to_dense(), dense)

    def test_unsorted_columns_are_sorted(self):
        values = np.array([1.0, 2.0])
        indices = np.array([2, 0])
        indptr = np.array([0, 2])
        csr = CSRMatrix(values, indices, indptr, (1, 3))
        assert np.array_equal(csr.indices, [0, 2])
        assert np.allclose(csr.values, [2.0, 1.0])


class TestTranspose:
    def test_transpose_matches_dense(self, dd_matrix):
        dense = dd_matrix.to_dense()
        assert np.allclose(dd_matrix.transpose().to_dense(), dense.T)

    def test_transpose_of_rectangular(self):
        dense = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
        csr = CSRMatrix.from_dense(dense)
        assert np.allclose(csr.transpose().to_dense(), dense.T)

    def test_double_transpose_identity(self, small_spd_random):
        dense = small_spd_random.to_dense()
        assert np.allclose(small_spd_random.transpose().transpose().to_dense(), dense)


class TestSymmetryCheck:
    def test_symmetric_matrix(self, spd_matrix):
        assert spd_matrix.is_symmetric()

    def test_nonsymmetric_matrix(self, nonsym_matrix):
        assert not nonsym_matrix.is_symmetric()

    def test_rectangular_is_not_symmetric(self):
        csr = CSRMatrix.from_dense(np.ones((2, 3)))
        assert not csr.is_symmetric()

    @staticmethod
    def _scipy_rule(csr, tol):
        """The scipy formulation: ``A - A^T`` (explicit zeros dropped), then
        ``max|A - A^T| <= tol * max(1, max|A|)``."""
        if csr.nrows != csr.ncols:
            return False
        a = csr.to_scipy()
        diff = (a - a.transpose().tocsr()).tocoo()
        if diff.nnz == 0:
            return True
        scale = max(1.0, float(np.max(np.abs(csr.values.astype(np.float64)))))
        return bool(np.max(np.abs(diff.data)) <= tol * scale)

    def _cases(self):
        rng = np.random.default_rng(21)
        for trial in range(120):
            n = int(rng.integers(1, 9))
            dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.4)
            if trial % 2:
                dense = dense + dense.T
                if trial % 3 == 0 and n > 1:
                    dense[0, n - 1] += 1e-11        # near-symmetric
            yield CSRMatrix.from_dense(dense), f"random-{trial}"
        # stored zeros facing absent entries, and a stored zero facing a
        # nonzero
        yield CSRMatrix(np.array([1.0, 0.0, 2.0]), np.array([0, 1, 1], dtype=np.int32),
                        np.array([0, 2, 3], dtype=np.int32), (2, 2)), "explicit-zero"
        yield CSRMatrix(np.array([1.0, 0.0, 3.0, 2.0]),
                        np.array([0, 1, 0, 1], dtype=np.int32),
                        np.array([0, 2, 4], dtype=np.int32), (2, 2)), "zero-vs-nonzero"
        yield CSRMatrix(np.zeros(0), np.zeros(0, dtype=np.int32),
                        np.zeros(1, dtype=np.int32), (0, 0)), "empty"
        yield CSRMatrix(np.zeros(0), np.zeros(0, dtype=np.int32),
                        np.zeros(4, dtype=np.int32), (3, 3)), "no-entries"

    def test_matches_scipy_formulation(self, spd_matrix, nonsym_matrix):
        cases = [*self._cases(), (spd_matrix, "spd"), (nonsym_matrix, "nonsym"),
                 (spd_matrix.astype(Precision.FP16), "spd-fp16")]
        for csr, label in cases:
            for tol in (0.0, 1e-13, 1e-12, 1e-10):
                assert csr.is_symmetric(tol) == self._scipy_rule(csr, tol), \
                    (label, tol)

    def test_imports_no_scipy(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        code = ("import sys; from repro.matgen import hpcg_matrix; "
                "assert hpcg_matrix(4).is_symmetric(); "
                "print(any(m.startswith('scipy') for m in sys.modules))")
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": str(src)})
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"


class TestMatvec:
    def test_matches_dense_fp64(self, dd_matrix, rng):
        x = rng.standard_normal(dd_matrix.ncols)
        assert np.allclose(dd_matrix.matvec(x), dd_matrix.to_dense() @ x)

    def test_dimension_mismatch_raises(self, dd_matrix):
        with pytest.raises(ValueError):
            dd_matrix.matvec(np.ones(dd_matrix.ncols + 1))

    def test_matmul_operator(self, dd_matrix, rng):
        x = rng.standard_normal(dd_matrix.ncols)
        assert np.allclose(dd_matrix @ x, dd_matrix.matvec(x))

    def test_output_precision_follows_vector(self, spd_matrix):
        x32 = np.ones(spd_matrix.ncols, dtype=np.float32)
        y = spd_matrix.astype("fp16").matvec(x32)
        assert y.dtype == np.float32

    def test_output_precision_override(self, spd_matrix):
        x = np.ones(spd_matrix.ncols)
        y = spd_matrix.matvec(x, out_precision="fp16")
        assert y.dtype == np.float16

    def test_fp16_storage_accuracy(self, spd_matrix, rng):
        """fp16-stored SpMV against fp32 vectors stays within the forward error bound."""
        x = rng.uniform(0.1, 1.0, spd_matrix.ncols).astype(np.float32)
        exact = spd_matrix.to_dense() @ x.astype(np.float64)
        approx = spd_matrix.astype("fp16").matvec(x).astype(np.float64)
        rel = np.linalg.norm(approx - exact) / np.linalg.norm(exact)
        assert rel < 5e-3  # fp16 storage error ~ 2^-11

    def test_empty_row_handled(self):
        dense = np.array([[1.0, 2.0], [0.0, 0.0]])
        csr = CSRMatrix.from_dense(dense)
        y = csr.matvec(np.array([1.0, 1.0]))
        assert np.allclose(y, [3.0, 0.0])

    def test_rmatvec_matches_transpose(self, dd_matrix, rng):
        x = rng.standard_normal(dd_matrix.nrows)
        assert np.allclose(dd_matrix.rmatvec(x), dd_matrix.to_dense().T @ x, atol=1e-12)


class TestExtractBlock:
    def test_block_matches_dense_slice(self, spd_matrix):
        block = spd_matrix.extract_block(10, 30)
        dense = spd_matrix.to_dense()[10:30, 10:30]
        assert np.allclose(block.to_dense(), dense)

    def test_full_block_is_whole_matrix(self, small_spd_random):
        block = small_spd_random.extract_block(0, small_spd_random.nrows)
        assert np.allclose(block.to_dense(), small_spd_random.to_dense())


class TestAstype:
    def test_astype_precision(self, spd_matrix):
        assert spd_matrix.astype("fp16").precision is Precision.FP16

    def test_astype_preserves_structure(self, spd_matrix):
        low = spd_matrix.astype("fp16")
        assert np.array_equal(low.indices, spd_matrix.indices)
        assert np.array_equal(low.indptr, spd_matrix.indptr)

    def test_copy_is_independent(self, spd_matrix):
        copy = spd_matrix.copy()
        copy.values[0] += 1.0
        assert copy.values[0] != spd_matrix.values[0]
