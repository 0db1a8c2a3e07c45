"""Compressed Sparse Row (CSR) matrix with mixed-precision SpMV.

This is the primary storage format of the paper's CPU experiments ("The
coefficient matrix and preconditioner were stored in the compressed sparse row
format").  Values may be stored in fp64, fp32 or fp16; column indices and row
pointers are always 32-bit integers, matching the paper.

The SpMV kernel emulates the paper's precision rule: arithmetic is carried out
in the promotion of the matrix-storage and vector precisions, and the result is
rounded to the requested output precision.  The kernel itself lives in the
active :mod:`repro.backends` engine (``reference`` or ``fast``); every call
records its memory traffic with :mod:`repro.perf.counters`.

Matrices are treated as immutable after construction: the ``fast`` backend
caches dtype-converted copies of ``values`` in a per-matrix workspace.
"""

from __future__ import annotations

import numpy as np

from ..backends import get_backend
from ..backends.workspace import ScratchOwner, ThreadLocalWorkspace
from ..par.partition import par_state
from ..precision import BYTES_PER_INDEX, Precision, as_precision, precision_of_dtype

__all__ = ["CSRMatrix", "spmv_csr"]


def spmv_csr(
    values: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    x: np.ndarray,
    out_precision: Precision | str | None = None,
    record: bool = True,
) -> np.ndarray:
    """y = A @ x for a CSR matrix given by (values, indices, indptr).

    Arithmetic runs in the promotion of ``values.dtype`` and ``x.dtype``; the
    result is rounded to ``out_precision`` (default: the vector precision).
    Dispatches to the active kernel backend.
    """
    return get_backend().spmv_csr(values, indices, indptr, x,
                                  out_precision=out_precision, record=record)


class CSRMatrix(ScratchOwner):
    """Sparse matrix in CSR format with 32-bit indices.

    Parameters
    ----------
    values, indices, indptr:
        Standard CSR arrays.  Column indices within each row must be sorted
        (the constructor sorts them if necessary).
    shape:
        ``(nrows, ncols)``.
    """

    __slots__ = ("values", "indices", "indptr", "shape", "_transpose", "_scratch",
                 "_fingerprint", "_fingerprint_parent", "_par")

    def __init__(self, values, indices, indptr, shape) -> None:
        self.indices = np.ascontiguousarray(indices, dtype=np.int32)
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int32)
        values = np.ascontiguousarray(values)
        if values.dtype not in (np.float16, np.float32, np.float64):
            values = values.astype(np.float64)
        self.values = values
        self.shape = (int(shape[0]), int(shape[1]))
        if self.indptr.size != self.shape[0] + 1:
            raise ValueError("indptr length must be nrows + 1")
        if self.indices.size != self.values.size:
            raise ValueError("indices and values must have the same length")
        if self.indptr[0] != 0 or self.indptr[-1] != self.values.size:
            raise ValueError("malformed indptr")
        self._transpose: CSRMatrix | None = None
        self._scratch: ThreadLocalWorkspace | None = None
        self._par = None          # repro.par.ParState, attached on first use
        self._fingerprint: str | None = None
        # (source values array, target-precision label or None) when this
        # matrix is an astype copy of a not-yet-fingerprinted source: lets
        # fingerprint() derive the source's content hash lazily without
        # retaining the source *object* (its cached transpose, scratch
        # arenas, ...) — the index arrays are shared with the copy anyway
        self._fingerprint_parent: tuple | None = None
        self._sort_rows()

    # ------------------------------------------------------------------ #
    def _sort_rows(self) -> None:
        """Ensure column indices are sorted within each row (vectorized)."""
        indptr = self.indptr
        diffs = np.diff(self.indices)
        row_boundaries = np.zeros(self.indices.size, dtype=bool)
        if self.indices.size:
            starts = indptr[1:-1]
            row_boundaries[starts[starts < self.indices.size]] = True
        unsorted = np.any((diffs < 0) & ~row_boundaries[1:]) if self.indices.size > 1 else False
        if not unsorted:
            return
        row_ids = np.repeat(np.arange(self.shape[0], dtype=np.int64), np.diff(indptr))
        order = np.lexsort((self.indices, row_ids))
        self.indices = self.indices[order]
        self.values = self.values[order]

    # ------------------------------------------------------------------ #
    @property
    def nnz(self) -> int:
        return int(self.values.size)

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    @property
    def precision(self) -> Precision:
        return precision_of_dtype(self.values.dtype)

    @property
    def nnz_per_row(self) -> float:
        return self.nnz / max(1, self.nrows)

    def row_nnz(self) -> np.ndarray:
        return np.diff(self.indptr)

    def memory_bytes(self) -> int:
        """Bytes occupied by values + indices + row pointers."""
        return (self.values.size * self.precision.bytes
                + self.indices.size * BYTES_PER_INDEX
                + self.indptr.size * BYTES_PER_INDEX)

    # ------------------------------------------------------------------ #
    def matvec(self, x: np.ndarray, out_precision: Precision | str | None = None,
               record: bool = True) -> np.ndarray:
        """Sparse matrix-vector product ``A @ x`` with precision emulation."""
        x = np.asarray(x)
        if x.shape != (self.ncols,):
            raise ValueError(f"dimension mismatch: A is {self.shape}, x has shape {x.shape}")
        return get_backend().spmv_csr(self.values, self.indices, self.indptr, x,
                                      out_precision=out_precision, record=record,
                                      scratch=self.scratch(), par=par_state(self))

    def matmat(self, x: np.ndarray, out_precision: Precision | str | None = None,
               record: bool = True) -> np.ndarray:
        """Batched product ``A @ X`` for ``X`` of shape ``(ncols, k)``.

        One column per right-hand side; the active backend's SpMM kernel
        streams the matrix once over all columns (the ``fast`` engine) or
        loops the SpMV oracle column by column (``reference``).
        """
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[0] != self.ncols:
            raise ValueError(f"dimension mismatch: A is {self.shape}, X has shape {x.shape}")
        return get_backend().spmm_csr(self.values, self.indices, self.indptr, x,
                                      out_precision=out_precision, record=record,
                                      scratch=self.scratch(), par=par_state(self))

    # Operator-contract aliases: a CSRMatrix satisfies the
    # :class:`repro.operators.LinearOperator` surface structurally, so the
    # solver stack (which targets ``apply``/``apply_batch``) accepts a raw
    # matrix as well as a wrapped operator.
    def apply(self, x: np.ndarray, out_precision: Precision | str | None = None,
              record: bool = True) -> np.ndarray:
        return self.matvec(x, out_precision=out_precision, record=record)

    def apply_batch(self, x: np.ndarray, out_precision: Precision | str | None = None,
                    record: bool = True) -> np.ndarray:
        return self.matmat(x, out_precision=out_precision, record=record)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        return self.matmat(x) if x.ndim == 2 else self.matvec(x)

    def rmatvec(self, x: np.ndarray, record: bool = True) -> np.ndarray:
        """Transpose product ``A.T @ x`` (used by AINV construction and tests)."""
        return self.transpose().matvec(np.asarray(x), record=record)

    # ------------------------------------------------------------------ #
    def diagonal(self) -> np.ndarray:
        """Main diagonal as a dense fp64 vector (zeros where absent)."""
        from .ops import extract_diagonal

        return extract_diagonal(self)

    def transpose(self) -> "CSRMatrix":
        """Return A^T as a CSR matrix (values keep their dtype).

        The result is cached: repeated calls (AINV construction, ``rmatvec``,
        symmetry checks) return the same object, and the transpose's transpose
        is the original matrix.
        """
        cached = self._transpose
        if cached is not None:
            return cached
        nrows, ncols = self.shape
        nnz = self.nnz
        row_ids = np.repeat(np.arange(nrows, dtype=np.int32), np.diff(self.indptr))
        order = np.lexsort((row_ids, self.indices))
        t_indices = row_ids[order]
        t_values = self.values[order]
        t_indptr = np.zeros(ncols + 1, dtype=np.int32)
        np.add.at(t_indptr, self.indices + 1, 1)
        np.cumsum(t_indptr, out=t_indptr)
        if t_indptr[-1] != nnz:
            raise ValueError("inconsistent CSR structure: column indices out of range")
        result = CSRMatrix(t_values, t_indices, t_indptr, (ncols, nrows))
        result._transpose = self
        self._transpose = result
        return result

    def astype(self, precision: Precision | str) -> "CSRMatrix":
        """Copy with values cast to ``precision`` (indices shared).

        The copy's :meth:`fingerprint` is threaded through rather than
        rehashed: a same-precision cast keeps the source fingerprint (the
        content is identical) and a converting cast derives its fingerprint
        from the source's in O(1).  Every ``astype`` product of one matrix
        therefore yields the same dispatcher cache key for a given target
        precision, without re-reading the value array.  The derivation is
        lazy — solve paths that never fingerprint pay no hashing at all;
        until first use the copy holds a reference to its source (the index
        arrays are shared with it anyway).
        """
        p = as_precision(precision)
        out = CSRMatrix(self.values.astype(p.dtype), self.indices, self.indptr,
                        self.shape)
        fp = self._fingerprint
        if fp is None and self._fingerprint_parent is not None:
            # chained casts are rare: resolve this copy's own derived
            # fingerprint now so every descendant derives from one lineage
            fp = self.fingerprint()
        if fp is not None:
            if p.dtype != self.values.dtype:
                from ..operators.base import derived_fingerprint

                fp = derived_fingerprint(fp, "astype", p.label)
            out._fingerprint = fp
        else:
            # defer all hashing: keep only the source's hash inputs (its
            # values array; indices/indptr are shared with the copy)
            label = None if p.dtype == self.values.dtype else p.label
            out._fingerprint_parent = (self.values, label)
        return out

    def copy(self) -> "CSRMatrix":
        return CSRMatrix(self.values.copy(), self.indices.copy(), self.indptr.copy(), self.shape)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        if self.nnz:
            rows = np.repeat(np.arange(self.nrows, dtype=np.int64), np.diff(self.indptr))
            dense[rows, self.indices] = self.values.astype(np.float64)
        return dense

    def to_coo(self):
        from .coo import COOMatrix

        rows = np.repeat(np.arange(self.nrows, dtype=np.int32), np.diff(self.indptr))
        return COOMatrix(rows, self.indices.copy(), self.values.astype(np.float64),
                         self.shape)

    def to_scipy(self):
        """Convert to ``scipy.sparse.csr_matrix`` (fp64 values) for testing."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.values.astype(np.float64), self.indices, self.indptr), shape=self.shape
        )

    @classmethod
    def from_scipy(cls, mat) -> "CSRMatrix":
        csr = mat.tocsr()
        return cls(csr.data, csr.indices, csr.indptr, csr.shape)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        from .coo import COOMatrix

        return COOMatrix.from_dense(dense).to_csr()

    @classmethod
    def identity(cls, n: int, precision: Precision | str = Precision.FP64) -> "CSRMatrix":
        p = as_precision(precision)
        values = np.ones(n, dtype=p.dtype)
        indices = np.arange(n, dtype=np.int32)
        indptr = np.arange(n + 1, dtype=np.int32)
        return cls(values, indices, indptr, (n, n))

    @classmethod
    def from_diagonal(cls, diag: np.ndarray,
                      precision: Precision | str = Precision.FP64) -> "CSRMatrix":
        diag = np.asarray(diag, dtype=np.float64)
        n = diag.size
        p = as_precision(precision)
        return cls(diag.astype(p.dtype), np.arange(n, dtype=np.int32),
                   np.arange(n + 1, dtype=np.int32), (n, n))

    # ------------------------------------------------------------------ #
    def extract_block(self, start: int, stop: int) -> "CSRMatrix":
        """Return the square diagonal block ``A[start:stop, start:stop]``.

        Used by the block-Jacobi preconditioner: couplings outside the block
        are discarded, exactly as in the paper's block-Jacobi ILU(0).
        """
        m = stop - start
        lo, hi = int(self.indptr[start]), int(self.indptr[stop])
        cols = self.indices[lo:hi]
        row_counts = np.diff(self.indptr[start:stop + 1])
        rows = np.repeat(np.arange(m, dtype=np.int64), row_counts)
        mask = (cols >= start) & (cols < stop)
        sel_cols = (cols[mask] - start).astype(np.int32)
        sel_vals = self.values[lo:hi][mask]
        indptr = np.zeros(m + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows[mask], minlength=m), out=indptr[1:])
        return CSRMatrix(sel_vals, sel_cols, indptr, (m, m))

    def fingerprint(self) -> str:
        """Stable identity hash of the matrix, computed once and cached.

        For a directly constructed matrix this is a content hash (structure
        + values + dtype + shape): independently built equal-valued matrices
        fingerprint identically.  An :meth:`astype` copy instead *derives*
        its fingerprint from its source's in O(1) — every cast of one matrix
        to a given precision yields the same key, but a converting cast's
        key intentionally differs from that of an equal matrix built
        directly at the target precision (the value array is never
        re-hashed).  Used by :class:`repro.serve.BatchDispatcher` to group
        solve requests targeting the same operator and to key its
        preconditioner cache.
        """
        fp = self._fingerprint
        if fp is None:
            parent = self._fingerprint_parent
            if parent is not None:
                # astype copy: recompute the source's content hash from its
                # retained hash inputs, then derive this copy's key (a
                # same-dtype cast keeps the source key — equal content)
                source_values, label = parent
                fp = self._content_hash(source_values)
                if label is not None:
                    from ..operators.base import derived_fingerprint

                    fp = derived_fingerprint(fp, "astype", label)
                self._fingerprint_parent = None   # release the source values
            else:
                fp = self._content_hash(self.values)
            self._fingerprint = fp
        return fp

    def _content_hash(self, values: np.ndarray) -> str:
        """Content hash over (shape, dtype, indptr, indices, values)."""
        import hashlib

        h = hashlib.blake2b(digest_size=16)
        h.update(repr((self.shape, str(values.dtype))).encode())
        h.update(self.indptr.tobytes())
        h.update(self.indices.tobytes())
        h.update(values.tobytes())
        return h.hexdigest()

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        """Check structural+numerical symmetry (within ``tol``) via A - A^T.

        The entries of A and of -A^T are coalesced by (row, col) in NumPy —
        no transpose is cached and scipy is not imported — and the matrix
        is symmetric when every coalesced entry is zero or, otherwise, when
        ``max|A - A^T| <= tol * max(1, max|A|)``.
        """
        if self.nrows != self.ncols:
            return False
        if not self.nnz:
            return True
        n = self.nrows
        values = self.values.astype(np.float64)
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(self.indptr))
        cols = self.indices.astype(np.int64)
        keys = np.concatenate([rows * n + cols, cols * n + rows])
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        terms = np.concatenate([values, -values])[order]
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        diff = np.abs(np.add.reduceat(terms, starts))
        if not np.any(diff != 0.0):
            return True
        scale = max(1.0, float(np.max(np.abs(values))))
        return bool(np.max(diff) <= tol * scale)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
                f"precision={self.precision.label})")
