"""Kernel-engine backend interface.

Every hot kernel of the reproduction — CSR/sliced-ELLPACK SpMV, the
level-scheduled triangular solve, FGMRES classical Gram-Schmidt, the Krylov
solution combination, and the ILU(0) factorization — dispatches through a
:class:`KernelBackend`.  Two implementations ship with the package:

* ``reference`` (:mod:`repro.backends.reference`): the original
  emulation-faithful NumPy code, kept verbatim as the correctness oracle.
* ``fast`` (:mod:`repro.backends.fast`): fully vectorized kernels with
  preallocated workspace buffers and batched counter recording.

Both backends must preserve two contracts:

1. **Precision-emulation semantics** — arithmetic runs in the promotion of the
   operand precisions and results are rounded to the requested output
   precision.  Backends may differ in summation *order* (BLAS-2 vs per-column
   loops), so results agree to the tolerance of the compute precision, not
   bitwise.
2. **Counter totals** — the bytes / flops / kernel-call totals recorded for a
   given logical operation are identical across backends; the ``fast`` backend
   merely batches them into fewer ``record_*`` calls.  The batched multi-RHS
   kernels (``spmm_csr``, ``spmm_ell``, ``trsm``) record exactly what ``k``
   single-RHS calls would — per-column counter parity — so traffic-model
   results are independent of whether solves were batched.

To add a third backend (e.g. a CuPy/GPU one), subclass :class:`KernelBackend`,
implement the abstract kernels, and register a factory with
:func:`repro.backends.register_backend`; see the README for a walkthrough.
"""

from __future__ import annotations

import abc

import numpy as np

from ..perf.counters import counters_enabled, record_bytes, record_flops, record_kernel
from ..precision import BYTES_PER_INDEX, Precision, as_precision, precision_of_dtype, promote

__all__ = ["KernelBackend", "ilu0_setup", "row_segment_sums", "segment_ramp",
           "spmv_setup", "split_lower_upper"]


def row_segment_sums(products: np.ndarray, indptr: np.ndarray,
                     out: np.ndarray) -> np.ndarray:
    """``out[i] = sum(products[indptr[i]:indptr[i+1]])``, robust to empty segments.

    ``reduceat`` is evaluated only at the starts of non-empty segments: the
    reduction from one non-empty segment's start to the next automatically
    skips interleaved empty segments because those contribute no elements.
    Shared by both backends so the summation semantics stay identical.

    ``products`` may be 2-D (one column per right-hand side); the reduction
    then runs along axis 0 and ``out`` must have the matching column count.
    """
    out.fill(0)
    if products.size:
        counts = np.diff(indptr)
        nonempty = counts > 0
        starts = indptr[:-1][nonempty]
        if starts.size:
            out[nonempty] = np.add.reduceat(products, starts)
    return out


def ilu0_setup(matrix, alpha: float, breakdown_shift: float):
    """Shared ILU(0) preamble: validation, αILU scaling, fp64 copy, shift.

    The breakdown-shift policy is load-bearing for the cross-backend
    factor-equivalence contract, so it lives here rather than per engine.
    Returns ``(n, indptr, indices, values, shift)`` with ``values`` a mutable
    fp64 copy the elimination works in.
    """
    from ..sparse.ops import scale_diagonal_entries

    if matrix.nrows != matrix.ncols:
        raise ValueError("ILU(0) requires a square matrix")
    work_matrix = scale_diagonal_entries(matrix, alpha) if alpha != 1.0 else matrix

    n = work_matrix.nrows
    values = work_matrix.values.astype(np.float64).copy()
    max_abs = float(np.max(np.abs(values))) if values.size else 1.0
    shift = breakdown_shift * max(max_abs, 1.0)
    return n, work_matrix.indptr, work_matrix.indices, values, shift


def segment_ramp(counts: np.ndarray) -> np.ndarray:
    """``[0..c0-1, 0..c1-1, ...]`` for segment gathers (shared by both engines)."""
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(counts)
    starts = ends - counts
    idx = np.arange(total, dtype=np.int64)
    return idx - np.repeat(starts, counts)


def spmv_setup(values_dtype, x_dtype, out_precision):
    """Resolve (matrix, vector, compute, output) precisions for a matvec."""
    mat_prec = precision_of_dtype(values_dtype)
    vec_prec = precision_of_dtype(x_dtype)
    compute = promote(mat_prec, vec_prec)
    out_prec = as_precision(out_precision) if out_precision is not None else vec_prec
    return mat_prec, vec_prec, compute, out_prec


def split_lower_upper(values: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
                      n: int):
    """Split factored ILU(0) values into (strictly-lower L, diag+upper U) CSR parts.

    Returns ``(L, U)`` as :class:`~repro.sparse.csr.CSRMatrix` instances; shared
    by both backends so the factor layout is identical regardless of engine.
    """
    from ..sparse.csr import CSRMatrix

    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    lower_mask = indices < rows
    upper_mask = ~lower_mask

    def _build(mask: np.ndarray) -> CSRMatrix:
        sel_rows = rows[mask]
        sel_cols = indices[mask]
        sel_vals = values[mask]
        new_indptr = np.zeros(n + 1, dtype=np.int32)
        np.add.at(new_indptr, sel_rows + 1, 1)
        np.cumsum(new_indptr, out=new_indptr)
        return CSRMatrix(sel_vals, sel_cols.astype(np.int32), new_indptr, (n, n))

    return _build(lower_mask), _build(upper_mask)


class KernelBackend(abc.ABC):
    """Abstract compute engine for the solver stack's hot kernels."""

    #: Registry name of the backend (set by subclasses).
    name: str = "abstract"

    # ------------------------------------------------------------------ #
    # Sparse matrix-vector products
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def spmv_csr(self, values: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
                 x: np.ndarray, out_precision=None, record: bool = True,
                 scratch=None, par=None) -> np.ndarray:
        """``y = A @ x`` for CSR arrays; ``scratch`` is the matrix's workspace.

        ``par`` is the matrix's :class:`repro.par.ParState` (cached
        partitions + autotuned thread verdicts); backends that execute
        thread-parallel slabs use it, others ignore it.  A parallel
        execution must be bit-identical to the backend's serial one.
        """

    @abc.abstractmethod
    def spmv_ell(self, ell, x: np.ndarray, out_precision=None,
                 record: bool = True) -> np.ndarray:
        """``y = A @ x`` for a :class:`~repro.sparse.ell.SlicedEllMatrix`."""

    # ------------------------------------------------------------------ #
    # Batched (multi-RHS) sparse products
    #
    # The default implementations loop column by column over the single-RHS
    # kernels and are therefore the batched *oracle*: a backend override must
    # produce the same per-column results (up to summation-order tolerance)
    # and record identical counter totals — one logical SpMV/trsv per column.
    # ------------------------------------------------------------------ #
    def spmm_csr(self, values: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
                 x: np.ndarray, out_precision=None, record: bool = True,
                 scratch=None, par=None) -> np.ndarray:
        """``Y = A @ X`` for CSR arrays and ``X`` of shape ``(n, k)``."""
        cols = [self.spmv_csr(values, indices, indptr,
                              np.ascontiguousarray(x[:, j]),
                              out_precision=out_precision, record=record,
                              scratch=scratch, par=par)
                for j in range(x.shape[1])]
        return np.stack(cols, axis=1)

    def spmm_ell(self, ell, x: np.ndarray, out_precision=None,
                 record: bool = True) -> np.ndarray:
        """``Y = A @ X`` for a sliced-ELLPACK matrix and ``X`` of shape ``(n, k)``."""
        cols = [self.spmv_ell(ell, np.ascontiguousarray(x[:, j]),
                              out_precision=out_precision, record=record)
                for j in range(x.shape[1])]
        return np.stack(cols, axis=1)

    # ------------------------------------------------------------------ #
    # Matrix-free stencil applies
    #
    # The default single-RHS kernel is the loop-faithful oracle: it gathers
    # each offset's products into the exact per-row, column-ordered slots of
    # the assembled CSR product stream and reduces them with the same
    # ``row_segment_sums`` helper the CSR kernels use — so a stencil apply
    # on the oracle is bit-identical to the reference SpMV on the assembled
    # matrix.  The batched default loops columns over the single-RHS kernel
    # (the batched oracle); overrides must keep per-column counter parity.
    # ------------------------------------------------------------------ #
    def apply_stencil(self, op, x: np.ndarray, out_precision=None,
                      record: bool = True) -> np.ndarray:
        """``y = A @ x`` for a :class:`~repro.operators.StencilOperator`."""
        mat_prec, vec_prec, compute, out_prec = spmv_setup(op.values.dtype, x.dtype,
                                                           out_precision)
        cdtype = compute.dtype
        x_c = x if x.dtype == cdtype else x.astype(cdtype)
        vals_c = op.values.astype(cdtype, copy=False)
        indptr, entries = op.csr_gather_plan()
        products = np.empty(op.nnz, dtype=cdtype)
        for pos, positions, src in entries:
            products[positions] = vals_c[pos] * x_c[src]
        y = np.zeros(op.nrows, dtype=cdtype)
        row_segment_sums(products, indptr, y)
        y = y.astype(out_prec.dtype, copy=False)
        if record:
            self._record_stencil(mat_prec, vec_prec, out_prec, compute,
                                 op.nrows, op.nnz, op.npoints)
        return y

    def apply_stencil_batch(self, op, x: np.ndarray, out_precision=None,
                            record: bool = True) -> np.ndarray:
        """``Y = A @ X`` for a stencil operator and ``X`` of shape ``(n, k)``."""
        cols = [self.apply_stencil(op, np.ascontiguousarray(x[:, j]),
                                   out_precision=out_precision, record=record)
                for j in range(x.shape[1])]
        return np.stack(cols, axis=1)

    # ------------------------------------------------------------------ #
    # Assembled-format preference (AssembledOperator auto-selection hook)
    # ------------------------------------------------------------------ #
    def preferred_assembled_format(self, precision) -> str | None:
        """Storage format this backend wants for an assembled operator.

        Return ``"csr"`` / ``"ell"`` to pin a format, or ``None`` to let
        :class:`~repro.operators.AssembledOperator` decide from the cost
        model's traffic comparison.
        """
        return None

    # ------------------------------------------------------------------ #
    # Triangular substitution
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def trsv(self, factor, b: np.ndarray, out_precision=None,
             record: bool = True) -> np.ndarray:
        """Solve ``T x = b`` for a prepared :class:`TriangularFactor`."""

    def trsm(self, factor, b: np.ndarray, out_precision=None,
             record: bool = True) -> np.ndarray:
        """Solve ``T X = B`` for ``B`` of shape ``(n, k)`` (column-loop oracle)."""
        cols = [self.trsv(factor, np.ascontiguousarray(b[:, j]),
                          out_precision=out_precision, record=record)
                for j in range(b.shape[1])]
        return np.stack(cols, axis=1)

    # ------------------------------------------------------------------ #
    # Fused solve-plan kernels
    #
    # The hot loops of the compiled solve plans (:mod:`repro.plans`) call
    # these instead of kernel pairs.  Every default below *composes the
    # existing unfused kernels in exactly the order the solver loops used to
    # run them* — so the defaults are bit-identical to the unfused sequences
    # and record identical counter totals (the fused-vs-unfused parity
    # oracle).  A backend override may reorder/fuse the arithmetic (results
    # then agree to the compute-precision tolerance, like every other
    # vectorized kernel) but must keep the counter totals.
    # ------------------------------------------------------------------ #
    def spmv_axpy(self, values: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
                  x: np.ndarray, y: np.ndarray, out_precision=None,
                  record: bool = True, scratch=None, par=None) -> np.ndarray:
        """Fused residual update ``r = y − A·x`` for CSR arrays.

        Semantics of the unfused pair: the product is rounded to
        ``out_precision`` first, then combined with ``y`` under the axpy
        promotion rules (``vo.axpy(-1.0, A@x, y)``).
        """
        ax = self.spmv_csr(values, indices, indptr, x, out_precision=out_precision,
                           record=record, scratch=scratch, par=par)
        return self.residual_update(y, ax, out_precision=out_precision,
                                    record=record, scratch=scratch)

    def spmm_axpy(self, values: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
                  x: np.ndarray, y: np.ndarray, out_precision=None,
                  record: bool = True, scratch=None, par=None) -> np.ndarray:
        """Batched fused residual ``R = Y − A·X`` (column-loop oracle)."""
        cols = [self.spmv_axpy(values, indices, indptr,
                               np.ascontiguousarray(x[:, j]),
                               np.ascontiguousarray(y[:, j]),
                               out_precision=out_precision, record=record,
                               scratch=scratch, par=par)
                for j in range(x.shape[1])]
        return np.stack(cols, axis=1)

    def residual_update(self, v: np.ndarray, az: np.ndarray, out_precision=None,
                        record: bool = True, scratch=None) -> np.ndarray:
        """``r = v − az`` with the axpy promotion/rounding/recording rules.

        The residual-combine half of the fused sweep, usable with any
        operator storage (the plan composes ``apply`` + this for storages
        without a fully fused kernel).
        """
        from ..sparse import vectorops as vo

        return vo.axpy(-1.0, az, v, out_precision=out_precision, record=record)

    def residual_update_batch(self, v: np.ndarray, az: np.ndarray,
                              out_precision=None, record: bool = True,
                              scratch=None) -> np.ndarray:
        """``R = V − AZ`` column-wise (counter parity with ``k`` updates)."""
        from ..sparse import vectorops as vo

        return vo.axpy_block(-1.0, az, v, out_precision=out_precision, record=record)

    def weighted_update(self, z: np.ndarray, mr: np.ndarray, omega: float,
                        vec_prec: Precision, scratch=None,
                        record: bool = True) -> np.ndarray:
        """Richardson weighted update ``z + ω·mr`` in the level dtype.

        ``z`` is *consumed*: an override may update it in place and return
        it, so callers must use only the returned array.
        """
        from ..sparse import vectorops as vo

        return vo.axpy(omega, mr, z, out_precision=vec_prec, record=record)

    def weighted_update_batch(self, z: np.ndarray, mr: np.ndarray, omega,
                              vec_prec: Precision, scratch=None,
                              record: bool = True) -> np.ndarray:
        """Batched Richardson update ``z[:, j] + ω_j·mr[:, j]``: one weight
        per column, rounded to the level dtype, arithmetic in that dtype
        (counter parity with ``k`` single updates)."""
        dtype = vec_prec.dtype
        result = (np.asarray(omega).astype(dtype)[None, :] * mr + z).astype(
            dtype, copy=False)
        if record:
            self._record_axpy(vec_prec, vec_prec, vec_prec, vec_prec,
                              mr.shape[0], mr.shape[1])
        return result

    def orthonormalize(self, basis: np.ndarray, j: int, w: np.ndarray,
                       vec_prec: Precision, scratch=None, record: bool = True):
        """Fused CGS orthogonalize-normalize step.

        Orthogonalizes ``w`` against ``basis[:j+1]`` and — unless the step
        broke down — writes the normalized vector into ``basis[j+1]`` with
        the exact arithmetic of the unfused ``scal`` (reciprocal rounded to
        the level dtype, multiply in that dtype).  Returns
        ``(h_col, h_norm, normalized)``; ``w`` is consumed either way.
        Callers use it on iterations that always continue (inner levels /
        no early-stop), where the normalization is unconditional.
        """
        h_col, w, h_norm = self.orthogonalize(basis, j, w, vec_prec,
                                              scratch=scratch, record=record)
        normalized = h_norm != 0.0 and np.isfinite(h_norm)
        if normalized:
            from ..sparse import vectorops as vo

            basis[j + 1] = vo.scal(1.0 / h_norm, w, record=record)
        return h_col, h_norm, normalized

    # ------------------------------------------------------------------ #
    # FGMRES building blocks
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def orthogonalize(self, basis: np.ndarray, j: int, w: np.ndarray,
                      vec_prec: Precision, scratch=None, record: bool = True):
        """Classical Gram-Schmidt of ``w`` against ``basis[:j+1]`` (rows).

        Returns ``(h_col, w_orth, h_norm)`` where ``h_col`` has length
        ``j + 2`` with ``h_col[j+1] == h_norm`` in the level dtype.

        ``w`` is *consumed*: a backend may overwrite it in place (the fast
        engine does when given a scratch arena), so callers must pass a vector
        they no longer need — e.g. a fresh matvec result — and use only the
        returned ``w_orth``.
        """

    @abc.abstractmethod
    def combine(self, z_vectors: np.ndarray, y: np.ndarray, k: int,
                vec_prec: Precision, record: bool = True) -> np.ndarray:
        """``z = sum_i y[i] * z_vectors[i]`` over the first ``k`` rows."""

    # ------------------------------------------------------------------ #
    # Factorizations
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def ilu0_factor(self, matrix, alpha: float = 1.0,
                    breakdown_shift: float = 1e-12):
        """ILU(0) on the pattern of ``matrix``; returns ``(L, U)`` CSR factors."""

    # ------------------------------------------------------------------ #
    # Shared batched-recording helpers (identical totals on every backend)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _record_spmv(mat_prec, vec_prec, out_prec, compute, n: int, nnz: int,
                     index_bytes: int) -> None:
        record_kernel("spmv")
        record_bytes(mat_prec, nnz * mat_prec.bytes, index_bytes=index_bytes)
        record_bytes(vec_prec, n * vec_prec.bytes)
        record_bytes(out_prec, n * out_prec.bytes)
        record_flops(compute, 2 * nnz)

    @staticmethod
    def _record_trsv(factor, vec_prec, out_prec, compute) -> None:
        nnz = factor.off_vals.size + (0 if factor.unit_diagonal else factor.nrows)
        record_kernel("trsv")
        record_bytes(factor.precision, nnz * factor.precision.bytes,
                     index_bytes=factor.off_cols.size * BYTES_PER_INDEX)
        record_bytes(vec_prec, factor.nrows * vec_prec.bytes)
        record_bytes(out_prec, factor.nrows * out_prec.bytes)
        record_flops(compute, 2 * factor.off_vals.size + 2 * factor.nrows)

    @staticmethod
    def _record_stencil(mat_prec, vec_prec, out_prec, compute, n: int, nnz: int,
                        npoints: int, k: int = 1) -> None:
        """Traffic of ``k`` fused stencil applies (shared by every backend).

        A matrix-free apply reads the input vector and the ``npoints``-entry
        coefficient table and writes the output — no value or index streams,
        which is exactly the ``cA`` collapse the cost model predicts.  Flops
        match the assembled SpMV (one multiply-add per structural nonzero).
        """
        if not counters_enabled():
            return
        record_kernel("stencil", k)
        record_bytes(mat_prec, k * npoints * mat_prec.bytes)
        record_bytes(vec_prec, k * n * vec_prec.bytes)
        record_bytes(out_prec, k * n * out_prec.bytes)
        record_flops(compute, k * 2 * nnz)

    @staticmethod
    def _record_spmm(mat_prec, vec_prec, out_prec, compute, n: int, nnz: int,
                     index_bytes: int, k: int) -> None:
        """Batched equivalent of ``k`` SpMVs: per-column counter parity with
        the column-loop oracle (the traffic model counts logical per-column
        traffic; amortization shows up in wall-clock, not in the counters)."""
        record_kernel("spmv", k)
        record_bytes(mat_prec, k * nnz * mat_prec.bytes, index_bytes=k * index_bytes)
        record_bytes(vec_prec, k * n * vec_prec.bytes)
        record_bytes(out_prec, k * n * out_prec.bytes)
        record_flops(compute, k * 2 * nnz)

    @staticmethod
    def _record_trsm(factor, vec_prec, out_prec, compute, k: int) -> None:
        """Batched equivalent of ``k`` triangular solves (per-column parity)."""
        nnz = factor.off_vals.size + (0 if factor.unit_diagonal else factor.nrows)
        record_kernel("trsv", k)
        record_bytes(factor.precision, k * nnz * factor.precision.bytes,
                     index_bytes=k * factor.off_cols.size * BYTES_PER_INDEX)
        record_bytes(vec_prec, k * factor.nrows * vec_prec.bytes)
        record_bytes(out_prec, k * factor.nrows * out_prec.bytes)
        record_flops(compute, k * (2 * factor.off_vals.size + 2 * factor.nrows))

    @staticmethod
    def _record_axpy(px: Precision, py: Precision, out_prec: Precision,
                     compute: Precision, n: int, k: int = 1) -> None:
        """Traffic of ``k`` axpy-shaped updates (parity with ``vo.axpy``)."""
        if not counters_enabled():
            return
        record_kernel("axpy", k)
        record_bytes(px, k * n * px.bytes)
        record_bytes(py, k * n * py.bytes)
        record_bytes(out_prec, k * n * out_prec.bytes)
        record_flops(compute, 2 * k * n)

    @staticmethod
    def _record_scal(p: Precision, n: int) -> None:
        """Traffic of one scal (parity with ``vo.scal``)."""
        if not counters_enabled():
            return
        record_kernel("scal")
        record_bytes(p, 2 * n * p.bytes)
        record_flops(p, n)

    @staticmethod
    def _record_gram_schmidt(p: Precision, n: int, ncols: int) -> None:
        """Batched equivalent of ``ncols`` dots + ``ncols`` axpys + one norm."""
        if not counters_enabled():
            return
        record_kernel("dot", ncols)
        record_bytes(p, 2 * ncols * n * p.bytes)
        record_flops(p, 2 * ncols * n)
        record_kernel("axpy", ncols)
        record_bytes(p, 3 * ncols * n * p.bytes)
        record_flops(p, 2 * ncols * n)
        record_kernel("norm")
        record_bytes(p, n * p.bytes)
        record_flops(p, 2 * n)

    @staticmethod
    def _record_combine(p: Precision, n: int, k: int) -> None:
        """Batched equivalent of ``k`` axpys accumulating the solution."""
        if not counters_enabled():
            return
        record_kernel("axpy", k)
        record_bytes(p, 3 * k * n * p.bytes)
        record_flops(p, 2 * k * n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
