"""Matrix-free stencil operator over a regular tensor grid.

A constant-coefficient stencil on an ``n = prod(dims)`` grid is fully
described by a handful of (offset, value) pairs — the 27-point HPCG/HPGMP
stencils, the 5/7-point Poisson stencils, upwind convection–diffusion and
anisotropic diffusion all fit.  Storing only those ``s`` coefficients removes
the assembled formats' memory floor entirely: the apply reads the input
vector and writes the output, with no value or index traffic (the cost
model's ``cA`` term collapses to the coefficient table).

The apply dispatches through the active kernel backend
(:meth:`~repro.backends.base.KernelBackend.apply_stencil`): ``reference``
runs the loop-faithful per-offset gather oracle, ``fast`` accumulates
grid-shaped slabs in place.  Both sum each row's contributions in ascending
column order — exactly the order the assembled CSR kernels use — so a
stencil apply is *bit-identical* to the reference SpMV on the matrix
:meth:`assemble` builds (the fast CSR path may differ in the last ulp where
it uses the scipy-order compiled matvec; the equivalence tests pin both).

Grid convention: ``dims`` is C-ordered (last axis fastest), matching
``numpy.ravel_multi_index``.  The generators in :mod:`repro.matgen.operators`
translate each assembled generator's grid layout into this convention so the
operator and the assembled matrix agree entry for entry.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..backends import get_backend
from ..backends.workspace import ScratchOwner, ThreadLocalWorkspace
from ..precision import Precision, as_precision
from .base import LinearOperator, derived_fingerprint

__all__ = ["StencilOperator"]


class StencilOperator(LinearOperator, ScratchOwner):
    """Matrix-free ``A`` defined by constant stencil coefficients on a grid.

    Parameters
    ----------
    dims:
        Grid extents, C-ordered (last axis fastest).
    offsets:
        ``(s, len(dims))`` integer array of neighbour offsets; must contain
        no duplicates.  Entry ``A[i, j]`` exists for ``j = i + offset``
        whenever the offset stays inside the grid (Dirichlet truncation at
        the boundary, as the assembled generators do).
    values:
        ``(s,)`` coefficients, one per offset.
    precision:
        Storage precision of the coefficients (the operator analogue of the
        assembled value array's dtype).
    """

    def __init__(self, dims, offsets, values,
                 precision: Precision | str = Precision.FP64) -> None:
        self.dims = tuple(int(d) for d in dims)
        if not self.dims or min(self.dims) < 1:
            raise ValueError("grid dimensions must be positive")
        offsets = np.atleast_2d(np.asarray(offsets, dtype=np.int64))
        values = np.asarray(values, dtype=np.float64).ravel()
        if offsets.shape != (values.size, len(self.dims)):
            raise ValueError(f"offsets must have shape (s, {len(self.dims)}); "
                             f"got {offsets.shape} for {values.size} values")
        if len(np.unique(offsets, axis=0)) != offsets.shape[0]:
            raise ValueError("duplicate stencil offsets")

        n = 1
        for d in self.dims:
            n *= d
        self.shape = (n, n)
        # C-order strides in elements: strides[d] = prod(dims[d+1:])
        strides = np.ones(len(self.dims), dtype=np.int64)
        for d in range(len(self.dims) - 2, -1, -1):
            strides[d] = strides[d + 1] * self.dims[d + 1]
        self.strides = strides

        # Offsets are stored sorted by linear offset: per row, ascending
        # linear offset is ascending column index, which is the summation
        # order of the assembled CSR kernels (bit-parity contract).
        lin = offsets @ strides
        order = np.argsort(lin, kind="stable")
        self.offsets = np.ascontiguousarray(offsets[order])
        self.linear_offsets = np.ascontiguousarray(lin[order])
        p = as_precision(precision)
        self.values = values[order].astype(p.dtype)
        # fp64 view of the *stored* (precision-rounded) coefficients: every
        # derived artifact — casts, assembly, the separable decomposition —
        # must describe the matrix this operator actually applies, mirroring
        # CSRMatrix semantics where a cast rounds the stored values
        self._values64 = self.values.astype(np.float64)

        # exact structural nonzeros: each offset contributes
        # prod_d max(0, dims[d] - |offset[d]|) entries
        spans = np.maximum(
            np.asarray(self.dims, dtype=np.int64)[None, :] - np.abs(self.offsets), 0)
        self._offset_counts = np.prod(spans, axis=1)
        self._nnz = int(self._offset_counts.sum())

        self._slice_plan: list | None = None
        self._separable: tuple | None | str = "unset"
        self._astype_cache: dict[Precision, "StencilOperator"] = {}
        self._fingerprint: str | None = None
        self._scratch: ThreadLocalWorkspace | None = None
        self._par = None          # repro.par.ParState, attached on first use

    # ------------------------------------------------------------------ #
    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    @property
    def nnz(self) -> int:
        return self._nnz

    @property
    def nnz_per_row(self) -> float:
        return self._nnz / max(1, self.nrows)

    @property
    def npoints(self) -> int:
        """Number of stencil points ``s`` (the whole coefficient storage)."""
        return int(self.values.size)

    def memory_bytes(self) -> int:
        """Coefficient table only — the point of being matrix-free."""
        return self.values.size * (self.precision.bytes + self.offsets.itemsize
                                   * self.offsets.shape[1])

    def apply_traffic_constant(self, value_precision: Precision | str = Precision.FP64
                               ) -> float:
        """The fused apply reads only the ``s``-entry coefficient table —
        the assembled ``cA`` collapses to ``s * value_bytes / (8 n)``."""
        p = as_precision(value_precision)
        return self.npoints * p.bytes / max(1, self.nrows) / 8.0

    def diagonal(self) -> np.ndarray:
        # the *stored* (precision-rounded) coefficient, like CSRMatrix.diagonal
        mask = self.linear_offsets == 0
        value = float(self.values[mask][0]) if mask.any() else 0.0
        return np.full(self.nrows, value, dtype=np.float64)

    # ------------------------------------------------------------------ #
    def apply(self, x: np.ndarray, out_precision: Precision | str | None = None,
              record: bool = True) -> np.ndarray:
        x = self._validate_vector(x)
        return get_backend().apply_stencil(self, x, out_precision=out_precision,
                                           record=record)

    def apply_batch(self, x: np.ndarray, out_precision: Precision | str | None = None,
                    record: bool = True) -> np.ndarray:
        x = self._validate_block(x)
        return get_backend().apply_stencil_batch(self, x, out_precision=out_precision,
                                                 record=record)

    # ------------------------------------------------------------------ #
    # Geometry shared by the backend kernels
    # ------------------------------------------------------------------ #
    def _bounds(self, offset: np.ndarray) -> list[tuple[int, int]]:
        """Per-axis ``[lo, hi)`` destination-coordinate range for one offset."""
        return [(max(0, -int(o)), d - max(0, int(o)))
                for o, d in zip(offset, self.dims)]

    def slice_plan(self) -> list[tuple[int, tuple, tuple]]:
        """``(position, dst_slices, src_slices)`` per contributing offset.

        Sorted by linear offset (ascending column order); cached — the plan
        is pure layout.  Used by the vectorized ``fast`` kernel.
        """
        plan = self._slice_plan
        if plan is None:
            plan = []
            for pos, offset in enumerate(self.offsets):
                bounds = self._bounds(offset)
                if any(lo >= hi for lo, hi in bounds):
                    continue
                dst = tuple(slice(lo, hi) for lo, hi in bounds)
                src = tuple(slice(lo + int(o), hi + int(o))
                            for (lo, hi), o in zip(bounds, offset))
                plan.append((pos, dst, src))
            self._slice_plan = plan
        return plan

    def offset_gathers(self):
        """Yield ``(position, dst_indices, src_indices)`` per contributing offset.

        Flat destination indices of the valid box, ascending, with
        ``src = dst + linear_offset``.  Computed transiently — no cached
        state; used by :meth:`assemble` and :meth:`csr_gather_plan`.
        """
        for pos, offset in enumerate(self.offsets):
            bounds = self._bounds(offset)
            if any(lo >= hi for lo, hi in bounds):
                continue
            dst = np.zeros(1, dtype=np.int64)
            for (lo, hi), stride in zip(bounds, self.strides):
                axis = np.arange(lo, hi, dtype=np.int64) * stride
                dst = (dst[:, None] + axis[None, :]).reshape(-1)
            yield pos, dst, dst + int(self.linear_offsets[pos])

    def csr_gather_plan(self):
        """``(indptr, entries)`` mapping each offset's products to CSR slots.

        ``entries`` is a list of ``(position, csr_positions, src_indices)``;
        writing ``values[position] * x[src]`` to ``csr_positions`` for every
        entry produces exactly the per-row, column-ordered product stream of
        the assembled matrix, so reducing it with the assembled kernels'
        ``row_segment_sums`` is *bit-identical* to the reference CSR SpMV.
        Computed transiently — the loop-faithful oracle carries no cache.
        """
        n = self.nrows
        gathers = list(self.offset_gathers())
        row_nnz = np.zeros(n, dtype=np.int64)
        for _, dst, _ in gathers:
            row_nnz[dst] += 1
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(row_nnz, out=indptr[1:])
        # offsets arrive in ascending linear-offset (= column) order, so a
        # running per-row rank assigns each product its in-row CSR slot
        rank = np.zeros(n, dtype=np.int64)
        entries = []
        for pos, dst, src in gathers:
            entries.append((pos, indptr[dst] + rank[dst], src))
            rank[dst] += 1
        return indptr, entries

    def box_separable(self):
        """Decomposition ``A = α·I + Conv(k_{D-1}) ∘ … ∘ Conv(k_0)``, if any.

        Detects stencils whose coefficient box factors as an outer product
        of per-axis 1-D kernels plus a diagonal correction — the HPCG/HPGMP
        box-stencil family (all off-diagonals the product of axis factors,
        diagonal adjusted).  The ``fast`` backend then applies the operator
        as one 1-D convolution sweep per axis instead of one slab update per
        stencil point, collapsing 27 read-modify-write passes into ~11.

        Returns ``None`` when the stencil is not separable or the sweep
        would not beat the per-offset path; otherwise ``(alpha, taps)``
        where ``taps[d]`` is a list of ``(offset, weight)`` pairs for axis
        ``d`` (the normalization is folded into axis 0).  Cached — pure
        coefficient analysis.
        """
        sep = self._separable
        if sep != "unset":
            return sep
        self._separable = sep = self._compute_box_separable()
        return sep

    def _compute_box_separable(self):
        ndim = len(self.dims)
        if ndim == 1:
            return None   # a 1-D sweep is the per-offset path
        offsets = self.offsets
        vals = self._values64    # the stored (precision-rounded) coefficients
        lo = offsets.min(axis=0)
        hi = offsets.max(axis=0)
        box = tuple((hi - lo + 1).tolist())
        dense = np.zeros(box)
        dense[tuple((offsets - lo).T)] = vals
        corner = dense[(0,) * ndim]
        if corner == 0.0:
            return None
        # axis cross-sections through the anchor corner; for a rank-1 box
        # (plus diagonal correction) the full tensor is their outer product
        # normalized by corner^(ndim-1)
        kernels = []
        for ax in range(ndim):
            idx = [0] * ndim
            idx[ax] = slice(None)
            kernels.append(dense[tuple(idx)].copy())
        product = kernels[0]
        for kern in kernels[1:]:
            product = np.multiply.outer(product, kern)
        product = product / corner ** (ndim - 1)
        center = tuple((-lo).tolist()) if bool(np.all((lo <= 0) & (hi >= 0))) else None
        expected = dense.copy()
        alpha = 0.0
        if center is not None:
            alpha = float(dense[center] - product[center])
            expected[center] = product[center]
        scale = float(np.max(np.abs(vals)))
        if not np.allclose(product, expected, rtol=1e-12, atol=1e-15 * scale):
            return None
        folded = [kernels[0] / corner ** (ndim - 1)] + kernels[1:]
        taps = []
        for ax, kern in enumerate(folded):
            axis_taps = [(int(lo[ax]) + j, float(w)) for j, w in enumerate(kern)
                         if w != 0.0]
            if not axis_taps:
                return None
            taps.append(axis_taps)
        # one pass per tap + the diagonal combine vs one pass per stencil point
        if sum(len(t) for t in taps) + 2 >= self.npoints:
            return None
        return alpha, taps

    # ------------------------------------------------------------------ #
    def assemble(self):
        """The equivalent assembled :class:`~repro.sparse.CSRMatrix`.

        Entry for entry what the matching :mod:`repro.matgen` generator
        builds; used by the equivalence tests and as an escape hatch for
        consumers that genuinely need entries (ILU-type preconditioners).
        """
        from ..sparse.coo import COOMatrix

        rows_list, cols_list, vals_list = [], [], []
        for pos, dst, src in self.offset_gathers():
            rows_list.append(dst)
            cols_list.append(src)
            vals_list.append(np.full(dst.size, self._values64[pos]))
        rows = np.concatenate(rows_list) if rows_list else np.empty(0, np.int64)
        cols = np.concatenate(cols_list) if cols_list else np.empty(0, np.int64)
        vals = np.concatenate(vals_list) if vals_list else np.empty(0, np.float64)
        csr = COOMatrix(rows.astype(np.int32), cols.astype(np.int32), vals,
                        self.shape).to_csr()
        return csr if self.precision == Precision.FP64 else csr.astype(self.precision)

    # ------------------------------------------------------------------ #
    def fingerprint(self) -> str:
        fp = self._fingerprint
        if fp is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(repr(("stencil", self.dims, str(self.values.dtype))).encode())
            h.update(self.offsets.tobytes())
            h.update(self.values.tobytes())
            fp = self._fingerprint = h.hexdigest()
        return fp

    def astype(self, precision: Precision | str) -> "StencilOperator":
        p = as_precision(precision)
        if p == self.precision:
            return self
        cached = self._astype_cache.get(p)
        if cached is None:
            cached = StencilOperator(self.dims, self.offsets, self._values64,
                                     precision=p)
            cached._fingerprint = derived_fingerprint(self.fingerprint(), "astype",
                                                      p.label)
            self._astype_cache[p] = cached
        return cached

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"StencilOperator(dims={self.dims}, points={self.npoints}, "
                f"precision={self.precision.label})")
