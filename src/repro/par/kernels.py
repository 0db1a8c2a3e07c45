"""Partitioned executors for the thread-parallel kernels.

Each function here runs one slab/chunk decomposition of a hot kernel across
the worker pool (:func:`repro.par.pool.run_tasks`).  The determinism
contract every executor keeps:

* a worker computes its output rows with **exactly the serial kernel's
  arithmetic** — the same per-element products, the same per-row
  left-to-right ``reduceat`` reductions, the same staged-fp16 rounding
  chain — only restricted to a contiguous row range;
* workers write **disjoint output slices** (or disjoint scatter index sets
  for the triangular solves), so there are no cross-thread read-modify-write
  hazards and no accumulation-order ambiguity.

Together these make the partitioned result bit-identical to the serial one
for every thread count, which is what the ``REPRO_THREADS`` equivalence
sweep in ``tests/test_parallel.py`` pins.

Worker-side temporaries come from a module-level per-thread arena
(:func:`slab_workspace`) — pool workers are persistent, so the buffers warm
up once and are reused across calls; the buffers are capacity-grown
(:meth:`~repro.backends.workspace.Workspace.get_rows`), so varying slab
sizes re-slice one allocation instead of keying a new buffer per size.
Callers never see these arenas: shared inputs (value casts, the input
vector) are read-only inside workers, and results land in caller-allocated
fresh output arrays.

Counter recording stays entirely in the calling thread (counters are
thread-local): the fast backend records the same totals it records for the
serial kernel, so partitioning is invisible to the traffic model —
per-partition counter parity for free.
"""

from __future__ import annotations

import numpy as np

from ..backends.workspace import ThreadLocalWorkspace, Workspace
from .pool import run_tasks

__all__ = [
    "slab_workspace",
    "run_spans",
    "spmv_csr_slabs",
    "spmm_csr_slabs",
    "native_csr_slabs",
    "csr_matvec_slabs",
    "csr_matvecs_slabs",
    "spmv_ell_slabs",
    "spmm_ell_slabs",
    "trsv_level_chunks",
    "trsm_level_chunks",
]

_SLAB_TLS = ThreadLocalWorkspace()


def slab_workspace() -> Workspace:
    """The calling thread's slab-scratch arena (one per pool worker)."""
    return _SLAB_TLS.workspace


def run_spans(spans, fn) -> None:
    """Run ``fn(lo, hi)`` for every span, one task per span."""
    run_tasks([(lambda lo=lo, hi=hi: fn(lo, hi)) for lo, hi in spans])


def _flat(ws: Workspace, name: str, size: int, dtype) -> np.ndarray:
    """A capacity-grown 1-D scratch vector (re-sliced across slab sizes)."""
    return ws.get_rows(name, int(size), (), dtype)


def _block(ws: Workspace, name: str, size: int, k: int, dtype) -> np.ndarray:
    """A capacity-grown ``(size, k)`` scratch block."""
    return ws.get_rows(name, int(size), (int(k),), dtype)


# ---------------------------------------------------------------------- #
# CSR / ELL sparse products (gather-multiply-reduceat recipe)
# ---------------------------------------------------------------------- #
def _segment_products_into(ws: Workspace, vals_seg, gather_idx, x_c, staged,
                           round_into) -> np.ndarray:
    """The slab's product stream, exactly as the serial kernel computes it.

    Direct mode: ``vals * x[idx]`` in the compute dtype.  Staged-fp16 mode
    (``staged`` true): one fp32 gather-multiply pass snapped back onto the
    fp16 grid — ``vals_seg``/``x_c`` are then the fp32-staged arrays and the
    returned products are fp16, matching the serial staged path bit for bit.
    """
    size = gather_idx.shape[0]
    if staged:
        prods32 = _flat(ws, "par_prod32", size, x_c.dtype)
        np.take(x_c, gather_idx, out=prods32)
        np.multiply(prods32, vals_seg, out=prods32)
        prods = _flat(ws, "par_prod16", size, np.float16)
        return round_into(prods32, prods, scratch=ws)
    prods = _flat(ws, "par_prod", size, x_c.dtype)
    np.take(x_c, gather_idx, out=prods)
    np.multiply(prods, vals_seg, out=prods)
    return prods


def spmv_csr_slabs(vals_c, indices, x_c, y, slabs, staged=False,
                   round_into=None) -> np.ndarray:
    """Partitioned gather-path CSR SpMV into caller-allocated ``y``."""
    from ..backends.base import row_segment_sums

    def task(r0, r1, s0, s1, local):
        ws = slab_workspace()
        prods = _segment_products_into(ws, vals_c[s0:s1], indices[s0:s1], x_c,
                                       staged, round_into)
        row_segment_sums(prods, local, y[r0:r1])

    run_tasks([(lambda s=s: task(*s)) for s in slabs])
    return y


def spmm_csr_slabs(vals_c, indices, x_c, y, slabs, staged=False,
                   round_into=None) -> np.ndarray:
    """Partitioned gather-path CSR SpMM (``x_c``/``y`` of shape ``(n, k)``)."""
    from ..backends.base import row_segment_sums

    k = x_c.shape[1]

    def task(r0, r1, s0, s1, local):
        ws = slab_workspace()
        idx = indices[s0:s1]
        vals_seg = vals_c[s0:s1]
        if staged:
            prods32 = _block(ws, "par_prod32_k", s1 - s0, k, x_c.dtype)
            np.take(x_c, idx, axis=0, out=prods32)
            np.multiply(prods32, vals_seg[:, None], out=prods32)
            prods = _block(ws, "par_prod16_k", s1 - s0, k, np.float16)
            round_into(prods32, prods, scratch=ws)
        else:
            prods = _block(ws, "par_prod_k", s1 - s0, k, x_c.dtype)
            np.take(x_c, idx, axis=0, out=prods)
            np.multiply(prods, vals_seg[:, None], out=prods)
        row_segment_sums(prods, local, y[r0:r1])

    run_tasks([(lambda s=s: task(*s)) for s in slabs])
    return y


def native_csr_slabs(product, x, y0, y, slabs) -> np.ndarray:
    """Partitioned compiled CSR product or fused residual: one
    :class:`~repro.backends.native.CSRProduct` call per row slab into the
    slab's rows of ``y`` (the kernel releases the GIL, so slabs run in
    parallel); ``x``/``y0``/``y`` come from ``product.operands``."""
    run_tasks([(lambda r0=s[0], r1=s[1]: product.rows(r0, r1, x, y0, y))
               for s in slabs])
    return y


def csr_matvec_slabs(ncols, vals, indices, y, x_c, slabs) -> np.ndarray:
    """Partitioned scipy compiled CSR matvec, accumulating into ``y`` rows
    (the fallback of :func:`native_csr_slabs`).

    Matches the serial ``csr_matvec`` semantics (``y[i] += row · x``) per
    row; callers pre-fill ``y`` (zeros for a plain product, a copy of the
    combine operand for the fused residual).
    """
    from scipy.sparse import _sparsetools

    def task(r0, r1, s0, s1, local):
        _sparsetools.csr_matvec(r1 - r0, ncols, local, indices[s0:s1],
                                vals[s0:s1], x_c, y[r0:r1])

    run_tasks([(lambda s=s: task(*s)) for s in slabs])
    return y


def csr_matvecs_slabs(ncols, k, vals, indices, y, x_c, slabs) -> np.ndarray:
    """Partitioned scipy compiled CSR SpMM accumulation (C-ordered ``y``)."""
    from scipy.sparse import _sparsetools

    x_flat = x_c.ravel()

    def task(r0, r1, s0, s1, local):
        _sparsetools.csr_matvecs(r1 - r0, ncols, k, local,
                                 indices[s0:s1], vals[s0:s1], x_flat,
                                 y[r0:r1].ravel())

    run_tasks([(lambda s=s: task(*s)) for s in slabs])
    return y


def spmv_ell_slabs(vals_rm, cols_rm, x_c, y, slabs, staged=False,
                   round_into=None) -> np.ndarray:
    """Partitioned row-major sliced-ELL SpMV (same recipe as the CSR path,
    over the row-major gather plan's entry stream)."""
    return spmv_csr_slabs(vals_rm, cols_rm, x_c, y, slabs, staged=staged,
                          round_into=round_into)


def spmm_ell_slabs(vals_rm, cols_rm, x_c, y, slabs) -> np.ndarray:
    """Partitioned row-major sliced-ELL SpMM."""
    return spmm_csr_slabs(vals_rm, cols_rm, x_c, y, slabs)


# ---------------------------------------------------------------------- #
# Within-level triangular substitution
# ---------------------------------------------------------------------- #
def trsv_level_chunks(x, b_c, rows, gather_cols, lv, inv, chunks) -> None:
    """One dependency level of a triangular solve, chunked across threads.

    ``x`` is the shared solution vector: workers read columns solved by
    *earlier* levels and scatter into this level's disjoint row sets —
    exactly the serial per-level update ``x[rows] = (b[rows] − Σ) · inv``
    restricted to each chunk.  The caller barriers between levels
    (``run_tasks`` joins), so no worker ever reads a row still being
    written.
    """

    def task(c0, c1, g0, g1, local_off, mask):
        rows_c = rows[c0:c1]
        ws = slab_workspace()
        sums = _flat(ws, "par_trsv_sums", c1 - c0, x.dtype)
        if g1 == g0:
            sums.fill(0)
        elif mask is None:
            np.add.reduceat(lv[g0:g1] * x[gather_cols[g0:g1]], local_off,
                            out=sums)
        else:
            sums.fill(0)
            sums[mask] = np.add.reduceat(lv[g0:g1] * x[gather_cols[g0:g1]],
                                         local_off)
        x[rows_c] = (b_c[rows_c] - sums) * inv[c0:c1]

    run_tasks([(lambda c=c: task(*c)) for c in chunks])


def trsm_level_chunks(x, b_c, rows, gather_cols, lv, inv, chunks) -> None:
    """Batched (multi-RHS) variant of :func:`trsv_level_chunks`."""
    k = x.shape[1]

    def task(c0, c1, g0, g1, local_off, mask):
        rows_c = rows[c0:c1]
        ws = slab_workspace()
        sums = _block(ws, "par_trsm_sums", c1 - c0, k, x.dtype)
        if g1 == g0:
            sums.fill(0)
        elif mask is None:
            np.add.reduceat(x[gather_cols[g0:g1], :] * lv[g0:g1, None],
                            local_off, out=sums)
        else:
            sums.fill(0)
            sums[mask] = np.add.reduceat(
                x[gather_cols[g0:g1], :] * lv[g0:g1, None], local_off)
        x[rows_c] = (b_c[rows_c] - sums) * inv[c0:c1, None]

    run_tasks([(lambda c=c: task(*c)) for c in chunks])
