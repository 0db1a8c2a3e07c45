"""Level-scheduled sparse triangular solves.

The block-Jacobi ILU(0)/IC(0) preconditioner of the CPU experiments applies
``M^{-1} r`` through one forward (lower) and one backward (upper) triangular
solve per block.  A naive row-by-row substitution is a Python-level loop over
every row of every block at every preconditioner application, which is far too
slow for the experiment suite.  Instead we use *level scheduling* — the same
technique GPU triangular-solve kernels use — computing once, at factorization
time, a partition of the rows into dependency levels; at solve time each level
is processed with vectorized gathers and segment sums.

The substitution kernel dispatches through the active :mod:`repro.backends`
engine.  The ``fast`` backend additionally caches per-level gather indices on
the factor (``_fast_plan``) so repeated applications do no index arithmetic.

Precision: gathers and the per-level update run in the promotion of the factor
and right-hand-side precisions, and the solution vector is stored back in the
requested output precision after each level, so low-precision rounding
accumulates level by level as it would element-by-element on hardware.
"""

from __future__ import annotations

import numpy as np

from ..backends import get_backend
from ..backends.native import NativeCache
from ..backends.workspace import ScratchOwner
from ..precision import Precision, as_precision, precision_of_dtype
from .csr import CSRMatrix

__all__ = ["TriangularFactor", "compute_levels", "clear_levels_memo",
           "fuse_block_diagonal", "solve_lower", "solve_upper"]


#: structural memo for level schedules, keyed by the dependency edge list.
#: The ILU(0) elimination order, the resulting ``L`` factor's solve schedule
#: and every ``astype``/refactorization of the same pattern share one entry,
#: so block-Jacobi setup derives each block's levels once instead of three
#: times.  Bounded LRU; entries are treated as immutable by all readers.
_LEVELS_MEMO: "dict[str, list[np.ndarray]]" = {}
_LEVELS_MEMO_MAX = 64
_LEVELS_MEMO_LOCK = None  # created lazily to keep import light


def _levels_lock():
    global _LEVELS_MEMO_LOCK
    if _LEVELS_MEMO_LOCK is None:
        import threading
        _LEVELS_MEMO_LOCK = threading.Lock()
    return _LEVELS_MEMO_LOCK


def clear_levels_memo() -> None:
    """Forget memoized level schedules (tests/benchmarks)."""
    with _levels_lock():
        _LEVELS_MEMO.clear()


def _memo_put(key: str, levels: list[np.ndarray]) -> None:
    with _levels_lock():
        if key not in _LEVELS_MEMO and len(_LEVELS_MEMO) >= _LEVELS_MEMO_MAX:
            _LEVELS_MEMO.pop(next(iter(_LEVELS_MEMO)))
        _LEVELS_MEMO[key] = levels


def _levels_from_arrays(arrays: dict | None, n: int) -> list[np.ndarray] | None:
    """Rebuild a level schedule from a cached payload; ``None`` if unusable."""
    if arrays is None:
        return None
    try:
        rows = np.ascontiguousarray(arrays["rows"], dtype=np.int32)
        sizes = np.ascontiguousarray(arrays["sizes"], dtype=np.int64)
    except Exception:
        return None
    if sizes.ndim != 1 or rows.ndim != 1 or int(sizes.sum()) != rows.size:
        return None
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        return None
    return np.split(rows, np.cumsum(sizes)[:-1])


def compute_levels(indices: np.ndarray, indptr: np.ndarray, lower: bool) -> list[np.ndarray]:
    """Partition the rows of a triangular CSR matrix into dependency levels.

    Row ``i`` of a lower-triangular matrix depends on every column ``j < i``
    present in the row; its level is ``1 + max(level of its dependencies)``.
    Rows in the same level are mutually independent and can be solved together.

    Computed by vectorized frontier peeling (Kahn rounds): round ``r``
    removes exactly the rows whose dependencies were all removed in earlier
    rounds, which is the longest-dependency-chain level by induction — the
    same partition the row-by-row recurrence produces, with each level
    ascending by row index (``flatnonzero`` order matches the stable argsort
    of the level array).  One ``O(frontier edges)`` numpy pass per level
    replaces the former Python loop over all ``n`` rows, which dominated
    block-Jacobi factorization cold-start.

    Schedules are memoized in-process by the structural hash of the
    dependency edge list and, with ``REPRO_ARTIFACTS`` set, persisted across
    processes through :mod:`repro.cache`.
    """
    n = indptr.size - 1
    if n == 0:
        return []
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    cols = indices.astype(np.int64, copy=False)
    mask = cols < rows if lower else cols > rows
    dep_src = cols[mask]                 # j: the dependency
    dep_dst = rows[mask]                 # i: the dependent row

    from ..cache import artifact_key, artifacts_enabled, load_arrays, store_arrays

    key = artifact_key("levels", n, dep_src, dep_dst)
    with _levels_lock():
        cached = _LEVELS_MEMO.get(key)
    if cached is not None:
        return list(cached)
    persist = artifacts_enabled()
    if persist:
        levels = _levels_from_arrays(load_arrays("levels", key), n)
        if levels is not None:
            _memo_put(key, levels)
            return list(levels)

    from time import perf_counter
    start = perf_counter()
    levels = _peel_levels(n, dep_src, dep_dst)
    cost_ms = (perf_counter() - start) * 1e3
    _memo_put(key, levels)
    if persist:
        sizes = np.array([lvl.size for lvl in levels], dtype=np.int64)
        rows_flat = (np.concatenate(levels) if levels
                     else np.empty(0, dtype=np.int32))
        store_arrays("levels", key, {"rows": rows_flat, "sizes": sizes},
                     cost_ms=cost_ms)
    return list(levels)


def _peel_levels(n: int, dep_src: np.ndarray, dep_dst: np.ndarray) -> list[np.ndarray]:
    """Frontier peeling over the dependency edge list (see compute_levels)."""
    indegree = np.bincount(dep_dst, minlength=n)

    # adjacency j -> dependents i, CSR-shaped over sources (edges arrive
    # row-major, i.e. sorted by i; a stable sort by j keeps per-source
    # dependents ascending)
    order = np.argsort(dep_src, kind="stable")
    adj_dst = dep_dst[order]
    adj_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(dep_src, minlength=n), out=adj_ptr[1:])

    levels: list[np.ndarray] = []
    frontier = np.flatnonzero(indegree == 0)
    from ..backends.base import segment_ramp

    while frontier.size:
        levels.append(frontier.astype(np.int32))
        starts = adj_ptr[frontier]
        counts = adj_ptr[frontier + 1] - starts
        total = int(counts.sum())
        if total == 0:
            break                        # no dependents left anywhere
        idx = np.repeat(starts, counts) + segment_ramp(counts)
        # decrement only the rows actually reached this round (each edge is
        # visited exactly once over the whole peel, so total work stays
        # O(nnz log nnz) even for chain-structured factors with n levels);
        # np.unique sorts, keeping each frontier ascending by row index
        cand, dec = np.unique(adj_dst[idx], return_counts=True)
        indegree[cand] -= dec
        frontier = cand[indegree[cand] == 0]
    return levels


class TriangularFactor(ScratchOwner):
    """A triangular CSR factor prepared for repeated level-scheduled solves.

    Parameters
    ----------
    matrix:
        Triangular :class:`CSRMatrix` (strictly or including the diagonal).
    lower:
        ``True`` for a lower-triangular factor (forward substitution).
    unit_diagonal:
        If ``True``, the diagonal is taken to be 1 and any stored diagonal
        entries are ignored (the ``L`` factor of ILU(0)).
    """

    def __init__(self, matrix: CSRMatrix, lower: bool, unit_diagonal: bool = False) -> None:
        self.matrix = matrix
        self.lower = bool(lower)
        self.unit_diagonal = bool(unit_diagonal)
        n = matrix.nrows
        self.levels = compute_levels(matrix.indices, matrix.indptr, lower)

        # Pre-split the rows into off-diagonal part + diagonal in one
        # vectorized pass so neither construction nor solve does per-row work.
        indptr = matrix.indptr
        indices = matrix.indices
        values = matrix.values
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        if lower:
            off_mask = indices < rows
        else:
            off_mask = indices > rows

        diag = np.ones(n, dtype=np.float64) if unit_diagonal else np.zeros(n, dtype=np.float64)
        if not unit_diagonal:
            diag_mask = indices == rows
            has_diag = np.zeros(n, dtype=bool)
            has_diag[rows[diag_mask]] = True
            if not has_diag.all():
                missing = int(np.argmin(has_diag))
                raise ValueError(f"missing diagonal entry in row {missing} of triangular factor")
            diag[rows[diag_mask]] = values[diag_mask].astype(np.float64)

        self.off_cols = indices[off_mask]
        self.off_vals = values[off_mask]
        off_rowptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows[off_mask], minlength=n), out=off_rowptr[1:])
        self.off_rowptr = off_rowptr
        self.diag = diag
        self.inv_diag = np.where(diag != 0.0, 1.0 / np.where(diag == 0.0, 1.0, diag), 0.0)
        self.precision = precision_of_dtype(values.dtype)
        # fast-backend caches: per-level gather plan (layout-only, shared by
        # astype copies), per-dtype gathered off-diagonal values, per-dtype
        # native sweeps (empty after pickling), and per-thread scratch buffers
        self._fast_plan: list | None = None
        self._fast_vals: dict = {}
        self._native = NativeCache()
        self._scratch = None
        self._par = None          # repro.par.ParState (partitions + verdicts)

    # ------------------------------------------------------------------ #
    @property
    def nrows(self) -> int:
        return self.matrix.nrows

    @property
    def nlevels(self) -> int:
        return len(self.levels)

    def astype(self, precision: Precision | str) -> "TriangularFactor":
        """Re-cast the factor values (and diagonal) to ``precision``."""
        p = as_precision(precision)
        out = object.__new__(TriangularFactor)
        out.matrix = self.matrix.astype(p)
        out.lower = self.lower
        out.unit_diagonal = self.unit_diagonal
        out.levels = self.levels
        out.off_cols = self.off_cols
        out.off_vals = self.off_vals.astype(p.dtype)
        out.off_rowptr = self.off_rowptr
        out.diag = p.dtype.type(1.0) * self.diag.astype(p.dtype).astype(np.float64)
        out.inv_diag = self.inv_diag.astype(p.dtype).astype(np.float64)
        out.precision = p
        out._fast_plan = self._fast_plan   # gather plan is layout-only: share it
        out._fast_vals = {}                # value-dependent: per instance
        out._native = self._native.shared()
        out._scratch = None
        out._par = None
        return out

    # ------------------------------------------------------------------ #
    def solve(self, b: np.ndarray, out_precision: Precision | str | None = None,
              record: bool = True) -> np.ndarray:
        """Solve ``T x = b`` by level-scheduled substitution."""
        return get_backend().trsv(self, np.asarray(b), out_precision=out_precision,
                                  record=record)

    def solve_batch(self, b: np.ndarray,
                    out_precision: Precision | str | None = None,
                    record: bool = True) -> np.ndarray:
        """Solve ``T X = B`` for ``B`` of shape ``(n, k)`` (one RHS per column).

        The ``fast`` engine sweeps each dependency level once for all columns,
        amortizing the level-schedule traversal; ``reference`` loops the
        single-RHS oracle.
        """
        b = np.asarray(b)
        if b.ndim != 2 or b.shape[0] != self.nrows:
            raise ValueError(f"batched triangular solve needs B of shape "
                             f"({self.nrows}, k); got {b.shape}")
        return get_backend().trsm(self, b, out_precision=out_precision,
                                  record=record)


def fuse_block_diagonal(factors: list[TriangularFactor]) -> TriangularFactor:
    """Fuse independent factors into one block-diagonal factor.

    The blocks of a block-Jacobi preconditioner are mutually independent, so
    their dependency-level schedules merge — level ``i`` of every block can
    solve together — and one level sweep of the fused factor serves all
    blocks at once (the emulation analogue of thread-per-block execution).

    The fused factor copies each block's *numerical state* (off-diagonal
    values, diagonal, inverse diagonal) verbatim rather than re-deriving it
    from the concatenated matrix, so solving with it is bit-identical to the
    per-block loop even after precision casts (``astype`` rounds a factor's
    cached ``inv_diag``; recomputing ``1/diag`` from cast values would
    differ).
    """
    if not factors:
        raise ValueError("fuse_block_diagonal needs at least one factor")
    first = factors[0]
    if any(f.lower != first.lower or f.unit_diagonal != first.unit_diagonal
           or f.precision != first.precision for f in factors):
        raise ValueError("fused factors must agree on orientation, diagonal "
                         "convention and precision")
    sizes = [f.nrows for f in factors]
    offsets = np.cumsum([0] + sizes[:-1])
    n = int(sum(sizes))

    out = object.__new__(TriangularFactor)
    # block-diagonal CSR of the underlying matrices (dtype preserved)
    values = np.concatenate([f.matrix.values for f in factors])
    indices = np.concatenate([f.matrix.indices.astype(np.int64) + off
                              for f, off in zip(factors, offsets)]).astype(np.int32)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.concatenate([np.diff(f.matrix.indptr) for f in factors]),
              out=indptr[1:])
    out.matrix = CSRMatrix(values, indices, indptr.astype(np.int32), (n, n))

    out.lower = first.lower
    out.unit_diagonal = first.unit_diagonal
    out.off_cols = np.concatenate([f.off_cols.astype(np.int64) + off
                                   for f, off in zip(factors, offsets)]).astype(
                                       first.off_cols.dtype)
    out.off_vals = np.concatenate([f.off_vals for f in factors])
    off_rowptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.concatenate([np.diff(f.off_rowptr) for f in factors]),
              out=off_rowptr[1:])
    out.off_rowptr = off_rowptr
    out.diag = np.concatenate([f.diag for f in factors])
    out.inv_diag = np.concatenate([f.inv_diag for f in factors])
    out.precision = first.precision
    # Merged level schedule, one pass over all blocks: concatenate every
    # block's (level id, globalized row) pairs and stable-sort by level id —
    # block order within a level and row order within a block are preserved,
    # so the result matches the former per-level concatenation loop exactly.
    nlevels = max(f.nlevels for f in factors)
    if nlevels == 0:
        out.levels = []
    else:
        leveled = [(f, off) for f, off in zip(factors, offsets) if f.nlevels]
        level_sizes = np.concatenate(
            [[lvl.size for lvl in f.levels] for f, _ in leveled]).astype(np.int64)
        level_ids = np.concatenate(
            [np.arange(f.nlevels, dtype=np.int64) for f, _ in leveled])
        rows_all = np.concatenate(
            [np.concatenate(f.levels).astype(np.int64) + off
             for f, off in leveled])
        order = np.argsort(np.repeat(level_ids, level_sizes), kind="stable")
        rows_sorted = rows_all[order].astype(np.int32)
        merged_sizes = np.bincount(level_ids, weights=level_sizes,
                                   minlength=nlevels).astype(np.int64)
        out.levels = np.split(rows_sorted, np.cumsum(merged_sizes)[:-1])
    out._fast_plan = None
    out._fast_vals = {}
    out._native = NativeCache()
    out._scratch = None
    out._par = None
    return out


def solve_lower(matrix: CSRMatrix, b: np.ndarray, unit_diagonal: bool = False,
                record: bool = True) -> np.ndarray:
    """One-shot forward substitution (builds the level schedule each call)."""
    return TriangularFactor(matrix, lower=True, unit_diagonal=unit_diagonal).solve(b, record=record)


def solve_upper(matrix: CSRMatrix, b: np.ndarray, unit_diagonal: bool = False,
                record: bool = True) -> np.ndarray:
    """One-shot backward substitution (builds the level schedule each call)."""
    return TriangularFactor(matrix, lower=False, unit_diagonal=unit_diagonal).solve(b, record=record)
