"""Richardson iteration with adaptive weight updating (Algorithm 1 of the paper).

The innermost level of F3R is a preconditioned Richardson solver:

    z_k = z_{k-1} + ω M (v − A z_{k-1}),   k = 1..m4,  z_0 = 0.

Because Richardson is a stationary method its convergence hinges on the weight
ω.  The paper's Algorithm 1 keeps one weight ω_k per inner iteration, shared
**globally across all invocations** of the Richardson level, and refreshes the
weights every ``c`` invocations using the locally optimal value

    ω'_k = (r_{k-1}, A M r_{k-1}) / (A M r_{k-1}, A M r_{k-1}),

blended by a cumulative average (Eq. 5).  On refresh invocations ω'_k itself is
used for the update (it minimizes that step's residual); on the other
invocations the blended ω_k is used and no extra SpMV/dots are needed.

Precision: the Richardson recurrence runs entirely in the level's precision
(fp16 in F3R) but the ω'_k computation is carried out in fp32, exactly as
stated in Section 4.3 of the paper.
"""

from __future__ import annotations

import numpy as np

from ..backends import get_backend
from ..backends.workspace import ThreadLocalWorkspace
from ..operators import as_operator
from ..perf.counters import counters_enabled, record_bytes, record_flops, record_kernel
from ..plans import plan_for, plans_enabled
from ..precision import (
    LevelPrecision,
    Precision,
    as_precision,
    precision_of_dtype,
    promote,
)
from ..sparse import vectorops as vo
from .base import InnerSolver
from .guards import check_finite, guards_enabled

__all__ = ["RichardsonLevel", "richardson_solve"]


class RichardsonLevel(InnerSolver):
    """The paper's Algorithm 1 as a reusable inner-solver level.

    Parameters
    ----------
    matrix:
        Coefficient operator (any :class:`~repro.operators.LinearOperator`
        or a raw :class:`~repro.sparse.CSRMatrix`) stored at the level's
        matrix precision (fp16 in F3R's default configuration); only
        ``apply``/``apply_batch`` are used.
    preconditioner:
        The primary preconditioner ``M`` (values typically stored in fp16).
    m:
        Number of Richardson iterations per invocation (``m4``; default 2).
    cycle:
        Weight-refresh period ``c`` (default 64).  Ignored when ``adaptive`` is
        ``False``.
    adaptive:
        If ``False``, the fixed ``weight`` is used for every iteration and no
        ω' computations are performed (the "static" strategy of Fig. 6).
    weight:
        Initial / fixed weight (the paper initializes the adaptive weights to 1).
    precisions:
        :class:`LevelPrecision` for the level (vectors fp16 by default).
    weight_precision:
        Precision of the ω' computation (fp32 per the paper).
    """

    def __init__(self, matrix, preconditioner, m: int = 2, cycle: int = 64,
                 adaptive: bool = True, weight: float = 1.0,
                 precisions: LevelPrecision | None = None,
                 weight_precision: Precision | str = Precision.FP32) -> None:
        if m < 1:
            raise ValueError("Richardson requires at least one iteration per invocation")
        if cycle < 1:
            raise ValueError("the weight-update cycle c must be >= 1")
        self.matrix = as_operator(matrix)
        self.preconditioner = preconditioner
        self.m = int(m)
        self.cycle = int(cycle)
        self.adaptive = bool(adaptive)
        self.precisions = precisions or LevelPrecision(
            matrix=Precision.FP16, vector=Precision.FP16, preconditioner=Precision.FP16
        )
        self.weight_precision = as_precision(weight_precision)

        # Global state retained across invocations (Algorithm 1's globals).
        self.weights = np.full(self.m, float(weight), dtype=np.float64)
        self.call_count = 0          # cntr in Algorithm 1 (number of completed calls)
        self.update_count = 0        # l in Eq. (5)
        # compiled plans (per backend) and fused-sweep scratch (per thread)
        self._plans: dict[str, tuple] = {}
        self._workspace = ThreadLocalWorkspace()

    # ------------------------------------------------------------------ #
    @property
    def primary_preconditioner(self):
        return self.preconditioner

    @property
    def depth_label(self) -> str:
        return f"R{self.m}"

    def reset_state(self) -> None:
        """Forget the adapted weights (used between independent experiments)."""
        self.weights.fill(1.0)
        self.call_count = 0
        self.update_count = 0

    def _level_plans(self):
        """``(level plan, weight-precision plan)`` on the active backend,
        or ``(None, None)`` when the plan layer is disabled."""
        if not plans_enabled():
            return None, None
        backend = get_backend()
        pair = self._plans.get(backend.name)
        if pair is None:
            plan = plan_for(self.matrix, self.precisions.vector, backend)
            plan_wp = plan_for(self.matrix, self.weight_precision, backend)
            pair = self._plans[backend.name] = (plan, plan_wp)
        return pair

    # ------------------------------------------------------------------ #
    def apply(self, v: np.ndarray) -> np.ndarray:
        vec_prec = self.precisions.vector
        wp = self.weight_precision
        cntr = self.call_count + 1          # 1-based call index, as in Algorithm 1
        refresh = self.adaptive and (cntr % self.cycle == 0)
        plan, plan_wp = self._level_plans()
        backend = get_backend() if plan is not None else None
        ws = self._workspace.workspace if plan is not None else None

        v_level = vo.cast_vector(np.asarray(v), vec_prec)
        z = vo.vzeros(v_level.size, vec_prec)
        r = v_level                          # r_0 = v because z_0 = 0

        for k in range(self.m):
            if k > 0:
                # fused sweep: the next residual runs as one plan kernel
                # (one-pass spmv_axpy on CSR, staged combine elsewhere)
                if plan is not None:
                    r = plan.residual(v_level, z)
                else:
                    az = self.matrix.apply(z, out_precision=vec_prec)
                    r = vo.axpy(-1.0, az, v_level, out_precision=vec_prec)

            mr = self.preconditioner.apply(r)
            mr = vo.cast_vector(mr, vec_prec)

            if refresh:
                # ω'_k computed in fp32: one extra SpMV and two reductions.
                mr32 = vo.cast_vector(mr, wp)
                amr = (plan_wp.apply(mr32) if plan_wp is not None
                       else self.matrix.apply(mr32, out_precision=wp))
                r32 = vo.cast_vector(r, wp)
                denom = vo.dot(amr, amr)
                numer = vo.dot(r32, amr)
                if guards_enabled() and not (np.isfinite(denom) and np.isfinite(numer)):
                    # a NaN weight numerator/denominator poisons the globally
                    # shared weights for every later invocation — fail here,
                    # at the two scalars the refresh computes anyway
                    check_finite(float(denom if not np.isfinite(denom) else numer),
                                 "richardson.weight", iteration=k)
                omega = numer / denom if denom > 0.0 else self.weights[k]
                l = cntr // self.cycle
                self.weights[k] = (l * self.weights[k] + omega) / (l + 1)
            else:
                omega = float(self.weights[k])
            # the weighted half of the sweep: x += ω·M⁻¹r (staged fp16 on
            # the fast engine; bit-identical to the unfused axpy)
            if plan is not None:
                z = backend.weighted_update(z, mr, omega, vec_prec, scratch=ws)
            else:
                z = vo.axpy(omega, mr, z, out_precision=vec_prec)

        if refresh:
            self.update_count += 1
        self.call_count = cntr
        return z

    # ------------------------------------------------------------------ #
    def apply_batch(self, v: np.ndarray) -> np.ndarray:
        """Lockstep Richardson sweep over ``k`` residual columns.

        The recurrence is identical to ``k`` sequential :meth:`apply` calls
        with the current weights — the matvec runs as SpMM and ``M`` through
        its batched application.  The batched invocation counts as ``k``
        calls of Algorithm 1's global counter; when the counter window
        crosses a refresh boundary, ω'_k is computed per column (one batched
        SpMM + column-wise reductions in fp32) and the globally shared weight
        is blended with the batch mean — the batch analogue of Eq. (5)'s
        cumulative average.
        """
        v = np.asarray(v)
        if v.ndim != 2:
            raise ValueError(f"apply_batch expects V of shape (n, k); got {v.shape}")
        k = v.shape[1]
        vec_prec = self.precisions.vector
        wp = self.weight_precision
        cntr_end = self.call_count + k
        refresh = self.adaptive and (self.call_count // self.cycle) != (cntr_end // self.cycle)
        plan, plan_wp = self._level_plans()
        backend = get_backend()

        v_level = vo.cast_block(v, vec_prec)
        z = np.zeros(v_level.shape, dtype=vec_prec.dtype)
        r = v_level

        for step in range(self.m):
            if step > 0:
                if plan is not None:
                    r = plan.residual_batch(v_level, z)
                else:
                    az = self.matrix.apply_batch(z, out_precision=vec_prec)
                    r = self._batched_axpy(-1.0, az, v_level, vec_prec)

            mr = self.preconditioner.apply_batch(r)
            mr = vo.cast_block(mr, vec_prec)

            if refresh:
                mr32 = vo.cast_block(mr, wp)
                amr = (plan_wp.apply_batch(mr32) if plan_wp is not None
                       else self.matrix.apply_batch(mr32, out_precision=wp))
                r32 = vo.cast_block(r, wp)
                denom = np.einsum("nk,nk->k", amr, amr).astype(np.float64)
                numer = np.einsum("nk,nk->k", r32, amr).astype(np.float64)
                if guards_enabled() and not (np.all(np.isfinite(denom))
                                             and np.all(np.isfinite(numer))):
                    bad = np.flatnonzero(~(np.isfinite(denom) & np.isfinite(numer)))
                    check_finite(float(denom[bad[0]] if not np.isfinite(denom[bad[0]])
                                       else numer[bad[0]]),
                                 "richardson.weight", iteration=step,
                                 columns=bad.tolist())
                if counters_enabled():
                    record_kernel("dot", 2 * k)
                    record_bytes(wp, 4 * k * amr.shape[0] * wp.bytes)
                    record_flops(wp, 4 * k * amr.shape[0])
                omega = np.where(denom > 0.0, numer / np.where(denom > 0.0, denom, 1.0),
                                 self.weights[step])
                z = backend.weighted_update_batch(z, mr, omega, vec_prec)
                l = cntr_end // self.cycle
                self.weights[step] = (l * self.weights[step] + float(omega.mean())) / (l + 1)
            else:
                z = backend.weighted_update_batch(
                    z, mr, np.full(k, self.weights[step]), vec_prec)

        if refresh:
            self.update_count += 1
        self.call_count = cntr_end
        return z

    @staticmethod
    def _batched_axpy(alpha: float, x: np.ndarray, y: np.ndarray,
                      out_precision: Precision) -> np.ndarray:
        """``alpha * X + Y`` column-wise with the axpy promotion/recording rules."""
        px = precision_of_dtype(x.dtype)
        py = precision_of_dtype(y.dtype)
        compute = promote(px, py)
        out = as_precision(out_precision)
        result = (compute.dtype.type(alpha) * x.astype(compute.dtype, copy=False)
                  + y.astype(compute.dtype, copy=False)).astype(out.dtype, copy=False)
        if counters_enabled():
            k, n = x.shape[1], x.shape[0]
            record_kernel("axpy", k)
            record_bytes(px, k * n * px.bytes)
            record_bytes(py, k * n * py.bytes)
            record_bytes(out, k * n * out.bytes)
            record_flops(compute, 2 * k * n)
        return result


def richardson_solve(matrix, b, preconditioner, m: int, weight: float = 1.0,
                     precision: Precision | str = Precision.FP64) -> np.ndarray:
    """Plain fixed-weight preconditioned Richardson: m steps from a zero guess.

    A convenience wrapper used by tests and the cost-model validation; the
    solver levels use :class:`RichardsonLevel`.
    """
    level = RichardsonLevel(
        matrix, preconditioner, m=m, adaptive=False, weight=weight,
        precisions=LevelPrecision(matrix=precision, vector=precision,
                                  preconditioner=precision),
    )
    return level.apply(np.asarray(b))
