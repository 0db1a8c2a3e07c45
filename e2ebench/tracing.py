"""Outside-in layer tracing: wrappers around the public entry points of each layer.

The benchmark never edits the program.  In a traced run it replaces a fixed
list of public functions and methods (kernel-engine methods, the
preconditioner apply, the plan compiler, the serving front doors and their
transports) with timing wrappers, runs the workload, and restores them.

Every wrapped call becomes one span ``(name, start, end, self_s, ctx,
nbytes)``: ``self_s`` is the span's duration minus the time of the spans
nested directly inside it on the same thread (a span nested directly in a
span of the same name is named ``<name>.nested`` and left out of that
layer's totals), ``ctx`` is the request context
the load generator set on the calling thread (``None`` on the program's own
threads), and ``nbytes`` is the traffic the kernel reported to the
program's traffic counters during the call (kernels) or the bytes moved
(shared-memory publishes, wire frames).

Asynchronous hops (``submit_batch`` on the process pool and on cluster
members) are recorded separately as :class:`Hop` records: call time,
completion time, member, batch size, whether the setup travelled with the
batch, and the solve wall times the far side returned.

Wrappers must be installed before any solver or plan is built in the traced
phase, and worker and server processes never see them: they start from a
fresh import.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from dataclasses import dataclass, field

__all__ = ["Hop", "Tracer"]

#: kernel-engine methods timed as SpMV-class (matrix-vector products)
SPMV_METHODS = ("spmv_csr", "spmv_ell", "spmm_csr", "spmm_ell", "spmv_axpy",
                "spmm_axpy", "apply_stencil", "apply_stencil_batch")
#: kernel-engine methods timed as triangular solves
TRSV_METHODS = ("trsv", "trsm")
#: staged-fp16 helpers (module functions of ``repro.backends.halfvec``)
HALFVEC_FUNCTIONS = ("upcast", "quantize32", "round_into", "binop_round",
                     "scalar_mul_round", "staged_axpy")


@dataclass
class Hop:
    """One batch handed to a serving member and its completion."""

    member: str
    ctx: object
    ncols: int
    start: float
    end: float | None = None
    setup_shipped: bool = False
    walls: list = field(default_factory=list)   # per-column returned wall_time


class _CountingSocket:
    """Socket proxy that counts the bytes a frame codec call moves."""

    def __init__(self, sock) -> None:
        self._sock = sock
        self.nbytes = 0

    def sendall(self, data) -> None:
        self._sock.sendall(data)
        self.nbytes += len(data)

    def recv(self, n: int) -> bytes:
        chunk = self._sock.recv(n)
        self.nbytes += len(chunk)
        return chunk

    def __getattr__(self, name):
        return getattr(self._sock, name)


class Tracer:
    """Installs timing wrappers and keeps every span in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.hops: list[Hop] = []
        self.plan_kinds: dict[tuple, str] = {}
        self._tls = threading.local()
        self._undo: list[tuple] = []
        self._lock = threading.Lock()

    # -------------------------------------------------------------- #
    # request context
    # -------------------------------------------------------------- #
    def set_ctx(self, ctx) -> None:
        self._tls.ctx = ctx

    def _ctx(self):
        return getattr(self._tls, "ctx", None)

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    # -------------------------------------------------------------- #
    # wrappers
    # -------------------------------------------------------------- #
    def _timed(self, name: str, fn, counted: bool = False, on_result=None):
        tracer = self
        if counted:
            from repro.perf.counters import global_counter

        nested_name = f"{name}.nested"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # a call inside a call of the same layer (a fused kernel calling
            # the plain one) is kept apart, so layer totals count it once
            label = nested_name if stack and stack[-1][1] == name else name
            frame = [0.0, name]
            stack.append(frame)
            b0 = global_counter().total_bytes if counted else 0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                nbytes = global_counter().total_bytes - b0 if counted else 0
                tracer.spans.append((label, t0, t1, dur - frame[0],
                                     tracer._ctx(), nbytes))
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if attr in vars(owner) else None,
                           attr in vars(owner)))
        setattr(owner, attr, wrapper)

    def _wrap(self, owner, attr: str, name: str, **kw) -> None:
        self._patch(owner, attr, self._timed(name, getattr(owner, attr), **kw))

    def _hop_wrapper(self, member_of, fn):
        """Wrap a ``submit_batch`` whose future resolves to ``(slots, _)``."""
        tracer = self
        signature = inspect.signature(fn)
        timed = self._timed("serve.handoff", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            hop = Hop(member=member_of(bound.arguments), ctx=tracer._ctx(),
                      ncols=int(bound.arguments["rhs_block"].shape[1]),
                      start=time.perf_counter())
            factory = bound.arguments["setup_factory"]

            def shipped_factory():
                hop.setup_shipped = True
                return factory()

            bound.arguments["setup_factory"] = shipped_factory
            future = timed(*bound.args, **bound.kwargs)

            def done(f) -> None:
                hop.end = time.perf_counter()
                if f.exception() is None:
                    hop.walls = [getattr(slot, "wall_time", None)
                                 for slot in f.result()[0]]
                with tracer._lock:
                    tracer.hops.append(hop)

            future.add_done_callback(done)
            return future

        return wrapper

    def _frame_wrapper(self, name: str, fn, timed: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(sock, *args, **kwargs):
            counting = _CountingSocket(sock)
            t0 = time.perf_counter()
            try:
                return fn(counting, *args, **kwargs)
            finally:
                t1 = time.perf_counter()
                # a receive blocks until the peer speaks: count its bytes,
                # not its idle wait
                tracer.spans.append((name, t0, t1 if timed else t0, 0.0,
                                     tracer._ctx(), counting.nbytes))

        return wrapper

    # -------------------------------------------------------------- #
    def install(self) -> None:
        """Wrap every traced layer entry point (idempotent per instance)."""
        import repro.core.f3r as f3r
        import repro.precond as precond
        import repro.serve.remote as remote
        from repro.backends import get_backend, halfvec
        from repro.core import F3RSolver
        from repro.par.procpool import ProcPool
        from repro.par.shm import ShmRegistry
        from repro.plans import plan as plan_mod
        from repro.precond.base import Preconditioner
        from repro.serve.cluster import ClusterGateway, _LocalMember
        from repro.serve.gateway import ShardedGateway

        if self._undo:
            return
        engine = type(get_backend())
        for method in SPMV_METHODS:
            self._wrap(engine, method, "backends.spmv", counted=True)
        for method in TRSV_METHODS:
            self._wrap(engine, method, "backends.trsv", counted=True)
        for function in HALFVEC_FUNCTIONS:
            self._wrap(halfvec, function, "backends.halfvec")

        self._wrap(Preconditioner, "apply", "precond.apply")
        self._wrap(Preconditioner, "apply_batch", "precond.apply")
        # f3r binds the factory at import time, so both names are wrapped
        self._wrap(precond, "make_primary_preconditioner", "precond.factor")
        self._wrap(f3r, "make_primary_preconditioner", "precond.factor")

        def plan_kind(args, kwargs, plan) -> None:
            self.plan_kinds[(plan.key[0], plan.vec_prec.label)] = plan.kind

        self._wrap(plan_mod, "compile_plan", "plans.compile",
                   on_result=plan_kind)
        self._wrap(F3RSolver, "__init__", "core.setup")
        self._wrap(F3RSolver, "solve", "solvers.solve")
        self._wrap(F3RSolver, "solve_batch", "solvers.solve")

        for gateway in (ShardedGateway, ClusterGateway):
            self._wrap(gateway, "submit", "serve.submit")
            self._wrap(gateway, "flush", "serve.flush")
        self._wrap(ShmRegistry, "publish", "par.shm.publish",
                   on_result=self._record_publish)

        self._patch(ProcPool, "submit_batch", self._hop_wrapper(
            lambda a: f"shard{a['worker_id']}", ProcPool.submit_batch))
        self._patch(remote.RemoteShard, "submit_batch", self._hop_wrapper(
            lambda a: a["self"].name, remote.RemoteShard.submit_batch))
        self._patch(_LocalMember, "submit_batch", self._hop_wrapper(
            lambda a: a["self"].name, _LocalMember.submit_batch))
        self._patch(remote, "send_frame", self._frame_wrapper(
            "serve.remote.send_frame", remote.send_frame, timed=True))
        self._patch(remote, "recv_frame", self._frame_wrapper(
            "serve.remote.recv_frame", remote.recv_frame, timed=False))

    def _record_publish(self, args, kwargs, descriptor) -> None:
        arrays = args[2] if len(args) > 2 else kwargs["arrays"]
        now = time.perf_counter()
        self.spans.append(("par.shm.bytes", now, now, 0.0, None,
                           sum(int(a.nbytes) for a in arrays.values())))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -------------------------------------------------------------- #
    # queries
    # -------------------------------------------------------------- #
    def select(self, name: str, t0: float = float("-inf"),
               t1: float = float("inf")) -> list[tuple]:
        """Spans called ``name`` that started inside ``[t0, t1]``."""
        return [s for s in self.spans if s[0] == name and t0 <= s[1] <= t1]
