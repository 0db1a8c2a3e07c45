"""Cluster gateway: rendezvous routing over local *and* remote shards.

The multi-host front door the ROADMAP's serving item points at: a
:class:`ClusterGateway` exposes the familiar dispatcher surface
(``submit`` / ``flush`` / ``drain`` / ``solve_many`` / ``prewarm``) and
routes each operator fingerprint onto a *member ring* — every member is
either a local :class:`~repro.serve.dispatcher.BatchDispatcher` or a
:class:`~repro.serve.remote.RemoteShard` speaking the batch protocol over
TCP — using the same rendezvous hash as the process tier
(:func:`~repro.serve.gateway.rank_members`), so local and remote shards mix
in one ring and a fingerprint's placement is stable across processes.

The robustness story layers on the transport guarantees of
:mod:`repro.serve.remote`:

* **Replica failover** — the rendezvous *ranking* is the failover order:
  when a member is dead (:class:`~repro.serve.remote.ShardUnreachable`
  after its reconnect budget) the fingerprint's batches re-dispatch to the
  next-ranked healthy member, which rebuilds the setup — warm from the
  shared ``REPRO_ARTIFACTS`` store when one is configured — and the
  ``failovers`` counter ticks.  A revived member (the client's background
  probe reconnected) re-enters the ring automatically.
* **Hedged dispatch** — a batch carrying deadline-critical requests arms a
  hedge timer (``hedge_ms`` fixed, or ``hedge_factor`` x the primary's
  observed ``hedge_percentile`` RTT once ``hedge_min_samples`` are in):
  when it trips before the primary answers, the same request ids ship to
  the next-ranked member and the first response wins.  Request futures
  resolve exactly once — the loser's response is counted
  (``late_results``) and dropped, never delivered twice.
* **Retry with backoff** — transport-level failures re-dispatch the batch
  (``max_retries`` per request, linear backoff on a timer); per-request
  failures computed *by* a shard (expired deadlines, setup errors) arrive
  as typed slots and are final — the shard's own dispatcher already
  retried them.
* **Per-fingerprint circuit breaker** — repeated remote *setup* failures
  open the fingerprint's breaker exactly as in the local dispatcher.

``stats.summary()["cluster"]`` carries the member table (per-link state,
RTT percentiles, reconnect/resend/heartbeat-miss counters, the server-side
snapshot) plus the cluster counters (``hedges``, ``hedge_wins``,
``failovers``, ``late_results``, aggregated ``reconnects``/``resends``) —
all of it flowing through :func:`~repro.serve.metrics.render_metrics`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np

from ..core import F3RConfig
from ..par.procpool import ExpiredRequest
from ..solvers import SolveResult
from ..solvers.guards import InvalidInput
from .dispatcher import (
    AdmissionRefused,
    BatchDispatcher,
    CircuitOpen,
    DeadlineExceeded,
    DispatchStats,
    DispatcherClosed,
    _Breaker,
    _Request,
    _resolve_once,
)
from .gateway import rank_members
from .remote import RemoteError, RemoteShard, ShardUnreachable

__all__ = ["ClusterConfig", "ClusterGateway", "ClusterStats"]


@dataclass
class ClusterConfig:
    """Membership and policy for a :class:`ClusterGateway`.

    ``members`` is a sequence of ``(name, target)`` pairs: ``target`` is
    ``"host:port"`` for a remote shard or ``"local"`` for an in-process
    dispatcher member.  Names are the rendezvous identities — stable names
    keep fingerprint placement stable across restarts.
    """

    members: tuple = ()
    max_batch: int = 8
    max_queue: int | None = None
    max_retries: int = 2
    retry_backoff: float = 0.05
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    #: fixed hedge delay in milliseconds (None: derive from observed RTT)
    hedge_ms: float | None = None
    hedge_percentile: float = 95.0
    hedge_factor: float = 1.5
    hedge_min_samples: int = 8
    # transport knobs forwarded to every RemoteShard member
    heartbeat_interval: float = 0.5
    miss_limit: int = 3
    max_inflight: int = 128
    resend_timeout: float = 1.0
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    reconnect_attempts: int = 8
    connect_timeout: float = 5.0

    def __post_init__(self) -> None:
        self.members = tuple((str(name), str(target))
                             for name, target in self.members)
        if len({name for name, _ in self.members}) != len(self.members):
            raise ValueError("cluster member names must be unique")


@dataclass
class ClusterStats(DispatchStats):
    """Dispatcher counters plus the cluster's routing/hedging/failover view."""

    hedges: int = 0
    hedge_wins: int = 0
    failovers: int = 0
    late_results: int = 0

    #: the owning gateway (set post-init) — summary() reads the member table
    members_source: object = field(default=None, repr=False)

    def summary(self) -> dict:
        base = super().summary()
        gateway = self.members_source
        members = ({} if gateway is None else
                   {name: member.stats()
                    for name, member in gateway._members.items()})

        def agg(key: str) -> int:
            return sum(int(m.get(key, 0) or 0) for m in members.values())

        base["cluster"] = {
            "members": members,
            "hedges": self.hedges,
            "hedge_wins": self.hedge_wins,
            "failovers": self.failovers,
            "late_results": self.late_results,
            "reconnects": agg("reconnects"),
            "resends": agg("resends"),
            "heartbeat_misses": agg("heartbeat_misses"),
            "dead_members": sorted(
                name for name, m in members.items()
                if m.get("state") in ("down", "closed")),
        }
        return base


class _LocalMember:
    """A ring member backed by an in-process :class:`BatchDispatcher`.

    Speaks the same ``submit_batch -> Future[(slots, snapshot)]`` contract
    as :class:`~repro.serve.remote.RemoteShard`, so the gateway's dispatch,
    hedging, and failover paths are transport-agnostic.
    """

    def __init__(self, name: str, dispatcher: BatchDispatcher) -> None:
        self.name = name
        self._dispatcher = dispatcher
        self._closed = False

    @property
    def healthy(self) -> bool:
        return not self._closed

    def submit_batch(self, fingerprint: str, rhs_block: np.ndarray,
                     setup_factory, deadlines=None, degrade=None) -> Future:
        del fingerprint
        operator = setup_factory()
        outer: Future = Future()
        ncols = rhs_block.shape[1]
        slots: list = [None] * ncols
        futures: dict[int, Future] = {}
        now = time.time()
        for i in range(ncols):
            wall = None if deadlines is None else deadlines[i]
            if wall is not None and wall <= now:
                slots[i] = ExpiredRequest(overshoot_s=now - wall)
                continue
            degradable = bool(degrade[i]) if degrade is not None else False
            try:
                futures[i] = self._dispatcher.submit(
                    operator, rhs_block[:, i],
                    deadline=None if wall is None else wall - time.time(),
                    degradable=degradable)
            except InvalidInput as exc:
                slots[i] = RemoteError("invalid", type(exc).__name__, str(exc))
            except Exception as exc:   # noqa: BLE001 - admission/closed
                slots[i] = RemoteError("admission", type(exc).__name__,
                                       str(exc))
        if not futures:
            _resolve_once(outer, result=(slots, self._snapshot()))
            return outer
        self._dispatcher.flush()
        remaining = [len(futures)]
        state_lock = threading.Lock()

        def _on_done(index: int, future: Future) -> None:
            exc = future.exception()
            if exc is None:
                slots[index] = future.result()
            elif isinstance(exc, DeadlineExceeded):
                slots[index] = ExpiredRequest(overshoot_s=0.0)
            elif isinstance(exc, CircuitOpen):
                slots[index] = RemoteError("setup", type(exc).__name__,
                                           str(exc))
            else:
                slots[index] = RemoteError("solve", type(exc).__name__,
                                           str(exc))
            with state_lock:
                remaining[0] -= 1
                last = remaining[0] == 0
            if last:
                _resolve_once(outer, result=(slots, self._snapshot()))

        for i, future in futures.items():
            future.add_done_callback(lambda f, i=i: _on_done(i, f))
        return outer

    def submit_warm(self, fingerprint: str, setup_factory) -> Future:
        del fingerprint
        outer: Future = Future()
        try:
            (inner,) = self._dispatcher.prewarm([setup_factory()], wait=False)
        except Exception as exc:   # noqa: BLE001 - closed dispatcher
            _resolve_once(outer, exc=exc)
            return outer

        def _on_done(f: Future) -> None:
            exc = f.exception()
            if exc is None:
                _resolve_once(outer, result=([], self._snapshot()))
            else:
                _resolve_once(outer, exc=exc)

        inner.add_done_callback(_on_done)
        return outer

    def evict(self, fingerprint: str) -> None:
        dispatcher = self._dispatcher
        with dispatcher._lock:
            for key in [k for k in dispatcher._solvers
                        if k[0] == fingerprint]:
                dispatcher._solvers.pop(key, None)

    def rtt_percentile(self, q: float, min_samples: int = 1) -> None:
        return None                      # local batches are never hedged off

    def _snapshot(self) -> dict:
        stats = self._dispatcher.stats
        return {"name": self.name, "requests": stats.requests,
                "batches": stats.batches, "cache_hits": stats.cache_hits,
                "cache_misses": stats.cache_misses}

    def stats(self) -> dict:
        return {"name": self.name, "kind": "local",
                "state": "closed" if self._closed else "up",
                "server": self._snapshot()}

    def close(self) -> None:
        self._closed = True
        self._dispatcher.close(wait=False)


class _Flight:
    """One batch's journey through the ring: primary, hedge, failover."""

    __slots__ = ("fp", "operator", "requests", "outstanding", "resolved",
                 "hedge_timer")

    def __init__(self, fp: str, operator, requests: list) -> None:
        self.fp = fp
        self.operator = operator
        self.requests = requests
        self.outstanding: dict[str, Future] = {}
        self.resolved = False
        self.hedge_timer: threading.Timer | None = None


class ClusterGateway:
    """Routes batches over a mixed local/remote member ring.

    Parameters
    ----------
    config, preconditioner, nblocks, alpha, backend, cache_size,
    max_workers:
        Solver/dispatcher parameters for *local* members (remote members
        were configured when their server started).
    cluster:
        The :class:`ClusterConfig` naming the members and the
        retry/hedge/transport policy.

    Usage::

        cluster = ClusterConfig(members=[("alpha", "127.0.0.1:7101"),
                                         ("beta", "local")])
        with ClusterGateway(config, cluster=cluster) as gateway:
            futures = [gateway.submit(A, b) for b in rhs_stream]
            gateway.drain()
    """

    def __init__(self, config: F3RConfig | None = None,
                 cluster: ClusterConfig | None = None,
                 preconditioner="auto", nblocks: int | None = None,
                 alpha: float = 1.0, backend: str | None = None,
                 cache_size: int = 8, max_workers: int = 2) -> None:
        if cluster is None or not cluster.members:
            raise ValueError("cluster requires a ClusterConfig with members")
        self.config = config or F3RConfig()
        self.cluster = cluster
        self._cond = threading.Condition()
        self._members: dict[str, object] = {}
        for name, target in cluster.members:
            if target == "local":
                dispatcher = BatchDispatcher(
                    self.config, preconditioner=preconditioner,
                    nblocks=nblocks, alpha=alpha, max_batch=cluster.max_batch,
                    cache_size=cache_size, max_workers=max_workers,
                    backend=backend, overload=False)
                self._members[name] = _LocalMember(name, dispatcher)
            else:
                self._members[name] = RemoteShard(
                    target, name=name,
                    connect_timeout=cluster.connect_timeout,
                    heartbeat_interval=cluster.heartbeat_interval,
                    miss_limit=cluster.miss_limit,
                    max_inflight=cluster.max_inflight,
                    resend_timeout=cluster.resend_timeout,
                    backoff_base=cluster.backoff_base,
                    backoff_max=cluster.backoff_max,
                    reconnect_attempts=cluster.reconnect_attempts)
        self._pending: OrderedDict[str, tuple[object, list[_Request]]] = \
            OrderedDict()
        self._breakers: dict[str, _Breaker] = {}
        self._outstanding = 0
        self._seq = 0
        self._closed = False
        self.stats = ClusterStats()
        self.stats.members_source = self

    # -------------------------------------------------------------- #
    # Submission surface (the dispatcher contract)
    # -------------------------------------------------------------- #
    def submit(self, matrix, rhs: np.ndarray, deadline: float | None = None,
               degradable: bool = False) -> Future:
        """Enqueue one solve request onto the ring; future resolves to its
        :class:`~repro.solvers.SolveResult`.

        ``deadline`` is seconds from now (crossing the wire as a wall-clock
        absolute); deadline-carrying requests are the hedging candidates.
        Priority admission is a per-shard concern — each member's local
        dispatcher applies its own overload policy.
        """
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape != (matrix.nrows,):
            raise InvalidInput(
                f"rhs has shape {rhs.shape}; expected ({matrix.nrows},)",
                site="cluster.submit",
                detail={"shape": tuple(rhs.shape),
                        "expected_rows": matrix.nrows})
        if not np.all(np.isfinite(rhs)):
            bad = int(np.flatnonzero(~np.isfinite(rhs))[0])
            raise InvalidInput(
                f"rhs contains non-finite entries (first at index {bad})",
                site="cluster.submit", detail={"first_bad_row": bad})
        request = _Request(
            rhs,
            None if deadline is None else time.monotonic() + float(deadline),
            degradable=bool(degradable))
        ready = None
        with self._cond:
            if self._closed:
                raise DispatcherClosed("cluster gateway is closed")
            if (self.cluster.max_queue is not None
                    and self._outstanding >= self.cluster.max_queue):
                self.stats.rejected += 1
                raise AdmissionRefused(
                    f"outstanding requests at max_queue="
                    f"{self.cluster.max_queue}")
            self._seq += 1
            request.seq = self._seq
            self.stats.requests += 1
            self._outstanding += 1
            fp = matrix.fingerprint()
            if fp not in self._pending:
                self._pending[fp] = (matrix, [])
            self._pending[fp][1].append(request)
            if len(self._pending[fp][1]) >= self.cluster.max_batch:
                ready = (fp, *self._pending.pop(fp))
        if ready is not None:
            self._dispatch(*ready)
        return request.future

    def flush(self) -> None:
        """Dispatch every pending group, regardless of its size."""
        with self._cond:
            groups = [(fp, matrix, requests)
                      for fp, (matrix, requests) in self._pending.items()]
            self._pending.clear()
        for fp, matrix, requests in groups:
            self._dispatch(fp, matrix, requests)

    def drain(self) -> None:
        """Flush and block until every admitted request has resolved —
        through retries, hedges, and failovers."""
        self.flush()
        with self._cond:
            while self._outstanding > 0:
                self._cond.wait(timeout=0.1)

    def solve_many(self, pairs) -> list[SolveResult]:
        futures = [self.submit(matrix, rhs) for matrix, rhs in pairs]
        self.drain()
        return [f.result() for f in futures]

    def prewarm(self, operators, wait: bool = True,
                timeout: float | None = None) -> list[Future]:
        """Build each operator's setup on its primary member."""
        futures = []
        for operator in operators:
            fp = operator.fingerprint()
            member = self._first_healthy(fp)
            if member is None:
                failed: Future = Future()
                failed.set_exception(ShardUnreachable(
                    "cluster", "no healthy member for prewarm"))
                futures.append(failed)
                continue
            futures.append(member.submit_warm(fp, lambda op=operator: op))
            with self._cond:
                self.stats.prewarms += 1
        if wait:
            for future in futures:
                future.result(timeout)
        return futures

    def evict(self, fingerprint: str) -> None:
        """Best-effort eviction of a fingerprint's setup, ring-wide."""
        for member in self._members.values():
            member.evict(fingerprint)

    # -------------------------------------------------------------- #
    # Routing and flights
    # -------------------------------------------------------------- #
    def _ranked_members(self, fp: str) -> list:
        return [self._members[name]
                for name in rank_members(fp, list(self._members))]

    def _first_healthy(self, fp: str):
        for member in self._ranked_members(fp):
            if member.healthy:
                return member
        return None

    def _fail_all(self, requests: list[_Request], exc: BaseException) -> None:
        for request in requests:
            self._finish(request, exc=exc)

    def _dispatch(self, fp: str, operator, requests: list[_Request],
                  failover_from: str | None = None) -> None:
        requests = self._split_expired(requests)
        if not requests:
            return
        if self._closed:
            self._fail_all(requests, DispatcherClosed(
                "cluster gateway closed before dispatch"))
            return
        try:
            self._breaker_check(fp)
        except CircuitOpen as exc:
            self._fail_all(requests, exc)
            return
        candidates = [m for m in self._ranked_members(fp) if m.healthy]
        if failover_from is not None and len(candidates) > 1:
            candidates = ([m for m in candidates
                           if m.name != failover_from] or candidates)
        if not candidates:
            self._fail_all(requests, ShardUnreachable(
                "cluster", f"no healthy members for fingerprint {fp!r}"))
            return
        flight = _Flight(fp, operator, requests)
        with self._cond:
            self.stats.batches += 1
            self.stats.batched_requests += len(requests)
            self.stats.largest_batch = max(self.stats.largest_batch,
                                           len(requests))
            if failover_from is not None:
                self.stats.failovers += 1
        self._launch(flight, candidates[0], origin="primary")
        if (len(candidates) > 1
                and any(r.deadline is not None for r in requests)):
            delay = self._hedge_delay(candidates[0])
            if delay is not None:
                timer = threading.Timer(delay, self._hedge,
                                        args=(flight, candidates))
                timer.daemon = True
                flight.hedge_timer = timer
                timer.start()

    def _hedge_delay(self, member) -> float | None:
        cfg = self.cluster
        if cfg.hedge_ms is not None:
            return cfg.hedge_ms / 1e3
        rtt = member.rtt_percentile(cfg.hedge_percentile,
                                    min_samples=cfg.hedge_min_samples)
        if rtt is None:
            return None
        return rtt * cfg.hedge_factor

    def _hedge(self, flight: _Flight, candidates: list) -> None:
        with self._cond:
            if flight.resolved or self._closed:
                return
            primary_names = set(flight.outstanding)
        backup = next((m for m in candidates[1:]
                       if m.healthy and m.name not in primary_names), None)
        if backup is None:
            return
        with self._cond:
            self.stats.hedges += 1
        self._launch(flight, backup, origin="hedge")

    def _launch(self, flight: _Flight, member, origin: str) -> None:
        offset = time.time() - time.monotonic()
        deadlines = [None if r.deadline is None else r.deadline + offset
                     for r in flight.requests]
        if all(d is None for d in deadlines):
            deadlines = None
        degrade = [r.degradable for r in flight.requests]
        if not any(degrade):
            degrade = None
        rhs_block = np.stack([r.rhs for r in flight.requests], axis=1)
        operator = flight.operator
        try:
            future = member.submit_batch(
                flight.fp, rhs_block, lambda: operator,
                deadlines=deadlines, degrade=degrade)
        except Exception as exc:   # noqa: BLE001 - typed transport failures
            self._transport_failed(flight, member, origin, exc)
            return
        with self._cond:
            flight.outstanding[member.name] = future
        future.add_done_callback(
            lambda f: self._member_done(flight, member, origin, f))

    def _member_done(self, flight: _Flight, member, origin: str,
                     future: Future) -> None:
        exc = future.exception()
        if exc is not None:
            self._transport_failed(flight, member, origin, exc)
            return
        slots, _snapshot = future.result()
        with self._cond:
            flight.outstanding.pop(member.name, None)
            if flight.resolved:
                # the hedge race's loser (or a duplicated delivery): every
                # request future already resolved exactly once — drop it
                self.stats.late_results += 1
                return
            flight.resolved = True
            timer, flight.hedge_timer = flight.hedge_timer, None
            if origin == "hedge":
                self.stats.hedge_wins += 1
        if timer is not None:
            timer.cancel()
        setup_failed = False
        for request, slot in zip(flight.requests, slots):
            if isinstance(slot, SolveResult):
                if slot.recovery is not None:
                    with self._cond:
                        self.stats.escalations += slot.recovery.escalations
                self._finish(request, result=slot)
            elif isinstance(slot, ExpiredRequest):
                with self._cond:
                    self.stats.deadline_misses += 1
                self._finish(request, exc=DeadlineExceeded(
                    f"deadline passed before execution on shard "
                    f"{member.name!r} (overshoot {slot.overshoot_s:.3f}s)"))
            else:                         # RemoteError
                if slot.kind == "setup":
                    setup_failed = True
                self._finish(request, exc=slot.to_exception())
        self._breaker_record(flight.fp, ok=not setup_failed)

    def _transport_failed(self, flight: _Flight, member, origin: str,
                          exc: BaseException) -> None:
        with self._cond:
            flight.outstanding.pop(member.name, None)
            if flight.resolved:
                return
            if flight.outstanding:
                return      # a companion launch is still racing: it is the retry
            # the flight is dead: mark it resolved so a still-armed hedge
            # timer cannot launch duplicate work alongside the retry below
            flight.resolved = True
            timer, flight.hedge_timer = flight.hedge_timer, None
        if timer is not None:
            timer.cancel()
        live = [r for r in flight.requests if not r.future.done()]
        if not live:
            return
        if self._closed or isinstance(exc, DispatcherClosed):
            self._fail_all(live, DispatcherClosed(
                "cluster gateway closed while the batch was in flight"))
            return
        retryable, exhausted = [], []
        for request in live:
            if request.attempts < self.cluster.max_retries:
                request.attempts += 1
                retryable.append(request)
            else:
                exhausted.append(request)
        self._fail_all(exhausted, exc)
        if not retryable:
            return
        failover_from = (member.name
                         if isinstance(exc, ShardUnreachable) else None)
        with self._cond:
            self.stats.retries += len(retryable)
        delay = self.cluster.retry_backoff * max(r.attempts
                                                 for r in retryable)
        timer = threading.Timer(
            delay, self._dispatch,
            args=(flight.fp, flight.operator, retryable),
            kwargs={"failover_from": failover_from})
        timer.daemon = True
        timer.start()

    # -------------------------------------------------------------- #
    # Shared helpers (the dispatcher patterns, cluster-scoped)
    # -------------------------------------------------------------- #
    def _finish(self, request: _Request, result=None, exc=None) -> None:
        if request.future.done():
            return
        with self._cond:
            self._outstanding -= 1
            if self._outstanding <= 0:
                self._cond.notify_all()
        if exc is not None:
            _resolve_once(request.future, exc=exc)
        else:
            _resolve_once(request.future, result=result)

    def _split_expired(self, requests: list[_Request]) -> list[_Request]:
        now = time.monotonic()
        live = []
        for request in requests:
            if request.deadline is not None and now > request.deadline:
                with self._cond:
                    self.stats.deadline_misses += 1
                self._finish(request, exc=DeadlineExceeded(
                    f"deadline passed {now - request.deadline:.3f}s "
                    f"before dispatch"))
            else:
                live.append(request)
        return live

    def _breaker_check(self, fp: str) -> None:
        with self._cond:
            breaker = self._breakers.get(fp)
            if breaker is None or breaker.opened_at is None:
                return
            if (time.monotonic() - breaker.opened_at
                    >= self.cluster.breaker_cooldown):
                breaker.opened_at = None
                breaker.failures = self.cluster.breaker_threshold - 1
                return
        raise CircuitOpen(
            f"setup circuit open for operator {fp!r} "
            f"({self.cluster.breaker_threshold} consecutive failures)")

    def _breaker_record(self, fp: str, ok: bool) -> None:
        with self._cond:
            if ok:
                self._breakers.pop(fp, None)
                return
            breaker = self._breakers.setdefault(fp, _Breaker())
            breaker.failures += 1
            if (breaker.failures >= self.cluster.breaker_threshold
                    and breaker.opened_at is None):
                breaker.opened_at = time.monotonic()
                self.stats.breaker_trips += 1

    # -------------------------------------------------------------- #
    def close(self) -> None:
        """Stop accepting work, fail undispatched requests typed, and close
        every member (in-flight batch futures fail through the members)."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            abandoned = [request for _, requests in self._pending.values()
                         for request in requests]
            self._pending.clear()
        for request in abandoned:
            self._finish(request, exc=DispatcherClosed(
                "cluster gateway closed before dispatch"))
        for member in self._members.values():
            member.close()

    def __enter__(self) -> "ClusterGateway":
        return self

    def __exit__(self, *exc_info) -> None:
        if exc_info[0] is None:
            self.drain()
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        states = {name: member.stats().get("state")
                  for name, member in self._members.items()}
        return f"ClusterGateway(members={states})"
