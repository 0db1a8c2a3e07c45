"""The three benchmark workloads and their metrics.

Each ``run_<workload>`` function builds its inputs from the seed, sets up the
system (timed, repeated, median reported), drives it for the requested
number of seconds, checks every answer with the benchmark's own fp64
residual, and returns ``(result, diagnostics)``: ``result`` holds
``correct``/``attempted``/``failed``/``metrics`` and ``diagnostics`` records
the work mix, the sample counts and every flag raised.

With ``trace`` off the metrics are the end-to-end ones.  With ``trace`` on
the run first repeats a short untraced reference pass, then installs the
:class:`~tracing.Tracer` wrappers, builds a fresh system and measures again;
the metrics are the per-layer ones.
"""

from __future__ import annotations

import collections
import math
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import measure
from tracing import Tracer

MS = 1e3


@dataclass
class Request:
    """One right-hand side and what became of it."""

    index: int
    due: float                       # perf_counter time the RHS was due
    mode: tuple                      # work-mode label (cold/warm, burst size)
    operator: object
    csr: object                      # the benchmark's fp64 copy of the matrix
    rhs: np.ndarray
    ctx: int = 0                     # burst (or request) the tracer tags
    sent: float | None = None        # perf_counter time submit() was called
    done: float | None = None
    result: object = None
    error: str | None = None
    relres: float = float("nan")

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * MS


@dataclass
class Phase:
    """One measured pass: its requests and its time window."""

    requests: list = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0


# ------------------------------------------------------------------ #
# shared helpers
# ------------------------------------------------------------------ #
def _rhs(seed: int, stream: int, index: int, n: int) -> np.ndarray:
    return np.random.default_rng([seed, stream, index]).standard_normal(n)


def _clear_process_caches() -> None:
    """Forget in-process plans, autotune verdicts and level schedules."""
    from repro.plans import clear_autotune_cache, clear_plan_cache
    from repro.sparse.triangular import clear_levels_memo

    clear_plan_cache()
    clear_autotune_cache()
    clear_levels_memo()


def _check(requests) -> None:
    """Recompute every completed answer's residual with our own matvec."""
    for req in requests:
        if req.result is not None:
            req.relres = measure.relative_residual(req.csr, req.result.x,
                                                   req.rhs)


def _ok(req, tol: float) -> bool:
    return (req.result is not None and req.error is None
            and bool(req.result.converged) and req.relres <= tol)


def _end_to_end(phase: Phase, spec: dict, tol: float, setup_times,
                loop: str) -> dict:
    reqs = phase.requests
    done = [r for r in reqs if r.done is not None and r.result is not None]
    lats = [r.latency_ms for r in done]
    limit = spec["latency_limit_ms"]
    ok = [r for r in reqs if _ok(r, tol)]
    if loop == "closed":
        elapsed = phase.end - phase.start
    else:
        elapsed = max(r.done for r in done) - min(r.due for r in reqs)
    tail = spec["tail_percentile"]
    return {
        "setup_s": statistics.median(setup_times),
        "latency_p50_ms": statistics.median(lats),
        "latency_tail_ms": measure.nearest_rank(lats, tail),
        "rhs_per_s": len(done) / elapsed,
        "ok_frac": len(ok) / len(reqs),
        "slo_met_frac": sum(1 for r in ok if r.latency_ms <= limit) / len(reqs),
    }


def _mix(phase: Phase, spec: dict) -> dict:
    """Work mix of a pass: exact counts, plus the flags the checks raise."""
    reqs = [r for r in phase.requests if r.result is not None]
    apps = collections.Counter(int(r.result.preconditioner_applications)
                               for r in reqs)
    iters = collections.Counter(int(r.result.iterations) for r in reqs)
    modes = collections.Counter("-".join(map(str, r.mode)) for r in reqs)
    flags = []
    expected = spec.get("expected_mix", {})
    if "precond_apps" in expected and set(apps) - set(expected["precond_apps"]):
        flags.append(f"precond_apps histogram {dict(apps)} differs from the "
                     f"expected {expected['precond_apps']}")
    lats = [r.latency_ms for r in reqs]
    labels = [r.mode + (int(r.result.preconditioner_applications),)
              for r in reqs]
    pct = {"latency_p50_ms": 50, "latency_tail_ms": spec["tail_percentile"]}
    # RHS that finish together (one batch) are one latency sample
    per_sample = spec.get("rhs_per_sample", 1)
    flags += measure.boundary_flags(lats, labels, pct, margin=3 * per_sample)
    per_mode = {}
    for label in sorted(set(labels)):
        group = [lat for lat, lab in zip(lats, labels) if lab == label]
        per_mode["-".join(map(str, label))] = {
            "count": len(group), "p50_ms": round(statistics.median(group), 3)}
    tail = spec["tail_percentile"]
    n = len(reqs)
    beyond = n - math.ceil(tail / 100.0 * n)
    if beyond < 10 * per_sample:
        flags.append(f"only {beyond} RHS beyond p{tail} (n={n}, "
                     f"{per_sample} RHS per sample)")
    return {
        "samples": n,
        "tail_percentile": tail,
        "samples_beyond_tail": beyond,
        "rhs_per_sample": per_sample,
        "precond_apps_histogram": {str(k): v for k, v in sorted(apps.items())},
        "outer_iters_histogram": {str(k): v for k, v in sorted(iters.items())},
        "modes": dict(sorted(modes.items())),
        "per_mode_latency": per_mode,
        "flags": flags,
    }


def _result(phase: Phase, tol: float, metrics: dict, extra_failures=()) -> dict:
    reqs = phase.requests
    failed = sum(1 for r in reqs if not _ok(r, tol)) + len(extra_failures)
    return {
        "correct": failed == 0,
        "attempted": len(reqs),
        "failed": failed,
        "metrics": {name: float(value) for name, value in metrics.items()},
    }


def _failures(phase: Phase, tol: float) -> list[str]:
    out = []
    for r in phase.requests:
        if not _ok(r, tol):
            out.append(f"request {r.index}: error={r.error} "
                       f"converged={getattr(r.result, 'converged', None)} "
                       f"relres={r.relres:.3e}")
    return out[:20]


# ------------------------------------------------------------------ #
# per-layer metrics
# ------------------------------------------------------------------ #
def _sum_dur(spans) -> float:
    return sum(s[2] - s[1] for s in spans)


def _p50(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def _union_length(intervals, lo: float, hi: float) -> float:
    total, cursor = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def _layer_metrics(tracer: Tracer, phase: Phase, setup_start: float,
                   in_process_rhs: int, stats_before: dict,
                   stats_after: dict) -> dict:
    """Per-layer metrics from the spans of one traced pass."""
    t0, t1 = phase.start, phase.end
    rhs = max(1, in_process_rhs)

    def window(name):
        return tracer.select(name, t0, t1)

    spmv, trsv, half = (window("backends.spmv"), window("backends.trsv"),
                        window("backends.halfvec"))

    def gbps(spans):
        seconds = _sum_dur(spans)
        return sum(s[5] for s in spans) / seconds / 1e9 if seconds else 0.0

    # set-up spans from the traced set-up on: plans compile at a solver's
    # first solve, which for prewarmed serving members is in the measured pass
    setup_spans = {name: tracer.select(name, setup_start)
                   for name in ("core.setup", "precond.factor", "plans.compile")}
    solves = window("solvers.solve")
    reqs = [r for r in phase.requests if r.result is not None]
    if solves:
        solve_p50 = _p50(s[3] * MS for s in solves)
    else:
        # solves ran in worker processes: their span is the returned wall time
        solve_p50 = _p50(r.result.wall_time * MS for r in reqs)
    plans_hits = stats_after["plans"]["hits"] - stats_before["plans"]["hits"]
    plans_miss = stats_after["plans"]["misses"] - stats_before["plans"]["misses"]
    plans_total = plans_hits + plans_miss
    apps = [r.result.preconditioner_applications for r in reqs]
    iters = [r.result.iterations for r in reqs]
    return {
        "backends.spmv_ms_per_rhs": _sum_dur(spmv) * MS / rhs,
        "backends.trsv_ms_per_rhs": _sum_dur(trsv) * MS / rhs,
        "backends.halfvec_ms_per_rhs": _sum_dur(half) * MS / rhs,
        "backends.spmv_calls_per_rhs": len(spmv) / rhs,
        "backends.trsv_calls_per_rhs": len(trsv) / rhs,
        "backends.halfvec_calls_per_rhs": len(half) / rhs,
        "backends.spmv_gbps_computed": gbps(spmv),
        "backends.trsv_gbps_computed": gbps(trsv),
        "precond.apply_ms_per_rhs": _sum_dur(window("precond.apply")) * MS / rhs,
        "solvers.solve_ms_p50": solve_p50,
        "solvers.outer_iters_per_rhs": statistics.fmean(iters) if iters else 0.0,
        "solvers.precond_apps_per_rhs": statistics.fmean(apps) if apps else 0.0,
        "core.setup_ms": _p50(s[2] - s[1] for s in setup_spans["core.setup"]) * MS,
        "precond.factor_ms": _p50(s[2] - s[1]
                                  for s in setup_spans["precond.factor"]) * MS,
        "plans.compile_ms": _p50(s[2] - s[1]
                                 for s in setup_spans["plans.compile"]) * MS,
        "plans.cache_hit_frac": plans_hits / plans_total if plans_total else 0.0,
        "plans.autotune_measured": (stats_after["autotune"]["measured"]
                                    - stats_before["autotune"]["measured"]),
        "plans.ell_verdicts": sum(1 for kind in tracer.plan_kinds.values()
                                  if kind == "ell"),
    }


def _serving_layers(tracer: Tracer, phase: Phase, summary: dict,
                    local_member: str | None, local_before: dict) -> dict:
    """Queue, hop, wire and coverage metrics of an open-loop pass."""
    t0, t1 = phase.start, phase.end
    hops = sorted((h for h in tracer.hops if t0 <= h.start <= t1),
                  key=lambda h: h.start)
    by_ctx = collections.defaultdict(list)
    for hop in hops:
        by_ctx[hop.ctx].append(hop)
    service_start = {}
    last_end: dict[str, float] = {}
    for hop in hops:
        begin = max(hop.start, last_end.get(hop.member, hop.start))
        service_start[id(hop)] = begin
        last_end[hop.member] = max(last_end.get(hop.member, 0.0),
                                   hop.end or hop.start)
    # spans the load generator's thread recorded for each burst: gateway
    # submit/flush, the member hand-off (shm publish, frame encode + send)
    span_by_ctx = collections.defaultdict(list)
    for s in tracer.spans:
        if s[4] is not None and t0 <= s[1] <= t1:
            span_by_ctx[s[4]].append((s[1], s[2]))

    queue_waits, unattributed, covered_total, latency_total = [], [], 0.0, 0.0
    for req in phase.requests:
        if req.done is None:
            continue
        ctx_hops = by_ctx.get(req.ctx, [])
        intervals = [(req.due, req.sent)] + span_by_ctx.get(req.ctx, [])
        for hop in ctx_hops:
            # the far side's solve, placed at the end of its round trip
            wall = sum(w for w in hop.walls if w is not None)
            if hop.end is not None:
                intervals.append((hop.end - wall, hop.end))
        covered = _union_length(intervals, req.due, req.done)
        latency = req.done - req.due
        covered_total += covered
        latency_total += latency
        unattributed.append((latency - covered) * MS)
        if ctx_hops:
            queue_waits.append(
                (service_start[id(ctx_hops[0])] - req.due) * MS)

    proc_hops = [h for h in hops if h.member.startswith("shard")]
    hop_ms = [((h.end - service_start[id(h)])
               - sum(w for w in h.walls if w is not None)) * MS
              for h in proc_hops if h.end is not None]
    remote_hops = [h for h in hops if not h.member.startswith("shard")
                   and h.member != local_member]
    remote_rhs = sum(h.ncols for h in remote_hops)
    member_rhs = sum(h.ncols for h in hops if not h.member.startswith("shard"))
    frames = [s for name in ("serve.remote.send_frame", "serve.remote.recv_frame")
              for s in tracer.select(name, t0, t1)]
    sends = tracer.select("serve.remote.send_frame", t0, t1)
    shipped = sum(1 for h in hops if h.setup_shipped
                  and h.member != local_member)
    counted = [h for h in hops if h.member != local_member]
    hits, total = len(counted) - shipped, len(counted)
    if local_member is not None:
        local = summary.get("cluster", {}).get("members", {}).get(
            local_member, {})
        hits += local.get("cache_hits", 0) - local_before.get("cache_hits", 0)
        total += (local.get("cache_hits", 0) + local.get("cache_misses", 0)
                  - local_before.get("cache_hits", 0)
                  - local_before.get("cache_misses", 0))
    publishes = tracer.select("par.shm.publish", t0, t1)
    overload = summary.get("overload", {})
    cluster = summary.get("cluster", {})
    remote_rtts = [(h.end - h.start) * MS for h in remote_hops
                   if h.end is not None]
    return {
        "serve.queue_wait_p50_ms": _p50(queue_waits),
        "serve.batch_size_mean": (sum(h.ncols for h in hops) / len(hops)
                                  if hops else 0.0),
        "serve.setup_cache_hit_frac": hits / total if total else 0.0,
        "serve.unattributed_ms_p50": _p50(unattributed),
        "serve.shed": overload.get("shed", 0),
        "serve.retries": summary.get("recovery", {}).get("retries", 0),
        "serve.overload_transitions": overload.get("transitions", 0),
        "par.procpool.hop_ms_p50": _p50(hop_ms),
        "par.shm.publishes": len(publishes),
        "par.shm.bytes_published": sum(
            s[5] for s in tracer.select("par.shm.bytes", t0, t1)),
        "serve.remote.rtt_p50_ms": _p50(remote_rtts),
        "serve.remote.frame_bytes_per_rhs": (
            sum(s[5] for s in frames) / remote_rhs if remote_rhs else 0.0),
        "serve.remote.encode_ms_per_rhs": (
            _sum_dur(sends) * MS / remote_rhs if remote_rhs else 0.0),
        "serve.cluster.remote_share": (
            remote_rhs / member_rhs if member_rhs else 0.0),
        "serve.cluster.hedges": cluster.get("hedges", 0),
        "serve.cluster.failovers": cluster.get("failovers", 0),
        "trace.coverage_frac": (
            covered_total / latency_total if latency_total else 0.0),
    }


#: serving-layer metrics, all zero on a workload with no serving tier
SERVING_METRICS = (
    "serve.queue_wait_p50_ms", "serve.batch_size_mean",
    "serve.setup_cache_hit_frac", "serve.unattributed_ms_p50", "serve.shed",
    "serve.retries", "serve.overload_transitions", "par.procpool.hop_ms_p50",
    "par.shm.publishes", "par.shm.bytes_published", "serve.remote.rtt_p50_ms",
    "serve.remote.frame_bytes_per_rhs", "serve.remote.encode_ms_per_rhs",
    "serve.cluster.remote_share", "serve.cluster.hedges",
    "serve.cluster.failovers")


def _cache_stats() -> dict:
    from repro.plans import autotune_stats, plan_cache_stats

    return {"plans": plan_cache_stats(), "autotune": autotune_stats()}


def _health(phase: Phase, lag_ms, overhead: float, triad) -> dict:
    return {
        "loadgen.lag_p90_ms": measure.nearest_rank(lag_ms, 90) if lag_ms else 0.0,
        "loadgen.sent": len(phase.requests),
        "host.triad_gbps_start": triad[0],
        "host.triad_gbps_end": triad[1],
        "trace.overhead_frac": overhead,
    }


# ------------------------------------------------------------------ #
# direct-hpcg: closed loop of warm F3RSolver.solve calls
# ------------------------------------------------------------------ #
def run_direct_hpcg(spec: dict, seed: int, seconds: float, trace: bool):
    from repro import F3RConfig, F3RSolver
    from repro.matgen import hpcg_matrix
    from repro.sparse import diagonal_scaling

    problem = spec["problem"]
    config = F3RConfig()
    matrix, _ = diagonal_scaling(hpcg_matrix(problem["nx"]))
    n = matrix.nrows
    warm_rhs = np.ones(n)

    def build():
        _clear_process_caches()
        start = time.perf_counter()
        solver = F3RSolver(matrix, preconditioner=problem["preconditioner"],
                           nblocks=problem["nblocks"], config=config)
        solver.solve(warm_rhs)
        return solver, time.perf_counter() - start

    def closed_loop(solver, budget_s: float, limit: int | None = None) -> Phase:
        phase = Phase(start=time.perf_counter())
        stop = phase.start + budget_s
        index = 0
        while (time.perf_counter() < stop if limit is None else index < limit):
            rhs = _rhs(seed, 0, index, n)
            now = time.perf_counter()
            req = Request(index, now, ("warm", 1), matrix, matrix, rhs,
                          ctx=index, sent=now)
            try:
                req.result = solver.solve(rhs)
            except Exception as exc:   # noqa: BLE001 - counted as failed
                req.error = f"{type(exc).__name__}: {exc}"
            req.done = time.perf_counter()
            phase.requests.append(req)
            index += 1
        phase.end = time.perf_counter()
        return phase

    diagnostics = {"problem": problem, "rows": n}
    if not trace:
        builds = [build() for _ in range(spec["setup_repeats"])]
        solver = builds[-1][0]
        setup_times = [t for _, t in builds]
        phase = closed_loop(solver, seconds)
        _check(phase.requests)
        metrics = _end_to_end(phase, spec, config.tol, setup_times, "closed")
        metrics["peak_rss_mb"] = measure.peak_rss_mb()
        diagnostics.update(setup_s=setup_times, mix=_mix(phase, spec),
                           failures=_failures(phase, config.tol))
        return _result(phase, config.tol, metrics), diagnostics

    triad_start = measure.triad_gbps()
    k = spec["trace_reference_requests"]
    reference_solver, _ = build()
    reference = closed_loop(reference_solver, 0.0, limit=k)
    del reference_solver
    _clear_process_caches()
    tracer = Tracer()
    tracer.install()
    try:
        before = _cache_stats()
        setup_start = time.perf_counter()
        solver, _ = build()
        phase = closed_loop(solver, seconds)
        after = _cache_stats()
    finally:
        tracer.uninstall()
    triad_end = measure.triad_gbps()
    _check(phase.requests)
    _check(reference.requests)
    mismatched = [i for i in range(min(k, len(phase.requests)))
                  if reference.requests[i].result is None
                  or phase.requests[i].result is None
                  or reference.requests[i].result.x.tobytes()
                  != phase.requests[i].result.x.tobytes()]
    extra = [f"traced and untraced x differ for request {i}" for i in mismatched]
    if len(phase.requests) < k:
        extra.append(f"traced pass completed only {len(phase.requests)} of "
                     f"the {k} reference requests")
    overhead = (statistics.median(r.latency_ms for r in phase.requests[:k])
                / statistics.median(r.latency_ms for r in reference.requests)
                - 1.0)
    metrics = _layer_metrics(tracer, phase, setup_start, len(phase.requests),
                             before, after)
    metrics.update(dict.fromkeys(SERVING_METRICS, 0.0))
    solves = tracer.select("solvers.solve", phase.start, phase.end)
    covered = sum(s[2] - s[1] for s in solves)
    total = sum(r.done - r.due for r in phase.requests)
    metrics["trace.coverage_frac"] = covered / total
    metrics.update(_health(phase, [], overhead, (triad_start, triad_end)))
    mix = _mix(phase, spec)
    diagnostics.update(
        mix=mix, bit_identical_requests=k - len(mismatched),
        plan_verdicts=_verdicts(tracer, spec, mix["flags"]),
        failures=_failures(phase, config.tol) + extra)
    return _result(phase, config.tol, metrics, extra), diagnostics


# ------------------------------------------------------------------ #
# open-loop load generator shared by the serving workloads
# ------------------------------------------------------------------ #
@dataclass
class Burst:
    offset: float                 # seconds after the schedule start
    operator: object
    csr: object
    mode: tuple
    rhs: list


def _jittered_offsets(count: int, span: float, jitter: float,
                      rng) -> np.ndarray:
    """``count`` arrival offsets evenly spread over ``span``, each moved by a
    seeded uniform jitter of up to ``jitter`` times the gap (< 0.5, so the
    order never changes)."""
    gap = span / count
    return (np.arange(count) + 0.5 + rng.uniform(-jitter, jitter, count)) * gap


def _open_loop(bursts, submit, flush, tracer: Tracer | None,
               drain_timeout: float = 60.0) -> tuple[Phase, list]:
    """Send each burst when due (then flush); time every RHS from its due time."""
    phase = Phase()
    lags = []
    lock = threading.Lock()
    pending = [0]
    all_done = threading.Event()

    def finished(req, future) -> None:
        req.done = time.perf_counter()
        exc = future.exception()
        if exc is not None:
            req.error = f"{type(exc).__name__}: {exc}"
        else:
            req.result = future.result()
        with lock:
            pending[0] -= 1
            if pending[0] == 0:
                all_done.set()

    origin = time.perf_counter() + 0.05
    phase.start = origin
    index = 0
    with lock:
        pending[0] = sum(len(b.rhs) for b in bursts)
    for burst_id, burst in enumerate(bursts):
        due = origin + burst.offset
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        if tracer is not None:
            tracer.set_ctx(burst_id)
        sent = time.perf_counter()
        lags.append((sent - due) * MS)
        for rhs in burst.rhs:
            req = Request(index, due, burst.mode, burst.operator, burst.csr,
                          rhs, ctx=burst_id, sent=sent)
            phase.requests.append(req)
            index += 1
            try:
                future = submit(burst.operator, rhs)
            except Exception as exc:   # noqa: BLE001 - refused = failed
                req.done = time.perf_counter()
                req.error = f"{type(exc).__name__}: {exc}"
                with lock:
                    pending[0] -= 1
                continue
            future.add_done_callback(lambda f, r=req: finished(r, f))
        flush()
        if tracer is not None:
            tracer.set_ctx(None)
    with lock:
        if pending[0] == 0:
            all_done.set()
    all_done.wait(drain_timeout)
    for req in phase.requests:
        if req.done is None:
            req.error = "no answer before the drain timeout"
    phase.end = max([r.done for r in phase.requests if r.done is not None],
                    default=time.perf_counter())
    return phase, lags


def _serving_run(spec, seed, seconds, trace, tol, make_bursts, build_system,
                 close_system, local_member, setup_probe=None):
    """Setup repeats + one measured open-loop pass (untraced), or an untraced
    reference prefix then a traced pass on a fresh system (traced)."""
    diagnostics = {}
    if not trace:
        bursts = make_bursts(0)
        setup_times, system = [], None
        for _ in range(spec["setup_repeats"]):
            if system is not None:
                close_system(system)
            start = time.perf_counter()
            system = build_system()
            setup_times.append(time.perf_counter() - start)
        try:
            phase, lags = _open_loop(bursts, system["submit"], system["flush"],
                                     None)
            rss = measure.peak_rss_mb()
            summary = system["gateway"].stats.summary()
        finally:
            close_system(system)
        _check(phase.requests)
        metrics = _end_to_end(phase, spec, tol, setup_times, "open")
        metrics["peak_rss_mb"] = rss
        diagnostics.update(
            setup_s=setup_times, mix=_mix(phase, spec),
            loadgen_lag_p90_ms=measure.nearest_rank(lags, 90),
            summary=_trim_summary(summary),
            failures=_failures(phase, tol))
        return _result(phase, tol, metrics), diagnostics, phase, summary

    triad_start = measure.triad_gbps()
    main = make_bursts(0)
    prefix_len = max(1, len(main) // 4)
    prefix = make_bursts(1)[:prefix_len]
    system = build_system()
    try:
        reference, _ = _open_loop(prefix, system["submit"], system["flush"],
                                  None)
    finally:
        close_system(system)
    _clear_process_caches()
    tracer = Tracer()
    tracer.install()
    try:
        before = _cache_stats()
        setup_start = time.perf_counter()
        system = build_system()
        local_before = {}
        if local_member is not None:
            local_before = dict(system["gateway"].stats.summary()["cluster"]
                                ["members"][local_member])
        try:
            phase, lags = _open_loop(main, system["submit"], system["flush"],
                                     tracer)
            summary = system["gateway"].stats.summary()
        finally:
            close_system(system)
        if setup_probe is not None:
            setup_probe()
        after = _cache_stats()
    finally:
        tracer.uninstall()
    triad_end = measure.triad_gbps()
    _check(phase.requests)
    _check(reference.requests)
    ref_lat = [r.latency_ms for r in reference.requests if r.done is not None]
    traced_lat = [r.latency_ms for r in phase.requests[:len(reference.requests)]
                  if r.done is not None]
    overhead = statistics.median(traced_lat) / statistics.median(ref_lat) - 1.0
    local_rhs = sum(h.ncols for h in tracer.hops
                    if h.member == local_member and h.start >= phase.start)
    metrics = _layer_metrics(tracer, phase, setup_start, local_rhs,
                             before, after)
    metrics.update(_serving_layers(tracer, phase, summary, local_member,
                                   local_before))
    metrics.update(_health(phase, lags, overhead, (triad_start, triad_end)))
    extra = [f"reference pass: {f}" for f in _failures(reference, tol)]
    mix = _mix(phase, spec)
    diagnostics.update(
        mix=mix, summary=_trim_summary(summary),
        plan_verdicts=_verdicts(tracer, spec, mix["flags"]),
        failures=_failures(phase, tol) + extra)
    return _result(phase, tol, metrics, extra), diagnostics, phase, summary


def _warm_up(gateway, operators) -> None:
    """One solve per operator, so plans are compiled before traffic starts."""
    futures = [gateway.submit(op, np.ones(op.nrows)) for op in operators]
    gateway.flush()
    for future in futures:
        future.result()


def _verdicts(tracer: Tracer, spec: dict, flags: list) -> dict:
    """Storage verdict of every plan compiled in-process, by fingerprint;
    a verdict outside the workload's expected set is flagged."""
    verdicts = {f"{fp[:12]}/{prec}": kind
                for (fp, prec), kind in tracer.plan_kinds.items()}
    expected = spec["expected_mix"]["plan_kinds"]
    odd = {key: kind for key, kind in verdicts.items() if kind not in expected}
    if odd:
        flags.append(
            f"plan storage verdicts {odd} outside the expected {expected}")
    return verdicts


def _trim_summary(summary: dict) -> dict:
    keep = ("requests", "batches", "batched_requests", "cache_hits",
            "cache_misses", "largest_batch", "recovery", "overload", "procs",
            "autotune", "cluster")
    out = {k: summary[k] for k in keep if k in summary}
    if "overload" in out:
        out["overload"] = {k: v for k, v in out["overload"].items()
                           if k != "last_transitions"}
    return out


# ------------------------------------------------------------------ #
# serve-churn: ShardedGateway procs=2 with cold operators in the stream
# ------------------------------------------------------------------ #
def _assembled(family: str, nx: int, value: float):
    from repro.matgen import hpgmp_matrix, stencil27_matrix
    from repro.operators import as_operator
    from repro.sparse import diagonal_scaling

    if family == "hpcg":
        matrix = stencil27_matrix(nx, nx, nx, diag_value=value, off_value=-1.0)
    else:
        matrix = hpgmp_matrix(nx, beta=value)
    scaled, _ = diagonal_scaling(matrix)
    return as_operator(scaled), scaled


def run_serve_churn(spec: dict, seed: int, seconds: float, trace: bool):
    from repro import F3RConfig, F3RSolver, ShardedGateway
    from repro.serve.gateway import route_fingerprint

    problem = spec["problem"]
    config = F3RConfig()
    nx = problem["nx"]
    gateway_spec = spec["gateway"]
    nshards = gateway_spec["procs"]

    def shard_of(operator) -> int:
        return route_fingerprint(operator.fingerprint(), nshards)

    # each burst size has its own operator family, so a work mode is
    # (cold/warm, size) and the mix of modes is exact in every block; each
    # size has one hot operator per shard
    hot = {}
    for size, (family, values) in problem["hot"].items():
        pairs = [_assembled(family, nx, value) for value in values]
        hot[size] = {shard_of(op): (op, csr) for op, csr in pairs}
        if sorted(hot[size]) != list(range(nshards)):
            raise RuntimeError(f"hot operators of size {size} do not cover "
                               f"the {nshards} shards: {sorted(hot[size])}")
    block = spec["block"]
    per_block = sum(block.values())
    n_blocks = max(1, round(spec["rate_bursts_per_s"] * seconds / per_block))
    n_bursts = n_blocks * per_block
    rhs_per_block = sum(int(kind.split("-")[1]) * count
                        for kind, count in block.items())
    # the RHS of one burst are solved as one batch and finish together, so
    # they are one latency sample: the tail keeps 10 bursts of the largest
    # size beyond it
    largest = max(int(kind.split("-")[1]) for kind in block)
    spec = dict(spec, rhs_per_sample=largest,
                tail_percentile=measure.tail_percentile(
                    n_blocks * rhs_per_block, beyond=10 * largest))

    def cold_operator(rng, size: str, shard: int):
        """A never-seen operator (seeded diagonal or beta) routed to ``shard``."""
        family, (lo, hi) = problem["cold"][size]
        while True:
            operator, csr = _assembled(family, nx, rng.uniform(lo, hi))
            if shard_of(operator) == shard:
                return operator, csr

    def make_bursts(stream: int) -> list[Burst]:
        """Bursts alternate between the shards, so a shard's next burst is
        due two gaps after its last one and never queues behind it."""
        rng = np.random.default_rng([seed, 100 + stream])
        offsets = _jittered_offsets(n_bursts, seconds, spec["arrival_jitter"],
                                    rng)
        slots = []
        for _ in range(n_blocks):
            kinds = [kind for kind, count in block.items() for _ in range(count)]
            rng.shuffle(kinds)
            slots += kinds
        bursts, index = [], 0
        for number, (offset, kind) in enumerate(zip(offsets, slots)):
            temperature, size = kind.split("-")
            shard = number % nshards
            if temperature == "warm":
                operator, csr = hot[size][shard]
            else:
                operator, csr = cold_operator(rng, size, shard)
            rhs = [_rhs(seed, 10 + stream, index + j, csr.nrows)
                   for j in range(int(size))]
            index += int(size)
            bursts.append(Burst(offset, operator, csr,
                                (temperature, int(size)), rhs))
        return bursts

    def build_system():
        gateway = ShardedGateway(
            config, preconditioner=problem["preconditioner"],
            nblocks=problem["nblocks"], procs=gateway_spec["procs"],
            max_batch=gateway_spec["max_batch"],
            cache_size=gateway_spec["cache_size"])
        operators = [op for ops in hot.values() for op, _ in ops.values()]
        gateway.prewarm(operators)
        _warm_up(gateway, operators)
        return {"gateway": gateway, "submit": gateway.submit,
                "flush": gateway.flush}

    def close_system(system) -> None:
        system["gateway"].close()

    def probe():
        """Worker set-ups are untraced; repeat them in-process, traced."""
        _clear_process_caches()
        cold = [_assembled(family, nx, lo)
                for family, (lo, _) in problem["cold"].values()]
        for operator, _ in [op for ops in hot.values()
                            for op in ops.values()] + cold:
            solver = F3RSolver(operator, preconditioner=problem["preconditioner"],
                               nblocks=problem["nblocks"], config=config)
            solver.solve(np.ones(operator.nrows))

    result, diagnostics, phase, summary = _serving_run(
        spec, seed, seconds, trace, config.tol, make_bursts, build_system,
        close_system, None, setup_probe=probe)
    cold_bursts = {r.ctx for r in phase.requests if r.mode[0] == "cold"}
    all_bursts = {r.ctx for r in phase.requests}
    cold_share = len(cold_bursts) / len(all_bursts)
    transitions = summary.get("overload", {}).get("transitions", 0)
    mix = diagnostics["mix"]
    mix.update(cold_burst_share=cold_share, bursts=len(all_bursts),
               overload_transitions=transitions,
               live_fingerprints=len({r.operator.fingerprint()
                                      for r in phase.requests}),
               cache_size=gateway_spec["cache_size"])
    expected = spec["expected_mix"]
    if abs(cold_share - expected["cold_share"]) > 1e-9:
        mix["flags"].append(f"cold burst share {cold_share:.3f} differs from "
                            f"{expected['cold_share']}")
    if transitions != expected["overload_transitions"]:
        mix["flags"].append(f"{transitions} brownout transitions")
    diagnostics.update(rate_bursts_per_s=n_bursts / seconds, bursts=n_bursts)
    return result, diagnostics


# ------------------------------------------------------------------ #
# serve-cluster: ClusterGateway over a local member and a spawned server
# ------------------------------------------------------------------ #
def run_serve_cluster(spec: dict, seed: int, seconds: float, trace: bool):
    from repro import ClusterConfig, ClusterGateway, F3RConfig
    from repro.matgen.operators import stencil27_operator
    from repro.serve.gateway import rank_members
    from repro.serve.remote import spawn_server

    problem = spec["problem"]
    config = F3RConfig()
    nx = problem["nx"]
    operators = []
    for diag in problem["diag_values"]:
        op = stencil27_operator(nx, nx, nx, diag_value=diag, off_value=-1.0)
        operators.append((op, op.assemble()))
    members = ("local", "remote")
    owners = collections.Counter(rank_members(op.fingerprint(), list(members))[0]
                                 for op, _ in operators)
    n_rhs = max(1, round(spec["rate_rhs_per_s"] * seconds))
    spec = dict(spec, tail_percentile=measure.tail_percentile(n_rhs))

    def make_bursts(stream: int) -> list[Burst]:
        rng = np.random.default_rng([seed, 200 + stream])
        offsets = _jittered_offsets(n_rhs, seconds, spec["arrival_jitter"], rng)
        bursts, cycle = [], []
        for index, offset in enumerate(offsets):
            if not cycle:
                cycle = list(rng.permutation(len(operators)))
            operator, csr = operators[cycle.pop()]
            bursts.append(Burst(offset, operator, csr, ("warm", 1),
                                [_rhs(seed, 20 + stream, index, csr.nrows)]))
        return bursts

    def build_system():
        process, (host, port) = spawn_server(
            config=config, preconditioner="auto",
            max_workers=spec["members"]["remote"]["max_workers"])
        try:
            gateway = ClusterGateway(
                config, cluster=ClusterConfig(
                    members=(("local", "local"), ("remote", f"{host}:{port}"))),
                max_workers=spec["members"]["local"]["max_workers"])
            gateway.prewarm([op for op, _ in operators])
            _warm_up(gateway, [op for op, _ in operators])
        except BaseException:
            process.terminate()
            process.join(10)
            raise
        return {"gateway": gateway, "process": process,
                "submit": gateway.submit, "flush": gateway.flush}

    def close_system(system) -> None:
        system["gateway"].close()
        process = system["process"]
        process.terminate()
        process.join(10)
        if process.is_alive():
            process.kill()
            process.join(10)

    result, diagnostics, phase, summary = _serving_run(
        spec, seed, seconds, trace, config.tol, make_bursts, build_system,
        close_system, "local" if trace else None)
    cluster = summary.get("cluster", {})
    remote = sum(1 for r in phase.requests
                 if rank_members(r.operator.fingerprint(), list(members))[0]
                 == "remote")
    mix = diagnostics["mix"]
    mix.update(owners=dict(owners), remote_share=remote / len(phase.requests),
               hedges=cluster.get("hedges", 0),
               failovers=cluster.get("failovers", 0))
    expected = spec["expected_mix"]
    low, high = expected["remote_share"]
    if not low <= mix["remote_share"] <= high:
        mix["flags"].append(f"remote share {mix['remote_share']:.2f} outside "
                            f"[{low}, {high}]")
    for key in ("hedges", "failovers"):
        if mix[key] != expected[key]:
            mix["flags"].append(f"{mix[key]} {key}")
    diagnostics.update(rate_rhs_per_s=n_rhs / seconds)
    return result, diagnostics


RUNNERS = {
    "direct-hpcg": run_direct_hpcg,
    "serve-churn": run_serve_churn,
    "serve-cluster": run_serve_cluster,
}
