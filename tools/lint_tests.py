#!/usr/bin/env python
"""Fail if any test file lacks a tier marker (``make lint-tests``).

Every file under ``tests/`` must carry a module-level tier marker so the
tier-1 / tier-2 split stays exhaustive::

    pytestmark = pytest.mark.tier1        # or tier2, or a list including one

Class- or function-level tier markers may *refine* the file's default (e.g. a
tier-2 hypothesis sweep inside a tier-1 file), but the module-level marker is
what guarantees nothing silently falls out of both suites.

The checker also pins a manifest of *required* test-module globs
(:data:`REQUIRED_MODULES`): suites that gate an acceptance criterion — the
backend-equivalence contract, the batched-solve sweeps, the operator-layer
equivalence/end-to-end files — must exist under ``tests/``, so a rename or
deletion fails the lint instead of silently dropping the gate.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent.parent / "tests"

#: module-level assignment like ``pytestmark = pytest.mark.tier1`` or
#: ``pytestmark = [pytest.mark.tier2, ...]`` (anchored to column 0)
MARKER_RE = re.compile(r"^pytestmark\s*=.*pytest\.mark\.tier[12]", re.MULTILINE)

#: globs that must each match at least one test file: the suites that pin an
#: issue's acceptance criteria
REQUIRED_MODULES = (
    "test_backends_equivalence*.py",   # kernel-engine contract (PR 1)
    "test_batched_solves*.py",         # batched multi-RHS engine (PR 2)
    "test_operators*.py",              # operator layer: equivalence + e2e (PR 3)
    "test_plans*.py",                  # solve plans: fused parity, staged fp16,
                                       # autotune, allocation regression (PR 4)
    "test_parallel*.py",               # multicore engine: REPRO_THREADS
                                       # bit-identity sweep, counter parity,
                                       # pool budget, concurrency audit (PR 5)
    "test_robustness*.py",             # guards, recovery ladder, dispatcher
                                       # hardening, guarded parity (PR 6)
    "test_faults*.py",                 # fault-injection determinism and the
                                       # seeded 50-request hammer (PR 6)
    "test_cache_artifacts*.py",        # artifact store: hit/miss, corruption
                                       # tolerance, restart-skip, autotune
                                       # disk-cache merge (PR 7)
    "test_sparse_io*.py",              # MatrixMarket reader/writer fixes (PR 7)
    "test_procpool*.py",               # process tier: shm lifecycle, REPRO_PROCS
                                       # bit-identity, crash recovery (PR 8)
    "test_overload*.py",               # priority admission / load shedding,
                                       # brownout hysteresis, metrics export,
                                       # the tier-2 overload hammer (PR 9)
    "test_watchdog*.py",               # worker heartbeats, hang classification,
                                       # respawn semantics (PR 9)
    "test_remote*.py",                 # remote shard tier: frame codec, net
                                       # faults, reconnect + replay, dedup,
                                       # hedging, failover, the tier-2
                                       # cluster chaos hammer (PR 10)
    "test_native*.py",                 # compiled trsv/trsm: bit identity with
                                       # the NumPy sweep and the oracle,
                                       # fallbacks, build cache
)


def main() -> int:
    test_files = sorted(TESTS_DIR.glob("test_*.py"))
    if not test_files:
        print(f"lint-tests: no test files found under {TESTS_DIR}", file=sys.stderr)
        return 2
    status = 0
    missing = [path for path in test_files
               if not MARKER_RE.search(path.read_text(encoding="utf-8"))]
    if missing:
        print("lint-tests: test files without a module-level tier marker "
              "(add `pytestmark = pytest.mark.tier1` or tier2):", file=sys.stderr)
        for path in missing:
            print(f"  {path.relative_to(TESTS_DIR.parent)}", file=sys.stderr)
        status = 1
    absent = [glob for glob in REQUIRED_MODULES if not list(TESTS_DIR.glob(glob))]
    if absent:
        print("lint-tests: required test modules are missing (an acceptance "
              "gate was renamed or deleted):", file=sys.stderr)
        for glob in absent:
            print(f"  tests/{glob}", file=sys.stderr)
        status = 1
    if status == 0:
        print(f"lint-tests: OK ({len(test_files)} test files, all tier-marked; "
              f"{len(REQUIRED_MODULES)} required suites present)")
    return status


if __name__ == "__main__":
    sys.exit(main())
