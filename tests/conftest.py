"""Shared fixtures for the test suite.

Matrices are kept small (a few hundred unknowns) so the full suite runs in a
couple of minutes despite the emulated low-precision kernels.

Two suite-wide conventions live here:

* **Tier markers** — every test file declares a module-level ``pytestmark``
  of ``tier1`` (fast, deterministic; the default suite and the CI gate) or
  ``tier2`` (hypothesis sweeps and paper-claim integration tests, run by
  ``make test-all``).  ``make lint-tests`` enforces the convention.
* **Hypothesis profiles** — under ``CI=1`` the ``ci`` profile pins a
  deterministic derandomized run with a reduced example budget, so tier-2
  sweeps are reproducible and bounded in time; the default ``dev`` profile
  keeps randomized exploration for local runs.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import settings

# Profiles are registered at import time so per-test @settings(...) decorators
# (which override only the fields they name) compose with the active profile.
settings.register_profile("dev", deadline=None)
settings.register_profile("ci", deadline=None, derandomize=True, max_examples=15,
                          database=None, print_blob=False)
settings.load_profile("ci" if os.environ.get("CI", "") == "1" else "dev")

from repro.backends import get_backend
from repro.backends.native import Library
from repro.matgen import (
    hpcg_matrix,
    hpgmp_matrix,
    poisson2d,
    random_diagonally_dominant,
    random_spd,
)
from repro.precond import BlockJacobiIC0, BlockJacobiILU0, JacobiPreconditioner
from repro.sparse import diagonal_scaling


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def spd_matrix():
    """Small SPD matrix: diagonally scaled HPCG 6^3 (n = 216, 27-point stencil)."""
    matrix, _ = diagonal_scaling(hpcg_matrix(6))
    return matrix


@pytest.fixture(scope="session")
def nonsym_matrix():
    """Small non-symmetric matrix: diagonally scaled HPGMP 6^3."""
    matrix, _ = diagonal_scaling(hpgmp_matrix(6))
    return matrix


@pytest.fixture(scope="session")
def poisson_matrix():
    """2-D Poisson on a 12x12 grid (n = 144), unscaled."""
    return poisson2d(12)


@pytest.fixture(scope="session")
def dd_matrix():
    """Random non-symmetric strictly diagonally dominant matrix (n = 120)."""
    return random_diagonally_dominant(120, nnz_per_row=5, seed=7)


@pytest.fixture(scope="session")
def small_spd_random():
    """Random SPD-by-dominance matrix (n = 80)."""
    return random_spd(80, nnz_per_row=4, seed=3)


@pytest.fixture(scope="session")
def spd_rhs(spd_matrix, rng):
    return rng.random(spd_matrix.nrows)


@pytest.fixture(scope="session")
def nonsym_rhs(nonsym_matrix, rng):
    return rng.random(nonsym_matrix.nrows)


@pytest.fixture(scope="session")
def spd_precond(spd_matrix):
    """Block-Jacobi IC(0) preconditioner for the SPD fixture (fp64 storage)."""
    return BlockJacobiIC0(spd_matrix, nblocks=4)


@pytest.fixture(scope="session")
def nonsym_precond(nonsym_matrix):
    """Block-Jacobi ILU(0) preconditioner for the non-symmetric fixture."""
    return BlockJacobiILU0(nonsym_matrix, nblocks=4)


@pytest.fixture()
def jacobi_precond(dd_matrix):
    return JacobiPreconditioner(dd_matrix)


@contextmanager
def native_forced_off():
    """Run the ``fast`` engine's triangular solves on its NumPy level sweep
    (the fallback of the compiled row sweep) for the duration."""
    backend = get_backend("fast")
    saved = backend._native
    backend._native = Library._forced_off()
    try:
        yield
    finally:
        backend._native = saved


@pytest.fixture()
def native_off():
    with native_forced_off():
        yield
