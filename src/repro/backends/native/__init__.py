"""Compiled row-sweep triangular solves for the ``fast`` engine.

``trsv.c`` (next to this file) holds one C row sweep per compute dtype
(fp16, fp32, fp64) that reproduces the NumPy level sweep's per-row
arithmetic bit for bit — see the header comment of ``trsv.c`` for the
reduce-order contract.  :class:`Library` builds it with the local ``cc``
at the first triangular solve (never at import), caches the shared object
per user, loads it through :mod:`ctypes` and checks it against the NumPy
path before the first use:

* **cache** — ``$XDG_CACHE_HOME/repro/native`` (default
  ``~/.cache/repro/native``), else a per-user directory under
  :func:`tempfile.gettempdir`.  The file name carries a hash of the C
  source, the compiler's ``--version`` output and :data:`FLAGS`, so an
  edited source or an upgraded compiler builds a new library.  A build
  writes a temporary file and ``os.replace``-s it into place, so processes
  racing the first build each load a complete library.
* **fallback** — any of: no compiler, a CPU without F16C, a failed build or
  load, no writable cache directory, or a self-test mismatch leaves the
  library in the ``"fallback"`` state with that reason
  (:meth:`Library.status`); the engine then runs its NumPy level sweep,
  whose bits are the same.
* **self-test** — at load, each dtype solves a small fixed factor whose
  rows have 0 to 139 off-diagonals (every branch of numpy's pairwise sum)
  natively and through the NumPy path, one and three right-hand sides; a
  single differing bit (say, a NumPy release that reorders its reductions)
  selects the fallback instead of serving different bits.

ctypes releases the GIL for the duration of each native call.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from pathlib import Path

import numpy as np

__all__ = ["FLAGS", "SOURCE", "Library", "Sweep", "default_cache_dirs"]

#: the C source of the kernels
SOURCE = Path(__file__).with_name("trsv.c")

#: compile flags; no ``-march=native`` / ``-ffast-math``: FMA contraction or
#: reassociation would change the bits
FLAGS = ("-O2", "-mf16c", "-ffp-contract=off", "-shared", "-fPIC")

#: compute dtype -> exported symbol suffix
_SUFFIX = {np.dtype(np.float16): "f16", np.dtype(np.float32): "f32",
           np.dtype(np.float64): "f64"}

# int repro_trsm_<suf>(n, order, rowptr, cols, vals, inv, k, b, x)
_ARGTYPES = [ctypes.c_int64] + [ctypes.c_void_p] * 5 + [ctypes.c_int64,
                                                        ctypes.c_void_p,
                                                        ctypes.c_void_p]


class _Unavailable(Exception):
    """Native kernels cannot be used; ``args[0]`` is the fallback reason."""


def default_cache_dirs() -> list[Path]:
    """Where the library is looked up and built, in order of preference."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    uid = os.getuid() if hasattr(os, "getuid") else "user"
    return [Path(base) / "repro" / "native",
            Path(tempfile.gettempdir()) / f"repro-native-{uid}"]


def _private_dir(directory: Path) -> bool:
    """Create ``directory`` if needed; true when only this user can write it
    (a library loaded from a directory others can write is not trusted)."""
    try:
        directory.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = directory.stat()
    except OSError:
        return False
    owned = not hasattr(os, "getuid") or st.st_uid == os.getuid()
    return owned and not st.st_mode & 0o022


def _level_layout(factor) -> tuple:
    """The factor's rows flattened in level order (pattern only).

    ``(order, rowptr, cols, gather)``: position ``p`` solves row
    ``order[p]`` from the terms ``rowptr[p]:rowptr[p + 1]`` of ``cols``;
    ``gather`` maps those terms to positions in ``factor.off_vals``.
    """
    n = factor.nrows
    order = (np.concatenate(factor.levels).astype(np.int32) if factor.levels
             else np.zeros(0, dtype=np.int32))
    if order.size != n or (n and (order.min() < 0 or order.max() >= n)):
        raise ValueError("malformed triangular factor level schedule")
    seen = np.zeros(n, dtype=bool)
    seen[order] = True
    if not seen.all():
        raise ValueError("level schedule is not a permutation of the rows")
    starts = factor.off_rowptr[order].astype(np.int64)
    counts = factor.off_rowptr[order + 1] - starts
    rowptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=rowptr[1:])
    gather = np.repeat(starts - rowptr[:-1], counts) + np.arange(rowptr[-1])
    cols = np.ascontiguousarray(factor.off_cols[gather], dtype=np.int32)
    if cols.size and (cols.min() < 0 or cols.max() >= n):
        raise ValueError("malformed triangular factor columns")
    return order, rowptr, cols, gather


class Sweep:
    """One factor's level-order arrays in one compute dtype, pointers
    resolved once, so a call marshals only ``b`` and ``x``.

    The pattern arrays come from the factor's shared layout; the
    off-diagonal values and inverse diagonal are gathered and cast per
    dtype.  Lives in the factor's ``_native`` cache.
    """

    __slots__ = ("dtype", "nrows", "_fn", "_arrays", "_static")

    def __init__(self, fn, factor, dtype, layout) -> None:
        order, rowptr, cols, gather = layout
        # cast like the NumPy path, then widen fp16 to the kernel's fp32
        # working copies (exact)
        work = np.float32 if dtype == np.float16 else dtype
        vals = factor.off_vals[gather].astype(dtype).astype(work)
        inv = factor.inv_diag[order].astype(dtype).astype(work)
        self.dtype = np.dtype(dtype)
        self.nrows = factor.nrows
        self._fn = fn
        self._arrays = (order, rowptr, cols, vals, inv)   # keep buffers alive
        self._static = (self.nrows,) + tuple(a.ctypes.data for a in self._arrays)

    def __call__(self, b: np.ndarray) -> np.ndarray:
        """Solve for ``b`` of shape ``(n,)`` or ``(n, k)``; the result has
        ``b``'s shape in the compute dtype (``b`` is cast like ``astype``)."""
        if b.ndim not in (1, 2) or b.shape[0] != self.nrows:
            raise ValueError(f"triangular solve needs b of shape "
                             f"({self.nrows},) or ({self.nrows}, k); got {b.shape}")
        b = np.ascontiguousarray(b, dtype=self.dtype)
        x = np.empty_like(b)
        if x.size and self._fn(*self._static, 1 if b.ndim == 1 else b.shape[1],
                               b.ctypes.data, x.ctypes.data):
            raise MemoryError("native triangular solve: out of memory")
        return x


class NativeCache(dict):
    """A factor's ``{compute dtype: Sweep}`` cache plus its pattern-only
    level-order ``layout``, which :meth:`shared` hands to ``astype`` copies.

    Pickles and deep-copies as empty: the entries hold raw pointers and
    ctypes function handles, which must never travel with the factor.
    """

    __slots__ = ("layout",)

    def __init__(self, layout: tuple | None = None) -> None:
        super().__init__()
        self.layout = layout

    def __reduce__(self):
        return (NativeCache, ())

    def shared(self) -> "NativeCache":
        """An empty cache for a copy with the same sparsity pattern."""
        return NativeCache(self.layout)


class Library:
    """The compiled kernels of one process, loaded on first use.

    ``reference(factor, b)`` is the NumPy sweep the self-test compares
    against (``b`` already in the compute dtype; 1-D or 2-D).  ``state`` is
    ``"unloaded"`` until the first :meth:`sweep`, then ``"ready"`` or
    ``"fallback"`` (with ``reason``) for the life of the object.
    """

    def __init__(self, reference, cc: str = "cc",
                 cache_dirs: list[Path] | None = None) -> None:
        self.cc = cc
        self.cache_dirs = cache_dirs
        self.state = "unloaded"
        self.reason: str | None = None
        self.path: str | None = None
        self._reference = reference
        self._fns: dict = {}
        self._lock = threading.Lock()

    def __reduce__(self):
        # a pickled/deep-copied engine (plans hold one) gets a fresh,
        # unloaded library: ctypes handles and the lock do not travel
        return (Library, (self._reference, self.cc, self.cache_dirs))

    @classmethod
    def _forced_off(cls) -> "Library":
        """A library that always falls back (test hook)."""
        lib = cls(reference=None)
        lib.state, lib.reason = "fallback", "forced_off"
        return lib

    def status(self) -> dict:
        """``{"state", "reason", "path"}`` of this library."""
        return {"state": self.state, "reason": self.reason, "path": self.path}

    def sweep(self, factor, dtype) -> Sweep | None:
        """The factor's native sweep for compute ``dtype`` (fp16/fp32/fp64),
        or ``None`` when the caller must run the NumPy path."""
        if self.state == "unloaded":
            self._load()
        if self.state != "ready":
            return None
        cache = factor._native
        entry = cache.get(dtype)
        if entry is None:
            if cache.layout is None:
                cache.layout = _level_layout(factor)
            entry = cache[dtype] = Sweep(self._fns[dtype], factor, dtype,
                                         cache.layout)
        return entry

    # ------------------------------------------------------------------ #
    def _load(self) -> None:
        with self._lock:
            if self.state != "unloaded":
                return
            try:
                lib = self._open()
                try:
                    cpu_ok = lib.repro_native_cpu_ok
                    fns = {dtype: getattr(lib, f"repro_trsm_{suffix}")
                           for dtype, suffix in _SUFFIX.items()}
                except AttributeError:
                    raise _Unavailable("load_failed") from None
                cpu_ok.argtypes, cpu_ok.restype = [], ctypes.c_int
                for fn in fns.values():
                    fn.argtypes, fn.restype = _ARGTYPES, ctypes.c_int
                if not cpu_ok():
                    raise _Unavailable("no_f16c")
                if not _selftest(fns, self._reference):
                    raise _Unavailable("selftest_mismatch")
            except _Unavailable as exc:
                self.reason = exc.args[0]
                self.state = "fallback"
                return
            self._fns = fns
            self.state = "ready"

    def _open(self) -> ctypes.CDLL:
        """Load the cached library, building it first when absent."""
        try:
            version = subprocess.run([self.cc, "--version"], capture_output=True,
                                     check=True, timeout=60).stdout
        except (OSError, subprocess.SubprocessError):
            raise _Unavailable("no_compiler") from None
        try:
            source = SOURCE.read_bytes()
        except OSError:
            raise _Unavailable("build_failed") from None
        digest = hashlib.sha256()
        for part in (source, version, " ".join(FLAGS).encode()):
            digest.update(part + b"\0")
        name = f"trsv-{digest.hexdigest()[:20]}.so"
        dirs = self.cache_dirs if self.cache_dirs is not None else default_cache_dirs()
        for directory in dirs:
            if not _private_dir(directory):
                continue
            path = directory / name
            if not path.is_file() and not self._build(directory, path):
                continue
            try:
                lib = ctypes.CDLL(str(path))
            except OSError:
                raise _Unavailable("load_failed") from None
            self.path = str(path)
            return lib
        raise _Unavailable("cache_unwritable")

    def _build(self, directory: Path, path: Path) -> bool:
        """Compile into ``path`` atomically; false when ``directory`` cannot
        take the file, :class:`_Unavailable` when the compiler fails."""
        try:
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".build-", suffix=".so")
        except OSError:
            return False
        os.close(fd)
        try:
            try:
                proc = subprocess.run([self.cc, *FLAGS, "-o", tmp, str(SOURCE)],
                                      capture_output=True, timeout=300)
            except (OSError, subprocess.SubprocessError):
                raise _Unavailable("build_failed") from None
            if proc.returncode:
                raise _Unavailable("build_failed")
            try:
                os.replace(tmp, path)
            except OSError:
                return False
            return True
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)


# ---------------------------------------------------------------------- #
# load-time self-test
# ---------------------------------------------------------------------- #
#: off-diagonal counts of the self-test rows: empty and sequential rows,
#: the 8-accumulator branch (>= 9 terms) and the recursive split (> 129)
_SELFTEST_COUNTS = (0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 40, 129, 130, 139)
_SELFTEST_BASE = 150


def _selftest_factor():
    """A fixed lower fp64 factor: 150 diagonal-only rows, then one row per
    entry of ``_SELFTEST_COUNTS`` depending on that many of them."""
    from ...sparse import CSRMatrix, TriangularFactor

    rng = np.random.default_rng(20240917)
    n = _SELFTEST_BASE + len(_SELFTEST_COUNTS)
    indptr, indices, values = [0], [], []
    for row in range(n):
        m = _SELFTEST_COUNTS[row - _SELFTEST_BASE] if row >= _SELFTEST_BASE else 0
        cols = np.sort(rng.choice(_SELFTEST_BASE, size=m, replace=False))
        vals = rng.standard_normal(m) * 10.0 ** rng.uniform(-3, 2, m)
        vals[rng.random(m) < 0.1] = -0.0
        indices.extend(cols.tolist() + [row])
        values.extend(vals.tolist() + [rng.uniform(0.5, 4.0)])
        indptr.append(len(indices))
    matrix = CSRMatrix(np.array(values), np.array(indices, dtype=np.int32),
                       np.array(indptr, dtype=np.int32), (n, n))
    b = rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-3, 2, (n, 3))
    b[rng.random((n, 3)) < 0.05] = -0.0
    return TriangularFactor(matrix, lower=True), b


def _selftest(fns: dict, reference) -> bool:
    """True when every dtype's native solves match ``reference`` bit for bit."""
    factor64, b64 = _selftest_factor()
    for dtype, fn in fns.items():
        factor = factor64.astype(dtype.name.replace("float", "fp"))
        sweep = Sweep(fn, factor, dtype, _level_layout(factor))
        for b in (b64[:, 0].astype(dtype), b64.astype(dtype)):
            if sweep(b).tobytes() != reference(factor, b).tobytes():
                return False
    return True
