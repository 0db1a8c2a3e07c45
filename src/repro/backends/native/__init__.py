"""Compiled kernels for the ``fast`` engine.

The C sources next to this file build one shared library:

* ``trsv.c`` — the triangular row sweep per compute dtype (fp16, fp32,
  fp64), bit-identical to the NumPy level sweep;
* ``csr.c`` — CSR products and fused residuals ``y − A·x``, one and many
  right-hand sides, over a row range: fp32/fp64 in scipy's
  ``csr_matvec``/``csr_matvecs`` order, fp16 bit-identical to the staged
  NumPy path;
* ``update.c`` — the fp16 vector updates (weighted axpy with one weight per
  column, residual ``v − az``), bit-identical to ``halfvec``'s staged paths;
* ``common.h`` — the fp16 conversions and the shared row sum (numpy's
  ``add.reduceat`` order; see its header comment).

:class:`Library` builds it with the local ``cc`` at the first triangular
solve or CSR product (never at import, and never for a vector update),
caches the shared object per user, loads it through :mod:`ctypes` and
checks it against NumPy before the first use:

* **cache** — ``$XDG_CACHE_HOME/repro/native`` (default
  ``~/.cache/repro/native``), else a per-user directory under
  :func:`tempfile.gettempdir`.  The file name carries a hash of every C
  source and header, the compiler's ``--version`` output and :data:`FLAGS`,
  so an edited source or an upgraded compiler builds a new library.  A build
  writes a temporary file and ``os.replace``-s it into place, so processes
  racing the first build each load a complete library.
* **fallback** — any of: no compiler, a CPU without F16C, a failed build or
  load, no writable cache directory, or a self-test mismatch leaves the
  library in the ``"fallback"`` state with that reason
  (:meth:`Library.status`); the engine then runs its NumPy/scipy paths,
  whose bits are the same.
* **self-test** — at load, every entry point runs on small fixed inputs
  whose rows have 0 to 139 terms (every branch of numpy's pairwise sum),
  with one and several right-hand sides, values spanning fp16's subnormals
  and signed zeros.  The triangular sweep is compared with the engine's
  NumPy level sweep, fp16 products and updates with the staged NumPy path
  (:mod:`repro.backends.halfvec`), fp32/fp64 products with a sequential
  NumPy reference of scipy's order (scipy itself is not imported).  A
  single differing bit (say, a NumPy release that reorders its reductions)
  selects the fallback instead of serving different bits.

ctypes releases the GIL for the duration of each native call, so
partitioned callers run row ranges of one product on several threads.
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

__all__ = ["FLAGS", "HEADERS", "SOURCES", "CSRProduct", "Library", "Sweep",
           "default_cache_dirs"]

_HERE = Path(__file__).parent
#: the C sources compiled into the library, and the header they include
SOURCES = tuple(_HERE / name for name in ("trsv.c", "csr.c", "update.c"))
HEADERS = (_HERE / "common.h",)

#: compile flags; no ``-march=native`` / ``-ffast-math``: FMA contraction or
#: reassociation would change the bits
FLAGS = ("-O2", "-mf16c", "-ffp-contract=off", "-shared", "-fPIC")

#: compute dtype -> exported symbol suffix
_SUFFIX = {np.dtype(np.float16): "f16", np.dtype(np.float32): "f32",
           np.dtype(np.float64): "f64"}
_HALF = np.dtype(np.float16)

_I64, _PTR = ctypes.c_int64, ctypes.c_void_p
# int repro_trsm_<suf>(n, order, rowptr, cols, vals, inv, k, b, x)
_TRSM_ARGS = [_I64] + [_PTR] * 5 + [_I64, _PTR, _PTR]
# int repro_csr_<suf>(lo, hi, indptr, cols, vals, ncols, k, block, x, y0, y)
_CSR_ARGS = [_I64, _I64, _PTR, _PTR, _PTR, _I64, _I64, _I64, _PTR, _PTR, _PTR]
# void repro_axpy_f16(lo, hi, k, w, x, y, out)
_AXPY_ARGS = [_I64, _I64, _I64, _PTR, _PTR, _PTR, _PTR]
# void repro_sub_f16(lo, hi, v, az, out)
_SUB_ARGS = [_I64, _I64, _PTR, _PTR, _PTR]


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


class CSRProduct:
    """One CSR matrix's arrays in one compute dtype, pointers resolved once.

    ``product(x)`` is ``A·x`` and ``product(x, y0)`` the fused residual
    ``y0 − A·x``, for ``x`` of shape ``(ncols,)`` or ``(ncols, k)``, in the
    compute dtype.  :meth:`operands` and :meth:`rows` split a call so that
    partitioned callers can run disjoint row ranges of one product
    concurrently.  Lives in the matrix's scratch arena.
    """

    __slots__ = ("dtype", "nrows", "ncols", "_fn", "_arrays", "_static")

    def __init__(self, fn, values, indices, indptr, dtype) -> None:
        indptr = np.ascontiguousarray(indptr, dtype=np.int32)
        indices = np.ascontiguousarray(indices, dtype=np.int32)
        if (indptr.size < 1 or indptr[0] != 0 or indptr[-1] != values.size
                or indices.size != values.size or np.any(np.diff(indptr) < 0)):
            raise ValueError("malformed CSR row pointers")
        if indices.size and indices.min() < 0:
            raise ValueError("negative CSR column index")
        # cast like the NumPy path, then widen fp16 to the kernel's fp32
        # working copies (exact)
        work = np.float32 if dtype == _HALF else dtype
        vals = np.ascontiguousarray(values.astype(dtype, copy=False)
                                    .astype(work, copy=False))
        self.dtype = np.dtype(dtype)
        self.nrows = indptr.size - 1
        #: the length ``x`` must have at least
        self.ncols = int(indices.max()) + 1 if indices.size else 0
        self._fn = fn
        self._arrays = (indptr, indices, vals)    # keep buffers alive
        self._static = tuple(a.ctypes.data for a in self._arrays)

    def operands(self, x: np.ndarray, y0: np.ndarray | None = None) -> tuple:
        """``(x, y0, y)``: contiguous compute-dtype inputs and a fresh output."""
        if x.ndim not in (1, 2) or x.shape[0] < self.ncols:
            raise IndexError(f"CSR product needs x with at least {self.ncols} "
                             f"rows; got shape {x.shape}")
        x = np.ascontiguousarray(x, dtype=self.dtype)
        shape = (self.nrows,) + x.shape[1:]
        if y0 is not None:
            if y0.shape != shape:
                raise ValueError(f"residual needs y of shape {shape}; "
                                 f"got {y0.shape}")
            y0 = np.ascontiguousarray(y0, dtype=self.dtype)
        return x, y0, np.empty(shape, dtype=self.dtype)

    def rows(self, lo: int, hi: int, x, y0, y) -> None:
        """Rows ``[lo, hi)`` of ``A·x`` (``y0`` None) or ``y0 − A·x`` into
        ``y``; the arrays come from :meth:`operands`."""
        k = 1 if x.ndim == 1 else x.shape[1]
        # a 2-D x follows csr_matvecs' order, a 1-D one csr_matvec's
        if self._fn(lo, hi, *self._static, x.shape[0], k, x.ndim - 1,
                    x.ctypes.data, None if y0 is None else y0.ctypes.data,
                    y.ctypes.data):
            raise MemoryError("native CSR product: out of memory")

    def __call__(self, x: np.ndarray, y0: np.ndarray | None = None) -> np.ndarray:
        x, y0, y = self.operands(x, y0)
        self.rows(0, self.nrows, x, y0, y)
        return y


def axpy_f16(fn, w, x: np.ndarray, y: np.ndarray, out: np.ndarray,
             lo: int = 0, hi: int | None = None) -> None:
    """Rows ``[lo, hi)`` of ``out = RND(RND(w_j·x) + y)`` for contiguous fp16
    ``x``/``y``/``out`` of shape ``(n,)`` or ``(n, k)``; ``w`` holds the k
    weights already rounded to fp16."""
    k = 1 if x.ndim == 1 else x.shape[1]
    w32 = np.ascontiguousarray(w, dtype=np.float32)
    if x.shape != y.shape or x.shape != out.shape or w32.size != k:
        raise ValueError(f"axpy needs x, y and out of one shape and one weight "
                         f"per column; got {x.shape}, {y.shape}, {out.shape} "
                         f"and {w32.size} weights")
    fn(lo, x.shape[0] if hi is None else hi, k, w32.ctypes.data,
       x.ctypes.data, y.ctypes.data, out.ctypes.data)


def sub_f16(fn, v: np.ndarray, az: np.ndarray, out: np.ndarray,
            lo: int = 0, hi: int | None = None) -> None:
    """Elements ``[lo, hi)`` of ``out = RND(v − az)`` (contiguous fp16)."""
    if v.shape != az.shape or v.shape != out.shape:
        raise ValueError(f"residual needs v, az and out of one shape; got "
                         f"{v.shape}, {az.shape}, {out.shape}")
    fn(lo, v.size if hi is None else hi, v.ctypes.data, az.ctypes.data,
       out.ctypes.data)


class Library:
    """The compiled kernels of one process, loaded on first use.

    ``reference(factor, b)`` is the NumPy sweep the self-test compares
    against (``b`` already in the compute dtype; 1-D or 2-D).  ``state`` is
    ``"unloaded"`` until the first :meth:`sweep` or :meth:`csr`, then
    ``"ready"`` or ``"fallback"`` (with ``reason``) for the life of the
    object.  :attr:`updates` never loads: the fp16 vector updates use the
    library only once a triangular solve or CSR product has loaded it.
    """

    def __init__(self, reference, cc: str = "cc",
                 cache_dirs: list[Path] | None = None) -> None:
        self.cc = cc
        self.cache_dirs = cache_dirs
        self.state = "unloaded"
        self.reason: str | None = None
        self.path: str | None = None
        self._reference = reference
        self._trsm: dict = {}
        self._csr: dict = {}
        self._updates: tuple | None = None
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
            entry = cache[dtype] = Sweep(self._trsm[dtype], factor, dtype,
                                         cache.layout)
        return entry

    def csr(self, values, indices, indptr, dtype, scratch) -> CSRProduct | None:
        """The matrix's native CSR product for compute ``dtype``, cached in
        its ``scratch`` arena, or ``None`` when the caller must run the
        NumPy/scipy path."""
        if self.state == "unloaded":
            self._load()
        if self.state != "ready":
            return None
        return scratch.memo(("native_csr", dtype), lambda: CSRProduct(
            self._csr[dtype], values, indices, indptr, dtype))

    @property
    def updates(self) -> tuple | None:
        """``(axpy_f16, sub_f16)`` entry points when the library is ready;
        ``None`` otherwise (this never starts a build or load)."""
        return self._updates if self.state == "ready" else None

    # ------------------------------------------------------------------ #
    def _load(self) -> None:
        with self._lock:
            if self.state != "unloaded":
                return
            try:
                lib = self._open()
                try:
                    cpu_ok = lib.repro_native_cpu_ok
                    trsm = {dtype: getattr(lib, f"repro_trsm_{suffix}")
                            for dtype, suffix in _SUFFIX.items()}
                    csr = {dtype: getattr(lib, f"repro_csr_{suffix}")
                           for dtype, suffix in _SUFFIX.items()}
                    updates = (lib.repro_axpy_f16, lib.repro_sub_f16)
                except AttributeError:
                    raise _Unavailable("load_failed") from None
                cpu_ok.argtypes, cpu_ok.restype = [], ctypes.c_int
                for fn in trsm.values():
                    fn.argtypes, fn.restype = _TRSM_ARGS, ctypes.c_int
                for fn in csr.values():
                    fn.argtypes, fn.restype = _CSR_ARGS, ctypes.c_int
                for fn, args in zip(updates, (_AXPY_ARGS, _SUB_ARGS)):
                    fn.argtypes, fn.restype = args, None
                if not cpu_ok():
                    raise _Unavailable("no_f16c")
                if not (_selftest(trsm, self._reference)
                        and _selftest_csr(csr) and _selftest_updates(*updates)):
                    raise _Unavailable("selftest_mismatch")
            except _Unavailable as exc:
                self.reason = exc.args[0]
                self.state = "fallback"
                return
            self._trsm, self._csr, self._updates = trsm, csr, updates
            self.state = "ready"

    def _open(self) -> ctypes.CDLL:
        """Load the cached library, building it first when absent."""
        try:
            version = subprocess.run([self.cc, "--version"], capture_output=True,
                                     check=True, timeout=60).stdout
        except (OSError, subprocess.SubprocessError):
            raise _Unavailable("no_compiler") from None
        digest = hashlib.sha256()
        try:
            for path in SOURCES + HEADERS:
                digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        except OSError:
            raise _Unavailable("build_failed") from None
        for part in (version, " ".join(FLAGS).encode()):
            digest.update(part + b"\0")
        name = f"kernels-{digest.hexdigest()[:20]}.so"
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
                proc = subprocess.run([self.cc, *FLAGS, "-o", tmp,
                                       *map(str, SOURCES)],
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


def _selftest_csr_block():
    """A fixed fp64 CSR block, one row per entry of ``_SELFTEST_COUNTS`` over
    150 columns, with ``x`` of shape (150, 5) and ``y0`` of shape (14, 5)
    (five columns: the kernels' four-lane body and a tail); values span
    fp16's subnormals and include signed zeros."""
    rng = np.random.default_rng(20241018)
    counts = np.array(_SELFTEST_COUNTS)
    indptr = np.zeros(counts.size + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    indices = np.concatenate(
        [np.sort(rng.choice(_SELFTEST_BASE, size=m, replace=False))
         for m in counts]).astype(np.int32)
    nnz = indices.size
    values = rng.standard_normal(nnz) * 10.0 ** rng.uniform(-3, 2, nnz)
    values[rng.random(nnz) < 0.1] = -0.0
    x, y0 = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-7, 2, shape)
             for shape in ((_SELFTEST_BASE, 5), (counts.size, 5)))
    x[rng.random(x.shape) < 0.05] = -0.0
    y0[rng.random(y0.shape) < 0.1] = -0.0
    return values, indices, indptr, x, y0


def _csr_staged_half(values, indices, indptr, x, y0):
    """The staged fp16 NumPy path: half products, reduceat row sums, then
    ``RND(y0 − sum)`` for the residual (``x`` of shape (ncols, k))."""
    from .. import halfvec
    from ..base import row_segment_sums

    prods32 = x.astype(np.float32)[indices] * values.astype(np.float32)[:, None]
    prods = halfvec.round_into(prods32, np.empty(prods32.shape, dtype=_HALF))
    sums = np.zeros((indptr.size - 1, x.shape[1]), dtype=_HALF)
    row_segment_sums(prods, indptr, sums)
    return sums, halfvec.binop_round(np.subtract, y0.astype(np.float32),
                                     sums.astype(np.float32))


def _csr_sequential(values, indices, indptr, x, y0):
    """scipy's ``csr_matvecs`` order in NumPy: each row from +0 (and from
    ``y0`` with negated products for the residual), products added left to
    right by a sequential ``add.accumulate`` over the zero-padded rows, read
    at each row's last term; ``(-a)·x == -(a·x)`` exactly."""
    counts = np.diff(indptr)
    rows, k = counts.size, x.shape[1]
    terms = np.zeros((rows, int(counts.max(initial=0)) + 1, 2 * k), dtype=x.dtype)
    terms[:, 0, k:] = y0
    row = np.repeat(np.arange(rows), counts)
    slot = np.arange(indices.size) - np.repeat(indptr[:-1], counts) + 1
    prod = values[:, None] * x[indices]
    terms[row, slot, :k] = prod
    terms[row, slot, k:] = -prod
    last = np.add.accumulate(terms, axis=1)[np.arange(rows), counts]
    return last[:, :k], last[:, k:]


def _selftest_csr(fns: dict) -> bool:
    """True when every dtype's native products and residuals, one and five
    columns, match the NumPy references bit for bit."""
    values, indices, indptr, x64, y64 = _selftest_csr_block()
    for dtype, fn in fns.items():
        vals, x, y0 = values.astype(dtype), x64.astype(dtype), y64.astype(dtype)
        reference = _csr_staged_half if dtype == _HALF else _csr_sequential
        want = reference(vals, indices, indptr, x, y0)
        product = CSRProduct(fn, vals, indices, indptr, dtype)
        for got, expected in ((product(x), want[0]), (product(x, y0), want[1]),
                              (product(x[:, 0]), want[0][:, 0]),
                              (product(x[:, 0], y0[:, 0]), want[1][:, 0])):
            if got.tobytes() != np.ascontiguousarray(expected).tobytes():
                return False
    return True


def _selftest_updates(axpy, sub) -> bool:
    """True when the fp16 updates match the staged NumPy paths bit for bit
    (37 rows: vector body and scalar tail; one, three and four weights)."""
    from .. import halfvec

    x64 = _selftest_csr_block()[3]
    x, y = (np.ascontiguousarray(x64[rows, :4].astype(_HALF))
            for rows in (slice(0, 37), slice(37, 74)))
    w = np.array([0.97, 1.3, -0.61, 1.0712], dtype=_HALF)
    want = np.stack([halfvec.staged_axpy(w[j], np.ascontiguousarray(x[:, j]),
                                         np.ascontiguousarray(y[:, j]))
                     for j in range(4)], axis=1)
    for k in (1, 3, 4):
        xk, yk = (np.ascontiguousarray(a[:, 0] if k == 1 else a[:, :k])
                  for a in (x, y))
        out = np.empty_like(xk)
        axpy_f16(axpy, w[:k], xk, yk, out)
        if out.tobytes() != np.ascontiguousarray(
                want[:, 0] if k == 1 else want[:, :k]).tobytes():
            return False
    out = np.empty_like(x)
    sub_f16(sub, x, y, out)
    want = halfvec.binop_round(np.subtract, x.astype(np.float32),
                               y.astype(np.float32))
    return out.tobytes() == want.tobytes()
