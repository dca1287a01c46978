"""Weight-stationary kernel plans for the approximate GEMM engine.

The paper's whole evaluation protocol (per-multiplier accuracy tables,
truncation sweeps, Monte-Carlo ε(y) profiling) runs the approximate GEMM
with **frozen weights**: the weight operand ``B`` of ``ỹ = g̃(A) · B`` is
identical across every batch of an evaluation, sweep cell or simulation.
A :class:`GemmPlan` hoists every weight-dependent quantity out of the
per-batch path:

- the **active weight values** (the ``v`` with ``±v`` present in ``B``),
  found in one bucketization pass instead of ``2·whi`` boolean scans;
- an exact **integer factorization** of the LUT over those values
  (:func:`lut_factors`): ``g̃(x, v) = Σ_j G[x, j]·C[v, j]`` with ``r``
  basis columns ``G`` taken from the LUT itself and small-integer
  coefficients ``C``. Truncated multipliers are additive over weight bits,
  ``g̃(x, v) = Σ_j bit_j(v)·g̃(x, 2^j)``, so their plans gather 3
  bit-plane columns instead of 7 value columns; a full-rank LUT
  (EvoApprox) keeps ``r = V`` value columns with one-hot ``C``;
- the **coefficient matrix** ``H`` with
  ``H[k·r + j, n] = sign(B[k, n])·C[|B[k, n]|, j]`` (the (K, r)-interleaved
  layout lets the per-batch gather be a single ``np.take``);
- the **dtype/precision decision** (float32 BLAS while the
  factorization's worst-case partial sum stays below 2^23, float64
  otherwise) and the operand-magnitude check on ``B``.

``plan.execute(a)`` then gathers ``r`` basis products per activation code
directly into a pooled workspace buffer (no list-append /
``np.concatenate``) and runs one BLAS call. Every product and partial sum
is an exactly-represented integer, so the result is **bitwise identical**
to the uncached :func:`repro.approx.gemm.approx_matmul` path — reordering
exact integer sums cannot change them.

:class:`PlanCache` is the per-layer memo keyed by a weight-version
counter (see :class:`repro.nn.parameter.Parameter`); a training step
bumps the version, so a stale plan is impossible by construction.
Cache hits/misses/bytes are counted on the profiler registry
(``approx.plan_cache_*``) and surfaced by ``repro report``.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

import numpy as np

from repro.approx.multiplier import EXACT_FLOAT32_BOUND, Multiplier
from repro.errors import MultiplierError, ShapeError
from repro.obs import metrics as met
from repro.obs import profiling as prof

_caching_enabled = True


def enable_plan_cache() -> None:
    """Re-enable plan caching (the default state)."""
    global _caching_enabled
    _caching_enabled = True


def disable_plan_cache() -> None:
    """Disable plan caching: every lookup rebuilds, nothing is stored."""
    global _caching_enabled
    _caching_enabled = False


def plan_caching_enabled() -> bool:
    """Whether :class:`PlanCache` lookups may reuse stored plans."""
    return _caching_enabled


class plan_cache_disabled:
    """Context manager running a block with plan caching off.

    The uncached path is the reference implementation; benchmarks and the
    bitwise-equivalence tests use this to compare against it.
    """

    def __enter__(self) -> None:
        self._previous = _caching_enabled
        disable_plan_cache()

    def __exit__(self, *exc) -> None:
        if self._previous:
            enable_plan_cache()


def check_magnitude(codes: np.ndarray, bound: int, name: str, operand: str) -> None:
    """Reject operand codes outside the symmetric ``[-bound, bound]`` range."""
    if codes.size:
        mag = np.abs(codes).max()
        if mag > bound:
            raise MultiplierError(
                f"{name}: magnitude of operand {operand} exceeds the symmetric "
                f"range (max {int(mag)} > {bound}); quantize into the symmetric "
                "range first"
            )


class WorkspacePool:
    """Reusable gather buffers shared across plans and threads.

    ``take`` hands out a 1-D buffer of at least the requested size
    (power-of-two rounded so consecutive batch sizes reuse one
    allocation); ``give`` returns it. Concurrent callers (e.g. threaded
    sweep workers) each take a distinct buffer, so plan execution never
    shares scratch memory. The pool keeps at most ``max_buffers`` per
    dtype.
    """

    def __init__(self, max_buffers: int = 8):
        self._lock = threading.Lock()
        self._free: dict[str, list[np.ndarray]] = {}
        self._allocated_bytes = 0
        self.max_buffers = max_buffers

    def take(self, size: int, dtype: np.dtype) -> np.ndarray:
        key = np.dtype(dtype).str
        with self._lock:
            free = self._free.get(key, [])
            best = None
            for index, buf in enumerate(free):
                if buf.size >= size and (best is None or buf.size < free[best].size):
                    best = index
            if best is not None:
                return free.pop(best)
        rounded = 1 << max(int(size) - 1, 0).bit_length()
        buf = np.empty(rounded, dtype=dtype)
        with self._lock:
            self._allocated_bytes += buf.nbytes
        prof.count("approx.plan_workspace_alloc", n=1, nbytes=buf.nbytes)
        return buf

    def give(self, buf: np.ndarray) -> None:
        key = buf.dtype.str
        with self._lock:
            free = self._free.setdefault(key, [])
            if len(free) < self.max_buffers:
                free.append(buf)
            else:
                self._allocated_bytes -= buf.nbytes

    def clear(self) -> None:
        with self._lock:
            self._free.clear()
            self._allocated_bytes = 0

    def stats(self) -> dict:
        with self._lock:
            pooled = sum(len(bufs) for bufs in self._free.values())
            return {"pooled_buffers": pooled, "allocated_bytes": self._allocated_bytes}


# Process-wide pool: evaluation loops, sweeps and Monte-Carlo draws all
# gather into the same recycled buffers.
_workspace = WorkspacePool()


def workspace_pool() -> WorkspacePool:
    """The process-wide gather-buffer pool."""
    return _workspace


class LayerKernelState:
    """Cached weight-derived kernel state for one quantized-layer tag.

    Holds the quantized weight codes, the clipped-STE mask and the
    forward plan (``None`` on the exact path, a list for grouped
    convolutions).
    """

    __slots__ = ("wq", "w_mask", "plan")

    def __init__(self, wq: np.ndarray, w_mask: np.ndarray, plan: Any = None):
        self.wq = wq
        self.w_mask = w_mask
        self.plan = plan


class LutFactors:
    """Exact integer factorization of a multiplier's signed LUT.

    ``g`` (shape ``(2·xhi+1, r)``) holds the signed LUT columns of the
    ``basis`` magnitudes and ``coeffs`` (shape ``(whi+1, r)``) small
    integers such that ``g @ coeffs[v] == signed_lut[:, whi + v]`` for
    every magnitude ``v`` with ``has_row[v]`` — the active magnitudes the
    factorization was built for, plus any other magnitude that happens to
    be an integer combination of the basis (so plan repair can absorb it).
    ``has_row[0]`` is always set: magnitude 0 is the zero row.

    ``bound`` is the worst-case magnitude of one weight's contribution,
    ``max_x max_v Σ_j |g[x, j]|·|coeffs[v, j]|`` over the covered rows: a
    GEMM with reduce dim K never holds a partial sum above ``K·bound``.
    Instances are shared, read-only, by every plan with the same
    (multiplier, active-magnitude set); see :func:`lut_factors`.
    """

    __slots__ = ("basis", "g", "coeffs", "has_row", "bound")

    def __init__(
        self,
        basis: np.ndarray,
        g: np.ndarray,
        coeffs: np.ndarray,
        has_row: np.ndarray,
        bound: float,
    ):
        self.basis = basis
        self.g = g
        self.coeffs = coeffs
        self.has_row = has_row
        self.bound = bound

    @property
    def rank(self) -> int:
        """Number of basis columns a plan gathers per activation code."""
        return len(self.basis)


def _factorize(multiplier: Multiplier, values: tuple[int, ...]) -> LutFactors:
    whi = 2 ** (multiplier.w_bits - 1) - 1
    cols = multiplier.signed_lut()[:, whi:].astype(np.int64)  # cols[:, v] = g̃(x, v)
    basis: list[int] = []
    coeffs = np.zeros((whi + 1, len(values)), dtype=np.int64)
    has_row = np.zeros(whi + 1, dtype=bool)
    has_row[0] = True

    def combination(v: int) -> np.ndarray | None:
        """Integer coefficients expressing column ``v`` in the basis."""
        if not basis:
            return None if cols[:, v].any() else np.zeros(0, dtype=np.int64)
        g = cols[:, basis]
        c = np.linalg.lstsq(g.astype(np.float64), cols[:, v].astype(np.float64), rcond=None)
        c = np.rint(c[0]).astype(np.int64)
        return c if np.array_equal(g @ c, cols[:, v]) else None

    # Ascending order visits 1, 2, 4 before the sums of them, so an
    # additive (truncated) LUT settles on its bit-planes.
    for v in values:
        c = combination(v)
        if c is None:
            basis.append(v)
            coeffs[v, len(basis) - 1] = 1
        else:
            coeffs[v, : len(c)] = c
        has_row[v] = True
    for v in range(1, whi + 1):
        if not has_row[v]:
            c = combination(v)
            if c is not None:
                coeffs[v, : len(c)] = c
                has_row[v] = True

    r = len(basis)
    coeffs = coeffs[:, :r]
    g = cols[:, basis]
    rows = np.flatnonzero(has_row)
    if not np.array_equal(g @ coeffs[rows].T, cols[:, rows]):
        raise MultiplierError(f"{multiplier.name}: inexact LUT factorization")
    bound = float((np.abs(g) @ np.abs(coeffs[rows]).T).max()) if r else 0.0
    return LutFactors(np.asarray(basis, dtype=np.int64), g, coeffs, has_row, bound)


def lut_factors(multiplier: Multiplier, values) -> LutFactors:
    """The exact integer factorization of ``multiplier``'s LUT over the
    active weight magnitudes ``values`` (memoized on the multiplier).

    Basis columns are chosen greedily from the LUT's own columns in
    ascending magnitude order: a magnitude whose column is an integer
    combination of the basis so far gets those coefficients, any other
    joins the basis. Exactness is checked on every covered row.
    """
    key = tuple(sorted(int(v) for v in values if v > 0))
    memo = getattr(multiplier, "_lut_factors", None)
    if memo is None:
        memo = multiplier._lut_factors = {}
    factors = memo.get(key)
    if factors is None:
        # Racing builders compute equal factors; setdefault keeps one.
        factors = memo.setdefault(key, _factorize(multiplier, key))
    return factors


def plan_rank(multiplier: Multiplier) -> int:
    """Columns a plan gathers for ``multiplier`` when all weight
    magnitudes are active (3 for truncated-t, 7 for EvoApprox)."""
    whi = 2 ** (multiplier.w_bits - 1) - 1
    return lut_factors(multiplier, range(1, whi + 1)).rank


class GemmPlan:
    """Precomputed weight-stationary state for one ``A @ B`` operand ``B``.

    Built once per (weights, multiplier) via :func:`build_plan`; executed
    per batch via :meth:`execute`. Instances are safe to share across
    threads for execution (scratch space comes from the pool); the single
    sanctioned mutation is :func:`repair_plan`, which the training loop
    applies between batches to absorb sparse weight-code drift.
    """

    __slots__ = (
        "multiplier_name", "k", "n", "values", "factors", "lut_rows", "big_h",
        "dtype", "use_f32", "xhi", "nbytes",
    )

    def __init__(
        self,
        multiplier_name: str,
        k: int,
        n: int,
        values: np.ndarray,
        factors: LutFactors,
        big_h: np.ndarray,
        dtype: np.dtype,
        use_f32: bool,
        xhi: int,
    ):
        self.multiplier_name = multiplier_name
        self.k = k
        self.n = n
        self.values = values
        self.factors = factors
        self.lut_rows = np.ascontiguousarray(factors.g, dtype=dtype)
        self.big_h = big_h
        self.dtype = dtype
        self.use_f32 = use_f32
        self.xhi = xhi
        self.nbytes = int(big_h.nbytes + self.lut_rows.nbytes + values.nbytes)

    @property
    def num_values(self) -> int:
        """Active weight magnitudes at build time."""
        return len(self.values)

    @property
    def rank(self) -> int:
        """LUT columns gathered per activation code."""
        return self.factors.rank

    def execute(self, a: np.ndarray) -> np.ndarray:
        """The approximate GEMM ``a @ B`` for activation codes ``a``.

        ``a`` must hold integer codes within the multiplier's symmetric
        x-range (the caller checks, exactly like the uncached path).
        """
        m, k = a.shape
        if k != self.k:
            raise ShapeError(
                f"plan for reduce dim {self.k} applied to operand with {k} columns"
            )
        r = self.rank
        if r == 0:
            return np.zeros((m, self.n), dtype=np.int64)
        itemsize = self.dtype.itemsize
        buf = _workspace.take(m * k * r, self.dtype)
        idx_buf = _workspace.take(m * k, np.dtype(np.int32))
        try:
            gathered = buf[: m * k * r].reshape(m * k, r)
            with prof.timer("approx.lut_gather", nbytes=a.nbytes):
                # Shift codes into LUT row indices in a pooled int32 buffer:
                # xhi < 2^15, so the shifted index always fits, and skipping
                # the intp conversion avoids a fresh m*k allocation per batch.
                idx = idx_buf[: m * k].reshape(m, k)
                np.add(a, self.xhi, out=idx, casting="unsafe")
                # The caller has range-checked the codes, so every index is
                # valid; mode="clip" spares the bounds-checked path, which
                # gathers into a temporary and copies it into ``out``.
                np.take(
                    self.lut_rows, idx.reshape(-1), axis=0, out=gathered, mode="clip"
                )
            prof.count("approx.lut_gathered_values", n=r, nbytes=m * k * r * itemsize)
            with prof.timer(
                "approx.matmul_blas", nbytes=(m * k * r + k * r * self.n) * itemsize
            ):
                y = gathered.reshape(m, k * r) @ self.big_h
        finally:
            _workspace.give(buf)
            _workspace.give(idx_buf)
        return np.rint(y).astype(np.int64)


def build_plan(b: np.ndarray, multiplier: Multiplier) -> GemmPlan:
    """Build the weight-stationary plan for operand ``b`` of ``a @ b``.

    One bucketization pass over ``b`` finds the active weight values, and
    one scatter writes each nonzero weight's signed coefficient row
    ``sign(b)·C[|b|]`` into ``H``, replacing the ``2·whi`` boolean scans
    of the uncached path.
    """
    b = np.asarray(b)
    if b.ndim != 2:
        raise ShapeError(f"plan operand must be 2-D, got shape {b.shape}")
    if b.dtype.kind not in "iu":
        raise MultiplierError("build_plan operates on integer weight codes")
    xhi = 2 ** (multiplier.x_bits - 1) - 1
    whi = 2 ** (multiplier.w_bits - 1) - 1
    check_magnitude(b, whi, multiplier.name, "b")

    k, n = b.shape
    with prof.timer("approx.plan_build", nbytes=b.nbytes):
        mag = np.abs(b)
        values = np.unique(mag)
        values = values[values > 0]
        factors = lut_factors(multiplier, values)
        use_f32 = factors.bound * k < EXACT_FLOAT32_BOUND
        dtype = np.dtype(np.float32) if use_f32 else np.dtype(np.float64)
        r = factors.rank
        big_h = np.zeros((k * r, n), dtype=dtype)
        if r:
            # v = 0 contributes g̃(a, 0) = 0 under sign-magnitude evaluation.
            kk, nn = np.nonzero(mag)
            big_h.reshape(k, r, n)[kk, :, nn] = (
                np.sign(b[kk, nn])[:, None] * factors.coeffs[mag[kk, nn]]
            )
    plan = GemmPlan(
        multiplier.name, k, n, values, factors, big_h, dtype, use_f32, xhi
    )
    prof.count("approx.plan_built", n=1, nbytes=plan.nbytes)
    return plan


def repair_plan(
    plan: GemmPlan,
    old_b: np.ndarray,
    new_b: np.ndarray,
    changed: tuple[np.ndarray, np.ndarray] | None = None,
) -> bool:
    """Patch ``plan`` in place for a sparse weight-code change.

    An optimizer step typically flips a handful of 4-bit codes out of
    hundreds of thousands; rebuilding the whole plan for that is the
    training-loop regression this module fixes. Each flipped position
    ``(k, n)`` rewrites its ``r`` entries of ``big_h`` from the
    factorization's coefficient table — an O(changed·r) scatter —
    provided the table has a row for every new magnitude. That holds for
    any magnitude the plan was built on and, for a bit-plane plan, for
    every magnitude whose bits are among its planes. Returns False (the
    caller rebuilds) when a new magnitude has no row.

    After a successful repair ``big_h`` holds exactly the coefficients
    of ``new_b`` in the plan's basis. A fresh build may pick another
    basis, but both compute the same exact integer sums, so
    :meth:`GemmPlan.execute` stays bitwise identical to it; the precision
    gate covers every row of the table, so no repair can leave the plan's
    float tier. This is the single sanctioned mutation of a plan; callers
    must not run it concurrently with :meth:`GemmPlan.execute` on other
    threads.

    ``changed`` optionally passes the differing positions ``(kk, nn)``
    in ``b`` coordinates when the caller already diffed the operands,
    skipping a redundant comparison pass.
    """
    if old_b.shape != new_b.shape or (plan.k, plan.n) != old_b.shape:
        return False
    kk, nn = np.nonzero(old_b != new_b) if changed is None else changed
    if kk.size == 0:
        return True
    r = plan.rank
    if r == 0:
        return False  # plan built on all-zero weights has no basis at all
    with prof.timer("approx.plan_repair", nbytes=int(kk.size)):
        new_vals = np.asarray(new_b[kk, nn])
        new_mag = np.abs(new_vals)
        if not plan.factors.has_row[new_mag].all():
            return False
        plan.big_h.reshape(plan.k, r, plan.n)[kk, :, nn] = (
            np.sign(new_vals)[:, None] * plan.factors.coeffs[new_mag]
        )
    prof.count("approx.plan_repaired", n=1, nbytes=int(kk.size))
    met.inc("plan_cache.repair")
    return True


class PlanCache:
    """Per-layer memo of weight-stationary GEMM state.

    One entry per ``tag`` (a layer keeps separate tags for e.g. grouped
    convolution paths). An entry is valid only while both its ``key`` —
    the layer's weight-version tuple — and the attached multiplier object
    are unchanged; a weight update bumps the version
    (:class:`repro.nn.parameter.Parameter`), so reusing a stale plan is
    impossible by construction. Cloned or pickled models start with an
    empty cache (plans hold large buffers and rebuild cheaply).
    """

    def __init__(self):
        self._entries: dict[str, tuple[Any, Multiplier | None, Any]] = {}

    def get(
        self,
        tag: str,
        key: Any,
        multiplier: Multiplier | None,
        build: Callable[[], Any],
        revalidate: Callable[[Any], tuple[Any, bool]] | None = None,
    ) -> Any:
        """The cached payload for ``(tag, key, multiplier)``, building on miss.

        ``revalidate`` extends the cache to the training loop: it is
        consulted when the stored key differs from the requested one
        *only in its leading component* (the weight version — tuple keys
        are ``(weight_version, step_version, weight_bits)``). The
        callback receives the stale payload and returns ``(payload,
        reused)``; ``reused=True`` means the expensive parts of the old
        payload were kept (e.g. an optimizer step left the quantized
        codes unchanged, so the plan is still bitwise-valid), counted as
        ``approx.plan_cache_revalidate`` instead of a miss. Either way
        the entry is re-keyed to the current version.
        """
        if not _caching_enabled:
            prof.count("approx.plan_cache_bypass")
            met.inc("plan_cache.bypass")
            return build()
        entry = self._entries.get(tag)
        if entry is not None and entry[0] == key and entry[1] is multiplier:
            prof.count("approx.plan_cache_hit")
            met.inc("plan_cache.hit")
            return entry[2]
        if (
            revalidate is not None
            and entry is not None
            and entry[1] is multiplier
            and isinstance(key, tuple)
            and isinstance(entry[0], tuple)
            and len(key) == len(entry[0])
            and key[1:] == entry[0][1:]
        ):
            payload, reused = revalidate(entry[2])
            self._entries[tag] = (key, multiplier, payload)
            if reused:
                prof.count("approx.plan_cache_revalidate")
                met.inc("plan_cache.revalidate")
            else:
                prof.count("approx.plan_cache_miss")
                met.inc("plan_cache.miss")
            return payload
        prof.count("approx.plan_cache_miss")
        met.inc("plan_cache.miss")
        payload = build()
        self._entries[tag] = (key, multiplier, payload)
        return payload

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    # Plans must not travel with clones or into worker processes: the
    # copy rebuilds from its own weights on first use.
    def __deepcopy__(self, memo) -> "PlanCache":
        return PlanCache()

    def __getstate__(self) -> dict:
        return {}

    def __setstate__(self, state: dict) -> None:
        self._entries = {}


def cache_stats() -> dict:
    """Process-wide plan-cache counter snapshot (hits/misses/bytes).

    Reads the profiler registry, so it is only populated while profiling
    is enabled (``repro ... --profile`` or :class:`repro.obs.profiled`).
    """
    report = prof.profile_report()
    out = {}
    for name in (
        "approx.plan_cache_hit",
        "approx.plan_cache_miss",
        "approx.plan_cache_revalidate",
        "approx.plan_cache_bypass",
        "approx.plan_built",
        "approx.plan_repaired",
        "approx.plan_workspace_alloc",
    ):
        stat = report.counter(name)
        short = name.rsplit(".", 1)[1]
        out[short] = int(stat.calls) if stat is not None else 0
        if stat is not None and stat.bytes:
            out[f"{short}_bytes"] = int(stat.bytes)
    return out
