"""Approximate integer GEMM (Eq. 4 of the paper).

Computes ``ỹ[i,j] = Σ_k g̃(A[i,k], B[k,j])`` where ``g̃`` is an approximate
multiplication realised as a LUT. Signed operands are evaluated in
sign-magnitude form.

The engine exploits the small weight alphabet: a 4-bit symmetric weight only
takes 15 values, so the GEMM decomposes as

    ỹ = Σ_{v=1..whi} G_v (1[B = v] - 1[B = -v]),   G_v[i,k] = g̃(A[i,k], v)

— one LUT gather plus one BLAS matmul per positive weight value (the v = -v
term uses the sign-magnitude odd symmetry ``g̃(a, -v) = -g̃(a, v)``). All
products and partial sums are integers far below 2^53, so float64 BLAS is
exact.

When the weight operand is frozen (every evaluation loop, sweep cell and
Monte-Carlo run), callers pass a precomputed weight-stationary
:class:`~repro.approx.plan.GemmPlan` — the per-batch work collapses to one
pooled-workspace gather plus one BLAS call, bitwise identical to the
uncached path (``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import numpy as np

from repro.approx.multiplier import (
    EXACT_FLOAT32_BOUND,
    EXACT_FLOAT64_BOUND,
    EXACT_INT64_BOUND,
    Multiplier,
)
from repro.approx.plan import GemmPlan, check_magnitude
from repro.errors import MultiplierError, ShapeError
from repro.obs import profiling as prof
from repro.obs import trace as tr


def exact_int_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integer GEMM with tiered float32/float64/int64 accumulation.

    Picks the cheapest dtype whose accumulation is provably exact for the
    operands' worst-case partial sum ``max|a|·max|b|·K`` (the bounds in
    :mod:`repro.approx.multiplier`); raises
    :class:`~repro.errors.MultiplierError` when even int64 could wrap
    (``≥ 2^63``) rather than returning silently-overflowed garbage.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    with prof.timer("approx.exact_matmul", nbytes=a.nbytes + b.nbytes):
        if not (a.size and b.size):
            return a.astype(np.int64) @ b.astype(np.int64)
        max_sum = float(np.abs(a).max()) * float(np.abs(b).max()) * a.shape[1]
        if max_sum < EXACT_FLOAT32_BOUND:
            dtype = np.float32
        elif max_sum < EXACT_FLOAT64_BOUND:
            dtype = np.float64
        elif max_sum >= EXACT_INT64_BOUND:
            raise MultiplierError(
                "exact integer GEMM would overflow the int64 accumulator: "
                f"worst-case partial sum {max_sum:.3g} >= 2^63 for shapes "
                f"{a.shape} x {b.shape}; rescale or requantize the operands"
            )
        else:
            dtype = np.int64
        y = a.astype(dtype) @ b.astype(dtype)
        return y if dtype is np.int64 else np.rint(y).astype(np.int64)


def approx_matmul(
    a: np.ndarray,
    b: np.ndarray,
    multiplier: Multiplier,
    plan: GemmPlan | None = None,
) -> np.ndarray:
    """Approximate integer GEMM ``a @ b`` using ``multiplier`` elementwise.

    Parameters
    ----------
    a:
        Signed integer codes of shape (M, K); magnitudes must fit the
        multiplier's ``x_bits`` unsigned domain.
    b:
        Signed integer codes of shape (K, N); magnitudes must fit the
        multiplier's ``w_bits`` unsigned domain.
    plan:
        A weight-stationary :class:`~repro.approx.plan.GemmPlan` built
        from this exact ``b`` and ``multiplier``
        (:func:`repro.approx.plan.build_plan`). Skips every
        weight-dependent scan and gathers into a pooled workspace; the
        result is bitwise identical to the plan-less call, which runs the
        uncached reference scans.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"incompatible GEMM shapes {a.shape} x {b.shape}")
    if a.dtype.kind not in "iu" or b.dtype.kind not in "iu":
        raise MultiplierError("approx_matmul operates on integer codes")
    if multiplier.is_exact:
        return exact_int_matmul(a, b)

    xhi = 2 ** (multiplier.x_bits - 1) - 1
    whi = 2 ** (multiplier.w_bits - 1) - 1
    check_magnitude(a, xhi, multiplier.name, "a")
    if plan is None:
        check_magnitude(b, whi, multiplier.name, "b")
    elif plan.multiplier_name != multiplier.name:
        raise MultiplierError(
            f"plan built for multiplier {plan.multiplier_name!r} applied "
            f"with {multiplier.name!r}"
        )
    elif plan.k != a.shape[1] or plan.n != b.shape[1]:
        raise ShapeError(
            f"plan built for ({plan.k}, {plan.n}) weights applied to GEMM "
            f"{a.shape} x {b.shape}"
        )

    with tr.span(
        "approx.matmul",
        m=int(a.shape[0]),
        k=int(a.shape[1]),
        n=int(b.shape[1]),
        planned=plan is not None,
    ):
        if plan is not None:
            return plan.execute(a)
        return _approx_matmul_block(a, b, multiplier, xhi, whi)


def _approx_matmul_block(
    a: np.ndarray, b: np.ndarray, multiplier: Multiplier, xhi: int, whi: int
) -> np.ndarray:
    """The LUT-decomposition GEMM: one gather and one mask per active value.

    This is the uncached reference path; the plan path must stay bitwise
    identical to it (``tests/approx/test_plan.py``). float32 accumulation
    is used while the worst-case partial sum stays below
    :data:`~repro.approx.multiplier.EXACT_FLOAT32_BOUND`, float64 otherwise.
    """
    max_product = float(np.abs(multiplier.lut).max())
    use_f32 = max_product * a.shape[1] < EXACT_FLOAT32_BOUND
    lut = multiplier.signed_lut_f32() if use_f32 else multiplier.signed_lut_f64()
    dtype = np.float32 if use_f32 else np.float64
    itemsize = np.dtype(dtype).itemsize

    a_idx = (a.astype(np.intp) + xhi).ravel()
    m, k = a.shape
    n = b.shape[1]
    gathered: list[np.ndarray] = []
    masks: list[np.ndarray] = []
    with prof.timer("approx.lut_gather", nbytes=a.nbytes + b.nbytes):
        for v in range(1, whi + 1):
            # v = 0 contributes g̃(a, 0) = 0 under sign-magnitude evaluation.
            pos = b == v
            neg = b == -v
            any_pos, any_neg = pos.any(), neg.any()
            if not (any_pos or any_neg):
                continue
            gathered.append(lut[:, whi + v].take(a_idx).reshape(m, k))
            mask = pos.astype(dtype)
            if any_neg:
                mask -= neg
            masks.append(mask)
    if not gathered:
        return np.zeros((m, n), dtype=np.int64)
    prof.count(
        "approx.lut_gathered_values",
        n=len(gathered),
        nbytes=len(gathered) * m * k * itemsize,
    )
    # One fused BLAS call over all active weight values.
    with prof.timer(
        "approx.matmul_blas", nbytes=len(gathered) * (m * k + k * n) * itemsize
    ):
        big_g = np.concatenate(gathered, axis=1)
        big_h = np.concatenate(masks, axis=0)
        return np.rint(big_g @ big_h).astype(np.int64)

