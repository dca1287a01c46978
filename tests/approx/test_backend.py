"""GEMM execution paths: planned vs. unplanned, and the exact-GEMM reference.

A path may only change *how* a result is computed, never the result: the
weight-stationary plan path and the plan-less reference scans must agree
bitwise, and the tiered exact GEMM must handle degenerate operands.
"""

import numpy as np

from repro.approx import get_multiplier
from repro.approx.gemm import approx_matmul, exact_int_matmul
from repro.approx.plan import build_plan


class TestExactBitwiseContract:
    def test_approx_matmul_identical_across_backends(self, rng):
        mult = get_multiplier("truncated4")
        a = rng.integers(-7, 8, size=(6, 10)).astype(np.int64)
        b = rng.integers(-7, 8, size=(10, 4)).astype(np.int64)
        reference = approx_matmul(a, b, mult)
        # a fresh plan and a reused plan both reproduce the unplanned scan
        plan = build_plan(b, mult)
        np.testing.assert_array_equal(approx_matmul(a, b, mult, plan=plan), reference)
        np.testing.assert_array_equal(approx_matmul(a, b, mult, plan=plan), reference)


class TestTieredReference:
    def test_empty_operands_are_fine(self):
        out = exact_int_matmul(
            np.zeros((0, 3), dtype=np.int64), np.zeros((3, 2), dtype=np.int64)
        )
        assert out.shape == (0, 2)
