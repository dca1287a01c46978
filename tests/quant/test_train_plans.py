"""Training-path plan caching: N-step bitwise equivalence and revalidation.

The training loop keeps each layer's GEMM plan across optimizer steps:
code-level revalidation reuses it when the 4-bit codes did not move and
in-place repair patches it for sparse code drift. That is an
*optimization only*: training with the plan cache, with every step
rebuilding its plans from an empty cache, and with caching disabled
entirely must produce bitwise-identical weights and logits at every step.

The truncated3 scenarios are repeated for truncated5, whose plans gather
3 bit-plane columns, and evoapprox228, whose full-rank LUT keeps one
value column per active magnitude.
"""

from contextlib import nullcontext
from functools import partial

import numpy as np
import pytest

from repro.approx import get_multiplier, plan_cache_disabled
from repro.autograd import Tensor
from repro.ge import PiecewiseLinearErrorModel
from repro.obs import profiling as prof
from repro.quant import QuantConv2d, QuantLinear
from repro.train import SGD

MULT = get_multiplier("truncated3")
# Non-constant slope so gradient estimation runs its exact GEMM too.
GE_MODEL = PiecewiseLinearErrorModel(0.05, 0.0, -4.0, 4.0)


def _build_mlp(error_model=GE_MODEL, mult=MULT):
    rng = np.random.default_rng(7)
    layers = []
    for din, dout in ((12, 24), (24, 5)):
        layer = QuantLinear(din, dout, rng=rng)
        layer.act_step, layer.weight_step = 1 / 16, 1 / 8
        layer.weight.data = np.clip(layer.weight.data, -0.8, 0.8)
        layer.set_multiplier(mult, error_model)
        layers.append(layer)
    return layers


def _build_conv(mult=MULT):
    rng = np.random.default_rng(8)
    layers = [
        QuantConv2d(3, 6, 3, padding=1, rng=rng),
        QuantConv2d(6, 6, 3, stride=2, padding=1, rng=rng),
    ]
    for layer in layers:
        layer.act_step, layer.weight_step = 1 / 16, 1 / 8
        layer.weight.data = np.clip(layer.weight.data, -0.8, 0.8)
        layer.set_multiplier(mult)
    return layers


def _train(build, xs, gs, lr=0.05, mutate=None):
    """Train fresh layers on fixed batches; returns per-step weight/logit history."""
    layers = build()
    opt = SGD([p for layer in layers for p in layer.parameters()], lr=lr)
    history = []
    for step, (xb, gb) in enumerate(zip(xs, gs)):
        if mutate is not None:
            mutate(step, layers)
        opt.zero_grad()
        h = Tensor(xb)
        for layer in layers:
            h = layer(h)
        h.backward(gb)
        opt.step()
        history.append(
            ([layer.weight.data.copy() for layer in layers], h.data.copy())
        )
    return history


def _assert_histories_identical(reference, other, label):
    assert len(reference) == len(other)
    for step, ((ws_ref, y_ref), (ws, y)) in enumerate(zip(reference, other)):
        for w_ref, w in zip(ws_ref, ws):
            np.testing.assert_array_equal(
                w_ref, w, err_msg=f"{label}: weights diverged at step {step}"
            )
        np.testing.assert_array_equal(
            y_ref, y, err_msg=f"{label}: logits diverged at step {step}"
        )


def _batches(rng, steps, x_shape, g_shape, g_scale=1e-2):
    xs = [rng.normal(size=x_shape).astype(np.float32) for _ in range(steps)]
    gs = [(rng.normal(size=g_shape) * g_scale).astype(np.float32) for _ in range(steps)]
    return xs, gs


def _rebuild_every_step(step, layers):
    """Start every step from an empty plan cache: each step builds afresh."""
    for layer in layers:
        layer._plan_cache.clear()


# mode -> (context, per-step mutation); "cached" last, so a profiled
# loop over the modes ends holding the cached run's report.
MODES = {
    "uncached": (plan_cache_disabled, None),
    "rebuild": (nullcontext, _rebuild_every_step),
    "cached": (nullcontext, None),
}


def _check_modes(build, xs, gs, lr=0.05):
    """Train in every mode, assert all three histories bitwise identical
    and return the profile of the cached run."""
    runs = {}
    for mode, (ctx, mutate) in MODES.items():
        with ctx(), prof.profiled() as report:
            runs[mode] = _train(build, xs, gs, lr=lr, mutate=mutate)
    _assert_histories_identical(runs["uncached"], runs["rebuild"], "rebuild")
    _assert_histories_identical(runs["uncached"], runs["cached"], "cached")
    return report


class TestTrainingBitwiseEquivalence:
    def test_linear_training_identical_across_cache_modes(self, rng):
        xs, gs = _batches(rng, 5, (6, 12), (6, 5))
        _check_modes(_build_mlp, xs, gs)

    def test_conv_training_identical_across_cache_modes(self, rng):
        xs, gs = _batches(rng, 4, (3, 3, 8, 8), (3, 6, 4, 4))
        _check_modes(_build_conv, xs, gs)

    def test_refresh_weight_step_mid_run_stays_identical(self, rng):
        xs, gs = _batches(rng, 4, (6, 12), (6, 5))

        def mutate(step, layers):
            if step == 2:
                for layer in layers:
                    layer.refresh_weight_step()

        with plan_cache_disabled():
            reference = _train(_build_mlp, xs, gs, mutate=mutate)
        cached = _train(_build_mlp, xs, gs, mutate=mutate)
        _assert_histories_identical(reference, cached, "refresh_weight_step")

    def test_load_state_dict_mid_run_stays_identical(self, rng):
        xs, gs = _batches(rng, 4, (6, 12), (6, 5))
        donor_states = [layer.state_dict() for layer in _build_mlp()]

        def mutate(step, layers):
            if step == 2:
                for layer, state in zip(layers, donor_states):
                    layer.load_state_dict(state)

        def build():
            rng2 = np.random.default_rng(99)
            layers = []
            for din, dout in ((12, 24), (24, 5)):
                layer = QuantLinear(din, dout, rng=rng2)
                layer.act_step, layer.weight_step = 1 / 16, 1 / 8
                layer.set_multiplier(MULT, GE_MODEL)
                layers.append(layer)
            return layers

        with plan_cache_disabled():
            reference = _train(build, xs, gs, mutate=mutate)
        cached = _train(build, xs, gs, mutate=mutate)
        _assert_histories_identical(reference, cached, "load_state_dict")

    def test_large_lr_code_churn_stays_identical(self, rng):
        # lr large enough that many 4-bit codes flip every step, forcing
        # the repair / full-rebuild paths rather than pure revalidation.
        xs, gs = _batches(rng, 4, (6, 12), (6, 5), g_scale=1.0)
        with plan_cache_disabled():
            reference = _train(_build_mlp, xs, gs, lr=0.5)
        cached = _train(_build_mlp, xs, gs, lr=0.5)
        _assert_histories_identical(reference, cached, "large-lr")


class TestRevalidation:
    def test_unchanged_codes_revalidate_without_rebuilding(self, rng):
        # A vanishingly small learning rate bumps every Parameter version
        # without moving any weight across a 4-bit rounding boundary: the
        # codes are unchanged, so after the first build the plan must be
        # revalidated, never rebuilt.
        xs, gs = _batches(rng, 4, (6, 12), (6, 5))
        with prof.profiled() as report:
            _train(_build_mlp, xs, gs, lr=1e-12)
        assert report.counter("approx.plan_built").calls == 2  # one per layer
        assert report.counter("approx.plan_cache_revalidate").calls == 6
        assert report.counter("approx.plan_repaired") is None

    def test_rebuild_mode_misses_every_step(self, rng):
        # The rebuild baseline must really pay a full build per layer per
        # step, or the bitwise checks against it prove nothing.
        xs, gs = _batches(rng, 3, (6, 12), (6, 5))
        with prof.profiled() as report:
            _train(_build_mlp, xs, gs, lr=1e-12, mutate=_rebuild_every_step)
        assert report.counter("approx.plan_cache_revalidate") is None
        assert report.counter("approx.plan_built").calls == 6

    def test_sparse_code_drift_repairs_in_place(self, rng):
        # Flip exactly one weight to a magnitude the plan already knows:
        # the plan must be repaired in place, not rebuilt.
        layers = _build_mlp(error_model=None)
        layer = layers[0]
        x = rng.normal(size=(6, 12)).astype(np.float32)
        with prof.profiled() as report:
            layer(Tensor(x))
            new_w = layer.weight.data.copy()
            # sign-flip the largest weight: its 4-bit code is certainly
            # nonzero, and the flipped magnitude is one the plan knows
            idx = np.unravel_index(np.argmax(np.abs(new_w)), new_w.shape)
            new_w[idx] = -new_w[idx]
            layer.weight.data = new_w  # rebind bumps the version
            repaired_out = layer(Tensor(x)).data
        assert report.counter("approx.plan_built").calls == 1
        assert report.counter("approx.plan_repaired").calls == 1
        layer._plan_cache.clear()
        with plan_cache_disabled():
            np.testing.assert_array_equal(repaired_out, layer(Tensor(x)).data)



@pytest.mark.parametrize(
    ("name", "rank"), [("truncated5", 3), ("evoapprox228", None)], ids=["bitplanes", "values"]
)
class TestFactorizedTrainingEquivalence:
    """Cached and uncached training stay bitwise identical under both plan
    factorizations, through revalidation, repair and rebuild."""

    def _check_rank(self, layers, rank):
        x = np.zeros((1, layers[0].weight.data.shape[1]), dtype=np.float32)
        layers[0](Tensor(x))
        ((_, _, state),) = layers[0]._plan_cache._entries.values()
        assert state.plan.rank == (state.plan.num_values if rank is None else rank)

    def test_linear(self, rng, name, rank):
        mult = get_multiplier(name)
        self._check_rank(_build_mlp(mult=mult), rank)
        xs, gs = _batches(rng, 5, (6, 12), (6, 5))
        _check_modes(partial(_build_mlp, mult=mult), xs, gs)

    def test_conv(self, rng, name, rank):
        xs, gs = _batches(rng, 4, (3, 3, 8, 8), (3, 6, 4, 4))
        _check_modes(partial(_build_conv, mult=get_multiplier(name)), xs, gs)

    def test_large_lr_code_churn_repairs(self, rng, name, rank):
        xs, gs = _batches(rng, 6, (6, 12), (6, 5), g_scale=1.0)
        report = _check_modes(
            partial(_build_mlp, mult=get_multiplier(name)), xs, gs, lr=0.5
        )
        # the cached run absorbed some of the churn by in-place repair
        assert report.counter("approx.plan_repaired").calls >= 1
