"""Tests for :mod:`repro.utils`."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.types import Precision
from repro.utils.quantize import quantize
from repro.utils.rng import (
    _count_steps,
    _inversion_table,
    binomial_rows,
    make_rng,
    spawn_rngs,
)


class TestQuantize:
    def test_fp64_is_identity(self, rng):
        values = rng.normal(size=100)
        assert np.array_equal(quantize(values, Precision.FP64), values)

    def test_fp16_matches_numpy_half(self, rng):
        values = rng.normal(size=100)
        expected = values.astype(np.float16).astype(np.float32)
        assert np.array_equal(quantize(values, Precision.FP16), expected)

    def test_fp8_is_idempotent(self, rng):
        values = rng.normal(size=200)
        once = quantize(values, Precision.FP8)
        twice = quantize(once, Precision.FP8)
        assert np.allclose(once, twice)

    def test_fp8_preserves_zero_and_sign(self):
        out = quantize(np.array([0.0, -1.5, 2.25]), Precision.FP8)
        assert out[0] == 0.0
        assert out[1] < 0
        assert out[2] > 0

    def test_fp8_error_larger_than_fp16_error(self, rng):
        values = rng.normal(size=1000)

        def error(precision):
            return np.mean(np.abs(values - quantize(values, precision)))

        assert error(Precision.FP8) > error(Precision.FP16)


class TestRng:
    def test_make_rng_passthrough(self):
        generator = np.random.default_rng(3)
        assert make_rng(generator) is generator

    def test_make_rng_from_seed_is_deterministic(self):
        assert make_rng(7).integers(0, 100, 5).tolist() == make_rng(7).integers(0, 100, 5).tolist()

    def test_spawn_rngs_independent_and_stable(self):
        first = spawn_rngs(11, 3)
        second = spawn_rngs(11, 5)
        # The first three generators are identical regardless of the count.
        for a, b in zip(first, second):
            assert a.integers(0, 1000, 4).tolist() == b.integers(0, 1000, 4).tolist()

    def test_spawn_rngs_rejects_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(1, -1)


#: PCG64's 128-bit LCG multiplier and the increment of every crafted stream.
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_PCG64_INCREMENT = 0x1B47C7397297B7B7
_GRID_TOP = 2**53 - 1


def _generator_emitting(index: int) -> np.random.Generator:
    """A real PCG64 generator whose next ``random()`` is ``index * 2**-53``.

    PCG64 steps its 128-bit LCG state, then outputs the XOR of the state's
    halves rotated right by the state's top six bits.  A stepped state with
    a zero high half outputs its low half unrotated, so stepping the LCG
    back from ``(0, index << 11)`` gives a state whose next double is the
    chosen grid point; the doubles after it follow the ordinary stream.
    This lets numpy's own ``binomial`` be asked what it draws at any uniform.
    """
    stepped = index << 11
    inverse = pow(_PCG64_MULTIPLIER, -1, 1 << 128)
    state = ((stepped - _PCG64_INCREMENT) * inverse) % (1 << 128)
    generator = np.random.Generator(np.random.PCG64(0))
    generator.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": _PCG64_INCREMENT},
        "has_uint32": 0,
        "uinteger": 0,
    }
    return generator


def _assert_draw_matches_numpy(ours, theirs, n, p, count):
    """``binomial_rows`` on ``ours`` equals numpy's per-generator draw on ``theirs``."""
    got = binomial_rows(ours, n, p, count)
    want = np.stack([rng.binomial(n, p, size=count) for rng in theirs])
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want), (n, p, count)
    # Every generator is left where numpy leaves it.
    assert [rng.random() for rng in ours] == [rng.random() for rng in theirs]


@st.composite
def _binomial_parameters(draw):
    """``(n, p)`` over numpy's dispatch: both sides of ``r * n = 30`` and ``p`` in {0, 1}."""
    n = draw(st.integers(0, 400))
    kind = draw(st.sampled_from(["any", "switch", "switch", "certain"]))
    if kind == "certain":
        return n, draw(st.sampled_from([0.0, 1.0]))
    if kind == "switch" and n >= 60:
        # r * n within +-1 of 30, including 30 / n and its neighbouring doubles.
        exact = 30.0 / n
        r = draw(st.floats(29.0 / n, min(0.5, 31.0 / n))
                 | st.sampled_from([exact, math.nextafter(exact, 0.0),
                                    math.nextafter(exact, 1.0)]))
        return n, draw(st.sampled_from([r, 1.0 - r]))
    return n, draw(st.floats(0.0, 1.0))


class TestBinomialRows:
    """``binomial_rows`` is numpy's per-frame ``binomial`` drawn in bulk, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(params=_binomial_parameters(), frames=st.integers(1, 9),
           count=st.integers(0, 64), seed=st.integers(0, 2**32 - 1))
    def test_matches_numpy_per_generator(self, params, frames, count, seed):
        n, p = params
        _assert_draw_matches_numpy(spawn_rngs(seed, frames), spawn_rngs(seed, frames),
                                   n, p, count)

    @pytest.mark.parametrize("n,r", [
        (64, 0.45),          # conv2 under the Figure 3a profile
        (64, 0.46875),       # r * n == 30 exactly; restarts near the top
        (64, 0.4),           # conv2 at rate 0.6, through n - X
        (2, 0.3), (5, 0.05), (3, 0.2), (10, 0.1),
        (77, 0.182232552005492), (1, 0.5), (60, 0.5), (400, 0.075),
    ])
    def test_every_step_matches_numpy_at_and_below_it(self, n, r):
        # Random seeds almost never land on a step; crafted generators put
        # the uniform exactly on each step and one grid point below it,
        # where any difference in the constants or the rounding shows.
        points = {_GRID_TOP}
        steps, _starts = _inversion_table(n, r)
        for threshold in steps:
            if np.isfinite(threshold):
                index = int(threshold * 2**53)
                points.update({index, max(index - 1, 0)})
        for index in sorted(points):
            for p in (r, 1.0 - r):
                _assert_draw_matches_numpy([_generator_emitting(index)],
                                           [_generator_emitting(index)], n, p, 2)

    def test_restart_matches_numpy(self):
        # The top uniform walks (64, 0.46875) past its bound: numpy draws
        # that variate again from the next double.
        steps, _starts = _inversion_table(64, 0.46875)
        assert steps[-1] <= _GRID_TOP * 2.0**-53
        _assert_draw_matches_numpy([_generator_emitting(_GRID_TOP)],
                                   [_generator_emitting(_GRID_TOP)], 64, 0.46875, 5)

    def test_restart_takes_the_next_uniform(self):
        class ScriptedUniforms:
            def __init__(self, values):
                self.values = list(values)
                self.used = 0

            def random(self, size=None, out=None):
                out[...] = self.values[self.used:self.used + out.size]
                self.used += out.size
                return out

        steps, _starts = _inversion_table(64, 0.46875)
        restart = float(steps[-1])
        stub = ScriptedUniforms([0.2, restart, 0.5, 0.7, 0.9])
        counts = binomial_rows([stub], 64, 0.46875, 3)
        assert stub.used == 4
        expected = np.searchsorted(steps, [0.2, 0.5, 0.7], side="right")
        assert counts.tolist() == [expected.tolist()]

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 400), share=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_step_count_is_searchsorted(self, n, share, seed):
        # Uniforms on every step, one grid point below it, on every bucket
        # edge and at random: the bucketed count equals searchsorted on all
        # of them below the restart step.
        r = min(0.5, 30.0 / n) * share
        if r == 0.0:
            return
        steps, starts = _inversion_table(n, r)
        finite = steps[np.isfinite(steps)]
        points = np.concatenate([
            finite, finite - 2.0**-53, np.arange(1024) / 1024,
            np.random.default_rng(seed).random(4096),
        ])
        points = points[(points >= 0.0) & (points < steps[-1])].reshape(1, -1)
        assert np.array_equal(_count_steps(steps, starts, points),
                              np.searchsorted(steps, points, side="right"))

    def test_threads_sharing_the_tables_match_numpy(self):
        # Executor threads share the memoised tables: build and read them
        # from more threads than cores, switching often, configurations
        # alternating so builds and lookups interleave.
        _inversion_table.cache_clear()
        configs = [(64, 0.45), (64, 0.6), (64, 0.46875), (128, 0.2)]
        calls = [(seed, *configs[seed % len(configs)]) for seed in range(48)]

        def draw(seed, n, p):
            _assert_draw_matches_numpy(spawn_rngs(seed, 3), spawn_rngs(seed, 3), n, p, 64)
            return seed

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(draw, *call) for call in calls]
                done = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert done == [seed for seed, _n, _p in calls]

    def test_tables_are_read_only(self):
        for array in _inversion_table(64, 0.45):
            with pytest.raises(ValueError):
                array[0] = 0

    @pytest.mark.parametrize("n,p,message", [
        (5, -0.1, "p < 0"), (5, 1.1, "p < 0"), (5, float("nan"), "p is NaN"),
        (-1, 0.5, "n < 0"),
    ])
    def test_rejects_what_numpy_rejects(self, n, p, message):
        with pytest.raises(ValueError, match=message):
            np.random.default_rng(0).binomial(n, p, size=3)
        with pytest.raises(ValueError, match=message):
            binomial_rows(spawn_rngs(0, 2), n, p, 3)
