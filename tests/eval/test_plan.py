"""Tests for the declarative plan layer: ParameterSpace, SweepSpec, executors."""

import pytest

from repro.backends import SerialBackend
from repro.eval.runner import SWEEPS, run_sweep
from repro.plan import (
    ParameterSpace,
    PlanRow,
    ResultsCache,
    SweepSpec,
    collect_plan,
    iter_plan,
    point_seed,
)


# --------------------------------------------------------------------------- #
# ParameterSpace composition
# --------------------------------------------------------------------------- #
class TestParameterSpace:
    def test_grid_cartesian_product_last_axis_fastest(self):
        space = ParameterSpace.grid(a=(1, 2), b=("x", "y"))
        assert space.points() == [
            {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
            {"a": 2, "b": "x"}, {"a": 2, "b": "y"},
        ]
        assert len(space) == 4
        assert space.axis_names() == ("a", "b")

    def test_scalar_axis_values_become_single_points(self):
        space = ParameterSpace.grid(rate=(0.1, 0.2), precision="fp16")
        assert space.points() == [
            {"rate": 0.1, "precision": "fp16"},
            {"rate": 0.2, "precision": "fp16"},
        ]

    def test_zipped_parallel_iteration(self):
        space = ParameterSpace.zipped(a=(1, 2, 3), b=(10, 20, 30))
        assert space.points() == [
            {"a": 1, "b": 10}, {"a": 2, "b": 20}, {"a": 3, "b": 30},
        ]

    def test_zipped_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="equal lengths"):
            ParameterSpace.zipped(a=(1, 2), b=(1,))

    def test_chain_concatenates_points(self):
        space = ParameterSpace.grid(a=(1,)) + ParameterSpace.grid(a=(2, 3))
        assert [p["a"] for p in space.points()] == [1, 2, 3]

    def test_product_merges_disjoint_axes(self):
        space = ParameterSpace.grid(a=(1, 2)) * ParameterSpace.grid(b=("x",))
        assert space.points() == [{"a": 1, "b": "x"}, {"a": 2, "b": "x"}]
        assert space.axis_names() == ("a", "b")

    def test_product_rejects_shared_axes(self):
        with pytest.raises(ValueError, match="share axes"):
            ParameterSpace.grid(a=(1,)) * ParameterSpace.grid(a=(2,))

    def test_with_axis_replaces_values_immutably(self):
        space = ParameterSpace.grid(a=(1, 2), b=("x",))
        narrowed = space.with_axis("a", (9,))
        assert [p["a"] for p in narrowed.points()] == [9]
        assert [p["a"] for p in space.points()] == [1, 2]  # original untouched

    def test_with_axis_unknown_axis_rejected(self):
        with pytest.raises(KeyError, match="unknown axis"):
            ParameterSpace.grid(a=(1,)).with_axis("z", (2,))

    def test_with_axis_through_composites(self):
        chained = ParameterSpace.grid(a=(1,)) + ParameterSpace.grid(a=(2,), c=(5,))
        overridden = chained.with_axis("a", 7)
        assert [p["a"] for p in overridden.points()] == [7, 7]
        product = ParameterSpace.grid(a=(1, 2)) * ParameterSpace.grid(b=("x",))
        assert [p["b"] for p in product.with_axis("b", "y").points()] == ["y", "y"]

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            ParameterSpace.grid(a=())

    def test_describe_is_compact(self):
        assert ParameterSpace.grid(a=(1, 2), b=("x",)).describe() == "a x2 · b x1"


# --------------------------------------------------------------------------- #
# SweepSpec semantics
# --------------------------------------------------------------------------- #
def _double_point(task):
    return {"n": task["n"], "doubled": task["n"] * 2, "seed": task["seed"]}


def _spec(**overrides):
    fields = dict(
        name="double",
        space=ParameterSpace.grid(n=(1, 2, 3)),
        point=_double_point,
        row_schema=("n", "doubled"),
        kwarg_axes={"ns": "n"},
        normalize={"n": int},
    )
    fields.update(overrides)
    return SweepSpec(**fields)


class TestSweepSpec:
    def test_points_apply_normalization(self):
        spec = _spec()
        assert spec.points(ns=(1.0, 2.0)) == [{"n": 1}, {"n": 2}]

    def test_unknown_point_kwarg_raises_typeerror(self):
        with pytest.raises(TypeError, match="unexpected point parameter"):
            _spec().points(bogus=(1,))

    def test_seed_per_task_matches_point_seed_and_skips_compute_params(self):
        spec = _spec(compute_params=("precision",))
        params = {"n": 3, "precision": "fp16"}
        assert spec.task_seed(11, params) == point_seed(11, "double", {"n": 3})
        unseeded = _spec(seeded=False)
        assert unseeded.task_seed(11, {"n": 3}) == 11

    def test_cache_key_ignores_unconsumed_knobs(self):
        seeded = _spec()
        assert seeded.cache_key({"n": 1}, 1, 4) != seeded.cache_key({"n": 1}, 2, 4)
        deterministic = _spec(seeded=False)
        assert deterministic.cache_key({"n": 1}, 1, 4) == deterministic.cache_key({"n": 1}, 2, 4)
        assert seeded.cache_key({"n": 1}, 1, 4) == seeded.cache_key({"n": 1}, 1, 8)
        batched = _spec(uses_batch=True)
        assert batched.cache_key({"n": 1}, 1, 4) != batched.cache_key({"n": 1}, 1, 8)

    def test_describe_reports_axes_and_parameters(self):
        info = _spec().describe()
        assert info["name"] == "double"
        assert info["points"] == 3
        assert info["parameters"] == ("ns",)
        assert "n" in info["axes"]

    def test_builtin_sweeps_are_specs(self):
        for name, spec in SWEEPS.items():
            assert isinstance(spec, SweepSpec)
            assert spec.name == name
            assert len(spec.space) > 0
            assert spec.row_schema


# --------------------------------------------------------------------------- #
# Plan execution
# --------------------------------------------------------------------------- #
_calls = []


def _tracking_point(task):
    _calls.append(task["n"])
    return {"n": task["n"], "doubled": task["n"] * 2}


class TestIterPlan:
    def test_streams_rows_before_the_sweep_completes(self):
        # Consuming the iterator one element at a time must interleave with
        # point evaluation: after the first `next` only one point has run.
        _calls.clear()
        spec = _spec(point=_tracking_point)
        stream = iter_plan(spec, SerialBackend(), seed=1, batch_size=1)
        first = next(stream)
        assert isinstance(first, PlanRow)
        assert first.index == 0 and first.row["doubled"] == 2
        assert _calls == [1], "iter_plan evaluated ahead of the consumer"
        rest = list(stream)
        assert [r.index for r in rest] == [1, 2]
        assert _calls == [1, 2, 3]

    def test_cache_hits_marked_and_served_first(self):
        spec = _spec()
        cache = ResultsCache()
        list(iter_plan(spec, SerialBackend(), seed=1, batch_size=1, cache=cache))
        rows = list(iter_plan(spec, SerialBackend(), seed=1, batch_size=1, cache=cache))
        assert all(row.cached for row in rows)
        assert [row.index for row in rows] == [0, 1, 2]

    def test_rows_carry_point_params(self):
        rows = list(iter_plan(_spec(), SerialBackend(), seed=1, batch_size=1,
                              point_kwargs={"ns": (5,)}))
        assert rows[0].params == {"n": 5}


class TestCollectPlan:
    def test_result_matches_run_sweep(self):
        direct = collect_plan(SWEEPS["stream_length"], SerialBackend(),
                              seed=3, batch_size=4, point_kwargs={"lengths": (2, 8)})
        legacy = run_sweep("stream_length", seed=3, lengths=(2, 8))
        assert direct.rows == legacy.rows
        assert direct.headline == legacy.headline
        assert direct.name == "parallel_stream_length_sweep"

    def test_row_schema_violation_rejected(self):
        def bad_point(task):
            return {"n": task["n"]}  # missing "doubled"

        spec = _spec(point=bad_point)
        with pytest.raises(ValueError, match="missing declared"):
            collect_plan(spec, SerialBackend(), seed=1, batch_size=1)

    def test_headline_from_finalize(self):
        spec = _spec(finalize=lambda rows, tasks, run_cached: {
            "total": sum(r["doubled"] for r in rows)
        })
        result = collect_plan(spec, SerialBackend(), seed=1, batch_size=1)
        assert result.headline == {"total": 12}


class TestPublicSweepHelpers:
    def test_conv6_spec_and_counts_for_rate_are_public(self):
        import numpy as np

        from repro.eval.sweeps import conv6_spec, counts_for_rate

        spec = conv6_spec()
        assert spec.name == "conv6"
        counts = counts_for_rate(spec, 0.2, np.random.default_rng(0))
        assert counts.shape == (10, 10)  # 8x8 ifmap + padding ring
