"""Declarative sweep plans: parameter spaces, sweep specs and plan execution.

This module is the "describe the experiment as data" half of the evaluation
surface.  A sweep is *data*:

* :class:`ParameterSpace` — named axes composed by grid (cartesian
  product) and chain (``+``, concatenation).  Spaces are immutable;
  overriding one axis' values (:meth:`ParameterSpace.with_axis`) returns a
  new space.
* :class:`SweepSpec` — a space plus a point function, a row schema, seeding
  policy and headline finalizer.  The built-in sweeps are plain
  ``SweepSpec`` instances in :data:`repro.eval.runner.SWEEPS`.
* :func:`iter_plan` / :func:`collect_plan` — execute a spec serially or on
  a caller-owned :class:`concurrent.futures.Executor` (through
  :func:`repro.backends.execute`), streaming :class:`PlanRow` objects as
  points complete (``iter_plan``) or assembling the canonical
  :class:`~repro.eval.experiments.ExperimentResult` (``collect_plan``).

:meth:`repro.session.Session.run` and :meth:`~repro.session.Session.run_plan`
call these with the session's shared pool, so the same spec runs serially
or on a thread/process pool without changing a line of its definition::

    spec = SweepSpec(
        name="my_sweep",
        space=ParameterSpace.grid(rate=(0.1, 0.2, 0.4), precision=("fp16",)),
        point=my_point_function,          # task dict -> row dict
        row_schema=("rate", "speedup"),
    )
    result = collect_plan(spec)

Determinism contract: every point derives its own seed from the base seed,
the sweep name and its parameters (:func:`point_seed`), so rows never
depend on evaluation order, on which subset of points is requested, or on
whether a pool executed them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .backends import execute

__all__ = [
    "ParameterSpace",
    "PlanRow",
    "SweepSpec",
    "collect_plan",
    "iter_plan",
    "point_seed",
]

_SEED_SPACE = 2**63 - 1


def point_seed(base_seed: int, sweep: str, params: Mapping[str, object]) -> int:
    """Deterministic per-point seed derived from the base seed and the point.

    The derivation hashes the sweep name and the *sorted* parameter items,
    so the seed of a point never depends on where it appears in the sweep or
    on which other points run alongside it.
    """
    payload = json.dumps([sweep, sorted(params.items())], sort_keys=True, default=str)
    digest = hashlib.sha256(f"{base_seed}:{payload}".encode()).digest()
    return int.from_bytes(digest[:8], "little") % _SEED_SPACE


# --------------------------------------------------------------------------- #
# Parameter spaces
# --------------------------------------------------------------------------- #
def _normalize_values(values: object) -> Tuple[object, ...]:
    """A tuple of axis values; scalars (including strings) become one value."""
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        return (values,)
    return tuple(values)


class ParameterSpace:
    """Immutable, composable set of named sweep axes.

    Construct leaf spaces with :meth:`grid` (cartesian product of axes, the
    last axis varying fastest), then compose with ``a + b`` —
    :meth:`chain`: the points of ``a`` followed by those of ``b`` (axes may
    differ).

    :meth:`points` materializes the canonical point order every execution
    shares; :meth:`with_axis` returns a new space with one axis' values
    replaced wherever that axis appears.
    """

    def points(self) -> List[Dict[str, object]]:
        raise NotImplementedError

    def axis_names(self) -> Tuple[str, ...]:
        raise NotImplementedError

    def with_axis(self, name: str, values: object) -> "ParameterSpace":
        raise NotImplementedError

    # -- constructors --------------------------------------------------------
    @staticmethod
    def grid(**axes: object) -> "ParameterSpace":
        """Cartesian product of the given axes (last axis varies fastest)."""
        return _GridSpace(axes)

    # -- composition ---------------------------------------------------------
    def chain(self, other: "ParameterSpace") -> "ParameterSpace":
        """This space's points followed by ``other``'s."""
        return _ChainSpace((self, other))

    __add__ = chain

    def __len__(self) -> int:
        return len(self.points())

    def __iter__(self) -> Iterator[Dict[str, object]]:
        return iter(self.points())


class _GridSpace(ParameterSpace):
    def __init__(self, axes: Mapping[str, object]):
        if not axes:
            raise ValueError("a grid space needs at least one axis")
        self._axes = {name: _normalize_values(values) for name, values in axes.items()}
        for name, values in self._axes.items():
            if not values:
                raise ValueError(f"axis {name!r} has no values")

    def points(self) -> List[Dict[str, object]]:
        names = list(self._axes)
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*self._axes.values())
        ]

    def axis_names(self) -> Tuple[str, ...]:
        return tuple(self._axes)

    def with_axis(self, name: str, values: object) -> "ParameterSpace":
        if name not in self._axes:
            raise KeyError(f"unknown axis {name!r}; space has {self.axis_names()}")
        axes = dict(self._axes)
        axes[name] = values
        return _GridSpace(axes)


class _ChainSpace(ParameterSpace):
    def __init__(self, parts: Sequence[ParameterSpace]):
        flat: List[ParameterSpace] = []
        for part in parts:
            if isinstance(part, _ChainSpace):
                flat.extend(part._parts)
            else:
                flat.append(part)
        self._parts = tuple(flat)

    def points(self) -> List[Dict[str, object]]:
        return [point for part in self._parts for point in part.points()]

    def axis_names(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for part in self._parts:
            for name in part.axis_names():
                if name not in seen:
                    seen.append(name)
        return tuple(seen)

    def with_axis(self, name: str, values: object) -> "ParameterSpace":
        if name not in self.axis_names():
            raise KeyError(f"unknown axis {name!r}; space has {self.axis_names()}")
        # The override applies to every chained part carrying the axis;
        # parts without it keep their points unchanged.
        parts = [
            part.with_axis(name, values) if name in part.axis_names() else part
            for part in self._parts
        ]
        return _ChainSpace(parts)


# --------------------------------------------------------------------------- #
# Sweep specification
# --------------------------------------------------------------------------- #
def _no_headline(rows, tasks, run_point) -> Dict[str, float]:
    return {}


#: Point parameters that configure the *computation*, not the random input
#: data.  Specs exclude them from the per-point seed derivation so that e.g.
#: every core count costs the same spike-count map (strong scaling) and
#: every precision runs the same random batch (matched-data speedups).
DEFAULT_COMPUTE_PARAMS = ("cores", "precision")


@dataclass(frozen=True)
class SweepSpec:
    """One declarative sweep: a parameter space plus its point function.

    ``point`` is called with a *task* dictionary (the point's parameters
    plus the derived ``seed`` and ``batch``) and returns one row
    dictionary; it must be a top-level function so process pools can pickle
    it.  ``finalize`` receives the collected rows, the executed task dicts
    and a ``run_point`` callable evaluating one extra point under the
    sweep's seed and batch size; it returns the headline and may add
    derived columns to the rows.

    ``kwarg_axes`` maps user-facing keyword parameters (e.g. ``rates=``)
    onto axis names (``rate``); scalars pin an axis to a single value,
    sequences replace its value list.  ``normalize`` coerces axis values
    (e.g. ``float``) so overrides derive the same point seeds as defaults.
    """

    name: str
    space: ParameterSpace
    point: Callable[[Dict[str, object]], Dict[str, object]]
    description: str = ""
    row_schema: Tuple[str, ...] = ()
    finalize: Callable[
        [
            List[Dict[str, object]],
            List[Dict[str, object]],
            Callable[[Dict[str, object]], Dict[str, object]],
        ],
        Dict[str, float],
    ] = _no_headline
    #: whether points consume randomness (False skips per-point seed
    #: derivation: every point receives the base seed)
    seeded: bool = True
    #: whether points read the task's ``batch`` (only then does the sweep's
    #: scenario accept ``batch_size``)
    batched: bool = False
    compute_params: Tuple[str, ...] = DEFAULT_COMPUTE_PARAMS
    kwarg_axes: Mapping[str, str] = field(default_factory=dict)
    normalize: Mapping[str, Callable[[object], object]] = field(default_factory=dict)
    # -- the parameter space -------------------------------------------------
    def resolve_space(self, **point_kwargs) -> ParameterSpace:
        """The spec's space with any keyword overrides applied.

        Unknown keywords raise :class:`TypeError` (mirroring a misspelled
        function keyword), so ``rates=`` typos fail loudly instead of
        silently sweeping the defaults.
        """
        space = self.space
        for keyword, values in point_kwargs.items():
            axis = self.kwarg_axes.get(keyword)
            if axis is None:
                accepted = ", ".join(sorted(self.kwarg_axes)) or "(none)"
                raise TypeError(
                    f"sweep {self.name!r} got an unexpected point parameter "
                    f"{keyword!r}; accepted: {accepted}"
                )
            space = space.with_axis(axis, values)
        return space

    def points(self, **point_kwargs) -> List[Dict[str, object]]:
        """Materialized, normalized point parameter dictionaries."""
        raw = self.resolve_space(**point_kwargs).points()
        if not self.normalize:
            return raw
        return [
            {
                name: (self.normalize[name](value) if name in self.normalize else value)
                for name, value in params.items()
            }
            for params in raw
        ]

    # -- seeding ------------------------------------------------------------
    def task_seed(self, base_seed: int, params: Mapping[str, object]) -> int:
        """Per-point seed; compute-only parameters share one data seed."""
        if not self.seeded:
            return base_seed
        seed_params = {
            key: value for key, value in params.items()
            if key not in self.compute_params
        }
        return point_seed(base_seed, self.name, seed_params)

    def task(self, params: Mapping[str, object], seed: int, batch_size: int) -> Dict[str, object]:
        """The executable task dict of one point (params + seed + batch)."""
        task = dict(params)
        task["seed"] = self.task_seed(seed, params)
        task["batch"] = batch_size
        return task


# --------------------------------------------------------------------------- #
# Plan execution
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PlanRow:
    """One streamed sweep row: canonical index, point parameters and the row."""

    index: int
    params: Dict[str, object]
    row: Dict[str, object]


def iter_plan(
    spec: SweepSpec,
    seed: int = 2025,
    batch_size: int = 4,
    point_kwargs: Optional[Mapping[str, object]] = None,
    executor: Optional[Executor] = None,
) -> Iterator[PlanRow]:
    """Stream a spec's rows as they complete (serially without ``executor``).

    Rows stream back in *completion* order, each carrying its canonical
    ``index`` so consumers can reassemble the deterministic row order at
    any time.
    """
    points = spec.points(**(point_kwargs or {}))
    tasks = [spec.task(params, seed, batch_size) for params in points]
    for index, row in execute(spec.point, tasks, executor):
        yield PlanRow(index, dict(points[index]), dict(row))


def collect_plan(
    spec: SweepSpec,
    seed: int = 2025,
    batch_size: int = 4,
    point_kwargs: Optional[Mapping[str, object]] = None,
    executor: Optional[Executor] = None,
) -> "ExperimentResult":
    """Run a spec to completion and assemble the canonical result.

    Rows are ordered by their canonical point index (identical with or
    without ``executor``), and the spec's ``finalize`` computes the headline
    (and may add derived columns).
    """
    # Imported here, not at module level: eval.runner imports this module to
    # define the built-in specs, so a top-level eval import would be cyclic.
    from .eval.experiments import ExperimentResult

    points = spec.points(**(point_kwargs or {}))
    tasks = [spec.task(params, seed, batch_size) for params in points]
    rows: List[Optional[Dict[str, object]]] = [None] * len(points)

    def run_point(params: Dict[str, object]) -> Dict[str, object]:
        """Evaluate one extra point under the sweep's seed and batch size."""
        return spec.point(spec.task(params, seed, batch_size))

    for plan_row in iter_plan(
        spec, seed=seed, batch_size=batch_size, point_kwargs=point_kwargs,
        executor=executor,
    ):
        rows[plan_row.index] = plan_row.row
    # Narrow List[Optional[...]] -> List[...]: iter_plan yields every
    # index exactly once, so a leftover None here is a dispatch bug worth
    # a loud error rather than a downstream TypeError.
    unfilled = [index for index, row in enumerate(rows) if row is None]
    if unfilled:
        raise RuntimeError(
            f"sweep {spec.name!r}: dispatch yielded no row for point "
            f"index(es) {unfilled}"
        )
    filled: List[Dict[str, object]] = [row for row in rows if row is not None]
    headline = spec.finalize(filled, tasks, run_point)
    if spec.row_schema:
        for row in filled:
            missing = [column for column in spec.row_schema if column not in row]
            if missing:
                raise ValueError(
                    f"sweep {spec.name!r} produced a row missing declared "
                    f"column(s) {missing}: {sorted(row)}"
                )
    # Exported JSON/CSV results carry this name; it must stay stable.
    return ExperimentResult(
        name=f"parallel_{spec.name}_sweep",
        figure="sweep",
        rows=filled,
        headline=headline,
    )
