"""Declarative sweep plans: parameter spaces, sweep specs and plan execution.

This module is the "describe the experiment as data" half of the evaluation
surface.  Historically every sweep was a hand-written pair of functions
(point generator + point runner) hard-wired into a ``SWEEPS`` table, so
adding a scenario meant editing three modules and the CLI.  A sweep is now
*data*:

* :class:`ParameterSpace` — named axes composed by grid (cartesian
  product), zip (parallel iteration), chain (concatenation) and product
  (grid composition of two spaces).  Spaces are immutable; overriding one
  axis' values (:meth:`ParameterSpace.with_axis`) returns a new space.
* :class:`SweepSpec` — a space plus a point function, a row schema, seeding
  policy and headline finalizer.  The spec is all a backend needs to run
  the sweep; the five legacy sweeps are plain ``SweepSpec`` instances in
  :data:`repro.eval.runner.SWEEPS`.
* :func:`iter_plan` / :func:`collect_plan` — execute a spec on any
  :class:`repro.backends.ExecutionBackend`, streaming
  :class:`PlanRow` objects as points complete (``iter_plan``) or
  assembling the canonical :class:`~repro.eval.experiments.ExperimentResult`
  (``collect_plan``).

Execution strategy lives entirely behind the backend object, so the same
spec runs serially or on a thread/process pool without changing a line of
its definition::

    spec = SweepSpec(
        name="my_sweep",
        space=ParameterSpace.grid(rate=(0.1, 0.2, 0.4), precision=("fp16",)),
        point=my_point_function,          # task dict -> row dict
        row_schema=("rate", "speedup"),
    )
    result = collect_plan(spec, SerialBackend())

Determinism contract: every point derives its own seed from the base seed,
the sweep name and its parameters (:func:`point_seed`), so rows never
depend on evaluation order, on which subset of points is requested, or on
which backend executed them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
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

from .utils.serialization import atomic_write_text, canonical_json

__all__ = [
    "ParameterSpace",
    "PlanRow",
    "ResultsCache",
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
# Results cache (sweep-point rows)
# --------------------------------------------------------------------------- #
class ResultsCache:
    """Memoized sweep-point rows keyed on (config, seed, batch, sweep point).

    The cache is an in-memory dictionary, optionally backed by a JSON file:
    pass ``path`` to load previously persisted rows on construction and call
    :meth:`save` (the plan executor does) to persist new ones.

    Thread safety: one cache is shared by every worker of a threaded
    backend and by concurrent serve requests resolving against the same
    session, so every access to the row dict, the dirty flag and the
    hit/miss counters holds ``_lock``.
    """

    def __init__(self, path: Optional[Path] = None):
        self.path = Path(path) if path is not None else None
        self._lock = threading.RLock()
        self._rows: Dict[str, Dict[str, object]] = {}
        self._dirty = False
        self.hits = 0
        self.misses = 0
        if self.path is not None and self.path.exists():
            try:
                rows = json.loads(self.path.read_text())
                if not isinstance(rows, dict):
                    raise ValueError("cache root must be a JSON object")
                kept = {k: v for k, v in rows.items() if isinstance(v, dict)}
                if len(kept) != len(rows):
                    print(
                        f"warning: dropped {len(rows) - len(kept)} malformed "
                        f"entr(y/ies) from results cache {self.path}",
                        file=sys.stderr,
                    )
                self._rows = kept
            except (ValueError, OSError) as error:
                # A cache is disposable: a corrupt/unreadable file means the
                # points re-run, it must never crash the sweep.
                print(
                    f"warning: ignoring unreadable results cache {self.path}: {error}",
                    file=sys.stderr,
                )
                self._rows = {}

    @staticmethod
    def key(
        sweep: str,
        params: Mapping[str, object],
        seed: int,
        batch_size: int,
        config: Optional[Mapping[str, object]] = None,
    ) -> str:
        """Stable string key of one sweep point under one configuration."""
        payload = {
            "sweep": sweep,
            "params": sorted(params.items()),
            "seed": seed,
            "batch": batch_size,
            "config": sorted((config or {}).items()),
        }
        # The same canonical encoder serializes keys and the persisted rows
        # (see save()), so equal parameters can never encode differently
        # between the two paths.
        return canonical_json(payload)

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """Cached row for ``key``, or None (updates hit/miss counters)."""
        with self._lock:
            row = self._rows.get(key)
            if row is None:
                self.misses += 1
                return None
            self.hits += 1
            return dict(row)

    def put(self, key: str, row: Mapping[str, object]) -> None:
        """Store one row under ``key``."""
        with self._lock:
            self._rows[key] = dict(row)
            self._dirty = True

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    def save(self) -> None:
        """Persist the cache to its JSON file (no-op for in-memory caches).

        The write is atomic (temp file in the same directory, then
        ``os.replace``), so an interrupted sweep can never leave a
        half-written file that a later load would have to discard.  Like the
        load path, a failure to persist is reported but never raised: the
        sweep's results have already been computed and must still reach the
        caller.
        """
        with self._lock:
            if self.path is None or not self._dirty:
                return
            payload = canonical_json(self._rows)
        try:
            atomic_write_text(self.path, payload)
            with self._lock:
                self._dirty = False
        except OSError as error:
            print(
                f"warning: could not persist results cache {self.path}: {error}",
                file=sys.stderr,
            )


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
    last axis varying fastest) or :meth:`zipped` (parallel iteration over
    equal-length axes), then compose:

    * ``a + b`` — :meth:`chain`: the points of ``a`` followed by those of
      ``b`` (axes may differ);
    * ``a * b`` — :meth:`product`: grid composition, every point of ``a``
      merged with every point of ``b`` (axes must be disjoint).

    :meth:`points` materializes the canonical point order shared by every
    execution backend; :meth:`with_axis` returns a new space with one axis'
    values replaced wherever that axis appears.
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

    @staticmethod
    def zipped(**axes: object) -> "ParameterSpace":
        """Parallel iteration over equal-length axes (like :func:`zip`)."""
        return _ZipSpace(axes)

    # -- composition ---------------------------------------------------------
    def chain(self, other: "ParameterSpace") -> "ParameterSpace":
        """This space's points followed by ``other``'s."""
        return _ChainSpace((self, other))

    def product(self, other: "ParameterSpace") -> "ParameterSpace":
        """Grid composition: every point of ``self`` merged with every point
        of ``other``; the two spaces must not share axis names."""
        return _ProductSpace(self, other)

    __add__ = chain
    __mul__ = product

    def __len__(self) -> int:
        return len(self.points())

    def __iter__(self) -> Iterator[Dict[str, object]]:
        return iter(self.points())

    def describe(self) -> str:
        """Compact human-readable axis summary, e.g. ``rate x6 · cores x4``."""
        raise NotImplementedError


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

    def describe(self) -> str:
        return " · ".join(f"{name} x{len(values)}" for name, values in self._axes.items())


class _ZipSpace(ParameterSpace):
    def __init__(self, axes: Mapping[str, object]):
        if not axes:
            raise ValueError("a zip space needs at least one axis")
        self._axes = {name: _normalize_values(values) for name, values in axes.items()}
        lengths = {len(values) for values in self._axes.values()}
        if len(lengths) != 1:
            raise ValueError(
                "zipped axes must have equal lengths, got "
                + ", ".join(f"{n}:{len(v)}" for n, v in self._axes.items())
            )

    def points(self) -> List[Dict[str, object]]:
        names = list(self._axes)
        return [dict(zip(names, combo)) for combo in zip(*self._axes.values())]

    def axis_names(self) -> Tuple[str, ...]:
        return tuple(self._axes)

    def with_axis(self, name: str, values: object) -> "ParameterSpace":
        if name not in self._axes:
            raise KeyError(f"unknown axis {name!r}; space has {self.axis_names()}")
        axes = dict(self._axes)
        axes[name] = values
        return _ZipSpace(axes)

    def describe(self) -> str:
        return "zip(" + " · ".join(
            f"{name} x{len(values)}" for name, values in self._axes.items()
        ) + ")"


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

    def describe(self) -> str:
        return " + ".join(part.describe() for part in self._parts)


class _ProductSpace(ParameterSpace):
    def __init__(self, left: ParameterSpace, right: ParameterSpace):
        overlap = set(left.axis_names()) & set(right.axis_names())
        if overlap:
            raise ValueError(f"product spaces share axes {sorted(overlap)}")
        self._left = left
        self._right = right

    def points(self) -> List[Dict[str, object]]:
        right_points = self._right.points()
        return [
            {**lp, **rp} for lp in self._left.points() for rp in right_points
        ]

    def axis_names(self) -> Tuple[str, ...]:
        return self._left.axis_names() + self._right.axis_names()

    def with_axis(self, name: str, values: object) -> "ParameterSpace":
        if name in self._left.axis_names():
            return _ProductSpace(self._left.with_axis(name, values), self._right)
        if name in self._right.axis_names():
            return _ProductSpace(self._left, self._right.with_axis(name, values))
        raise KeyError(f"unknown axis {name!r}; space has {self.axis_names()}")

    def describe(self) -> str:
        return f"({self._left.describe()}) * ({self._right.describe()})"


# --------------------------------------------------------------------------- #
# Sweep specification
# --------------------------------------------------------------------------- #
def _no_headline(rows, tasks, run_cached) -> Dict[str, float]:
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
    and a ``run_cached`` callable evaluating one extra point through the
    results cache; it returns the headline and may add derived columns to
    the rows.

    ``kwarg_axes`` maps user-facing keyword parameters (e.g. ``rates=``)
    onto axis names (``rate``); scalars pin an axis to a single value,
    sequences replace its value list.  ``normalize`` coerces axis values
    (e.g. ``float``) so overrides hit the same cache keys as defaults.
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
    #: whether points consume randomness (False keeps the seed out of the
    #: cache key and skips per-point seed derivation)
    seeded: bool = True
    #: whether points consume the batch size (False keeps it out of the key)
    uses_batch: bool = False
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

    # -- seeding and cache keys ----------------------------------------------
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

    def cache_key(self, params: Mapping[str, object], seed: int, batch_size: int) -> str:
        """Row-cache key; only knobs the sweep consumes enter the key, so
        deterministic sweeps hit regardless of ``--seed`` and model-only
        sweeps hit regardless of ``--batch``."""
        key_seed = seed if self.seeded else 0
        key_batch = batch_size if self.uses_batch else 0
        return ResultsCache.key(self.name, params, key_seed, key_batch)

    def describe(self) -> Dict[str, object]:
        """Name, axis summary, point count and accepted keywords."""
        return {
            "name": self.name,
            "axes": self.space.describe(),
            "points": len(self.space),
            "parameters": tuple(sorted(self.kwarg_axes)),
            "columns": self.row_schema,
            "seeded": self.seeded,
            "description": self.description,
        }


# --------------------------------------------------------------------------- #
# Plan execution
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PlanRow:
    """One streamed sweep row: canonical index, point parameters, the row,
    and whether it was served from the results cache."""

    index: int
    params: Dict[str, object]
    row: Dict[str, object]
    cached: bool = False


def iter_plan(
    spec: SweepSpec,
    backend,
    seed: int = 2025,
    batch_size: int = 4,
    cache: Optional[ResultsCache] = None,
    point_kwargs: Optional[Mapping[str, object]] = None,
) -> Iterator[PlanRow]:
    """Stream a spec's rows as the backend completes them.

    Cache hits are yielded first (in canonical order, marked
    ``cached=True``); the remaining points stream back in *completion*
    order, each carrying its canonical ``index`` so consumers can
    reassemble the deterministic row order at any time.  Fresh rows enter
    the cache as they arrive, but the cache is **not** saved here — callers
    that own a file-backed cache save once at the end
    (:func:`collect_plan` and :meth:`repro.session.Session.run_plan` do).
    """
    points = spec.points(**(point_kwargs or {}))
    tasks = [spec.task(params, seed, batch_size) for params in points]
    keys = [spec.cache_key(params, seed, batch_size) for params in points]

    pending: List[int] = []
    for index in range(len(tasks)):
        if cache is not None:
            hit = cache.get(keys[index])
            if hit is not None:
                yield PlanRow(index, dict(points[index]), hit, cached=True)
                continue
        pending.append(index)

    if not pending:
        return
    sub_tasks = [tasks[i] for i in pending]
    for local_index, row in backend.execute(spec.point, sub_tasks):
        index = pending[local_index]
        if cache is not None:
            cache.put(keys[index], row)
        yield PlanRow(index, dict(points[index]), dict(row), cached=False)


def collect_plan(
    spec: SweepSpec,
    backend,
    seed: int = 2025,
    batch_size: int = 4,
    cache: Optional[ResultsCache] = None,
    point_kwargs: Optional[Mapping[str, object]] = None,
) -> "ExperimentResult":
    """Run a spec to completion and assemble the canonical result.

    Rows are ordered by their canonical point index (identical across every
    backend), the spec's ``finalize`` computes the headline (and may add
    derived columns), and a file-backed cache is saved exactly once — in a
    ``finally`` block, so freshly computed rows survive a failing finalize.
    """
    # Imported here, not at module level: eval.runner imports this module to
    # define the built-in specs, so a top-level eval import would be cyclic.
    from .eval.experiments import ExperimentResult

    points = spec.points(**(point_kwargs or {}))
    tasks = [spec.task(params, seed, batch_size) for params in points]
    rows: List[Optional[Dict[str, object]]] = [None] * len(points)

    def run_cached(params: Dict[str, object]) -> Dict[str, object]:
        """Evaluate one extra point through the same cache as the sweep points."""
        key = spec.cache_key(params, seed, batch_size)
        if cache is not None:
            hit = cache.get(key)
            if hit is not None:
                return hit
        row = spec.point(spec.task(params, seed, batch_size))
        if cache is not None:
            cache.put(key, row)
        return row

    try:
        for plan_row in iter_plan(
            spec, backend, seed=seed, batch_size=batch_size,
            cache=cache, point_kwargs=point_kwargs,
        ):
            rows[plan_row.index] = plan_row.row
        # Narrow List[Optional[...]] -> List[...]: iter_plan yields every
        # index exactly once, so a leftover None here is a backend bug worth
        # a loud error rather than a downstream TypeError.
        unfilled = [index for index, row in enumerate(rows) if row is None]
        if unfilled:
            raise RuntimeError(
                f"sweep {spec.name!r}: backend yielded no row for point "
                f"index(es) {unfilled}"
            )
        filled: List[Dict[str, object]] = [row for row in rows if row is not None]
        headline = spec.finalize(filled, tasks, run_cached)
        if spec.row_schema:
            for row in filled:
                missing = [column for column in spec.row_schema if column not in row]
                if missing:
                    raise ValueError(
                        f"sweep {spec.name!r} produced a row missing declared "
                        f"column(s) {missing}: {sorted(row)}"
                    )
    finally:
        # One save at the very end covers the sweep points *and* any extra
        # finalize anchors, instead of rewriting the file once per addition;
        # saving in a finally block keeps freshly computed rows persisted
        # even when finalize (or its anchor point) raises.
        if cache is not None:
            cache.save()
    # Named distinctly from the sequential sweeps: the per-point seeding
    # produces different (order-independent) draws than the shared-RNG
    # sequential functions, so results keyed by name must never mix.
    return ExperimentResult(
        name=f"parallel_{spec.name}_sweep",
        figure="sweep",
        rows=filled,
        headline=headline,
    )
