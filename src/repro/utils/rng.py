"""Deterministic random-number-generator helpers.

Every stochastic component (synthetic datasets, random firing patterns, weight
initialization) receives an explicit :class:`numpy.random.Generator` so that
experiments are reproducible from a single seed.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]

#: Bound on the memoised per-``(n, p)`` threshold tables of
#: :func:`binomial_rows` (one entry per distinct layer width and rate).
INVERSION_TABLE_CACHE_SIZE = 128

#: Spacing of the doubles :meth:`numpy.random.Generator.random` returns:
#: every uniform is ``m * 2**-53`` for an integer ``0 <= m < 2**53``.
_GRID = 2.0 ** -53
_GRID_TOP = 2 ** 53 - 1

#: Equal-width buckets of ``[0, 1)`` that :func:`_count_steps` starts from.
_BUCKETS = 1024


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed or pass one through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rngs(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Derive ``count`` independent generators from a single seed.

    Used to give every input frame of a batch its own stream so that changing
    the batch size does not perturb the data of earlier frames.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    root = make_rng(seed)
    seeds = root.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


def binomial_rows(
    rngs: Sequence[np.random.Generator], n: int, p: float, count: int
) -> np.ndarray:
    """``np.stack([rng.binomial(n, p, size=count) for rng in rngs])``, drawn in bulk.

    Returns a ``(len(rngs), count)`` int64 array byte-identical to that
    stack, and leaves every generator at the same stream position.

    numpy's ``Generator.binomial`` draws nothing when ``n == 0`` or
    ``p == 0``.  Otherwise, with ``r = min(p, 1 - p)``, it runs the
    inversion algorithm of Kachitvichyanukul & Schmeiser (CACM 1988) on
    ``r`` when ``r * n <= 30`` (returning ``n - X`` for ``p > 0.5``) and
    BTPE otherwise.  Inversion reads one uniform ``U`` per variate — the
    same double ``Generator.random`` returns — and walks
    ``while U > px: X += 1; U -= px; px = (n - X + 1) * p * px / (X * q)``,
    restarting on a fresh uniform once ``X`` passes
    ``bound = int(min(n, np + 10 * sqrt(npq + 1)))``.  The ``px`` sequence
    does not depend on ``U``, and every step is one correctly rounded
    IEEE operation, so the subtraction chain is monotone in ``U`` and ``X``
    is a non-decreasing step function of it.  :func:`_inversion_table`
    finds that function's steps exactly, on the grid of doubles
    ``random`` can return, so on the inversion branch this helper reads
    each frame's uniforms with one ``random(out=row)`` call and counts the
    steps at or below all of them at once (:func:`_count_steps`).  BTPE's
    steps depend on how numpy was compiled, so that branch keeps numpy's
    own per-frame draw.
    """
    n = int(n)
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError("p < 0, p > 1 or p is NaN")
    if n < 0:
        raise ValueError("n < 0")
    r = p if p <= 0.5 else 1.0 - p
    if n == 0 or p == 0.0 or r * n > 30.0:
        counts = np.zeros((len(rngs), count), dtype=np.int64)
        if n and p:
            for row, rng in zip(counts, rngs):
                row[:] = rng.binomial(n, p, size=count)
        return counts
    steps, starts = _inversion_table(n, r)
    restart = steps[-1]
    uniforms = np.empty((len(rngs), count))
    for row, rng in zip(uniforms, rngs):
        rng.random(out=row)
        if restart < 1.0 and count and row.max() >= restart:
            _redraw_restarts(row, rng, restart)
    counts = _count_steps(steps, starts, uniforms)
    return n - counts if p > 0.5 else counts


def _count_steps(steps: np.ndarray, starts: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """``np.searchsorted(steps, uniforms, side="right")`` for uniforms below ``steps[-1]``.

    Each uniform starts from ``starts``, the count at its bucket's lower
    edge; the few that lie at or above a step inside their bucket then
    move up one step at a time.  No uniform reaches the last (restart)
    step, so the walk never runs off the table.
    """
    counts = starts[(uniforms * _BUCKETS).astype(np.intp)]
    flat_counts, flat_uniforms = counts.reshape(-1), uniforms.reshape(-1)
    ahead = np.flatnonzero(flat_uniforms >= steps[flat_counts])
    while ahead.size:
        flat_counts[ahead] += 1
        ahead = ahead[flat_uniforms[ahead] >= steps[flat_counts[ahead]]]
    return counts


def _redraw_restarts(row: np.ndarray, rng: np.random.Generator, restart: float) -> None:
    """Replace ``row``'s uniforms at or above ``restart`` exactly as numpy does.

    A uniform that walks the inversion past its bound yields no variate:
    numpy starts that variate over on the generator's next double, so the
    row keeps its valid uniforms in order and is completed from the stream.
    """
    kept = row[row < restart]
    while kept.size < row.size:
        more = np.empty(row.size - kept.size)
        rng.random(out=more)
        kept = np.concatenate([kept, more[more < restart]])
    row[:] = kept


@lru_cache(maxsize=INVERSION_TABLE_CACHE_SIZE)
def _inversion_table(n: int, p: float) -> Tuple[np.ndarray, np.ndarray]:
    """Step points of numpy's binomial inversion for ``(n, p)``, ``p <= 0.5``.

    Returns ``(steps, starts)``.  ``steps[k - 1]`` (``k = 1 .. bound + 1``)
    is the smallest uniform on the ``2**-53`` grid at which the inversion
    loop reaches ``X >= k``, or ``inf`` when none does; the last step,
    ``k = bound + 1``, is where the loop restarts.  ``starts[b]`` counts
    the steps at or below ``b / _BUCKETS``.

    numpy's constants are mirrored in Python floats, whose ``math``
    functions call the same C ``exp``/``log1p``/``sqrt`` and round the same
    way.  numpy 2.4.6 computes ``qn = exp(n * log1p(-p))``; the textbook
    ``exp(n * log(q))`` differs from it in the last bit for many ``(n, p)``,
    which random seeds almost never show.  Each threshold starts from the
    running sum of ``px`` and is settled exactly by running the loop at
    neighbouring grid points.  Both arrays are read-only: threads share
    the cache.
    """
    q = 1.0 - p
    qn = math.exp(n * math.log1p(-p))
    mean = n * p
    bound = int(min(n, mean + 10.0 * math.sqrt(mean * q + 1)))
    pmf = [qn]
    for x in range(1, bound + 1):
        pmf.append(((n - x + 1) * p * pmf[-1]) / (x * q))

    steps = np.full(bound + 1, np.inf)
    lowest = 0
    running = 0.0
    for k in range(1, bound + 2):
        walked, last = pmf[:k - 1], pmf[k - 1]

        def reaches(m: int) -> bool:
            # With m at or above the previous threshold the loop already
            # got to X = k - 1; it reaches k when U's remainder exceeds px.
            u = m * _GRID
            for px in walked:
                u -= px
            return u > last

        running += last
        guess = min(max(int(running / _GRID), lowest), _GRID_TOP)
        found = _first_true(reaches, guess, lowest)
        if found is None:
            break
        steps[k - 1] = found * _GRID
        lowest = found
    starts = np.searchsorted(steps, np.arange(_BUCKETS) / _BUCKETS, side="right")
    steps.setflags(write=False)
    starts.setflags(write=False)
    return steps, starts


def _first_true(pred, guess: int, lowest: int) -> Optional[int]:
    """Smallest ``m`` in ``[lowest, 2**53 - 1]`` with monotone ``pred(m)``, or ``None``.

    Gallops away from ``guess`` until ``pred(lo)`` is false (or ``lo`` is
    below ``lowest``) and ``pred(hi)`` true, then bisects between them.
    """
    step = 1
    if pred(guess):
        lo, hi = guess - 1, guess
        while lo >= lowest and pred(lo):
            lo, hi, step = lo - step, lo, step * 2
        lo = max(lo, lowest - 1)
    else:
        lo, hi = guess, guess + 1
        while hi <= _GRID_TOP and not pred(hi):
            lo, hi, step = hi, hi + step, step * 2
        if hi > _GRID_TOP:
            if not pred(_GRID_TOP):
                return None
            hi = _GRID_TOP
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi
