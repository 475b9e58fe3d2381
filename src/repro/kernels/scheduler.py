"""Workload-stealing scheduler over receptive fields (Section III-B).

Because the ifmaps are compressed, the work per receptive field (RF) varies
with the local spike count; a static partition would leave cores idle.  The
paper therefore lets each core, once it finishes its RF, atomically claim the
next unprocessed RF.  :func:`workload_stealing_schedule` simulates that policy
over one vector of per-RF costs with a heap of core availability times; it is
the oracle.  :func:`workload_stealing_schedule_batch` produces the same
schedule for a whole batch of cost vectors, picking per frame the cheapest
exact method its input allows: a closed-form round-robin for frames whose
items all cost the same, the heap once per frame for small batches (the
oracle's own loop, :func:`_heap_claims`, on costs validated once for the
whole batch), and a numpy loop over the items, vectorised across frames,
for large ones.

The batched kernels read their per-item costs from per-count tables
compiled once per layer (see :mod:`repro.kernels.batch_stats`).  Such a
table is exact, not an approximation: every SpVA cost is an element-wise
function of one integral spike count, so the table built on
:func:`numpy.arange` holds bit for bit what the cost function returns for
that count, and the schedules built on it equal the scalar kernels'.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

#: Frames left after the closed form are simulated with the heap one by one
#: when there are fewer than this many, else with the loop across frames.
#: On a 2-CPU Xeon host (Python 3.11, numpy 2.4) the crossover lies at
#: 5-10 frames for 64-1024 items on 8 cores.
SMALL_BATCH = 8


@dataclass
class StealingSchedule:
    """Result of simulating the workload-stealing policy."""

    num_cores: int
    assignments: List[List[int]]
    core_busy_cycles: np.ndarray
    core_finish_cycles: np.ndarray
    atomic_operations_per_core: np.ndarray

    @property
    def makespan(self) -> float:
        """Cycles until the last core finishes."""
        if len(self.core_finish_cycles) == 0:
            return 0.0
        return float(np.max(self.core_finish_cycles))

    @property
    def imbalance(self) -> float:
        """Ratio between the slowest and the average core busy time (>= 1)."""
        busy = self.core_busy_cycles
        if busy.size == 0 or np.all(busy == 0):
            return 1.0
        mean = float(np.mean(busy))
        if mean == 0:
            return 1.0
        return float(np.max(busy)) / mean

    def rf_count(self) -> int:
        """Total number of receptive fields processed."""
        return sum(len(a) for a in self.assignments)


@dataclass
class BatchStealingSchedule:
    """Workload-stealing schedules of a whole batch of frames at once.

    All arrays carry a leading batch axis: ``core_of_item[b, i]`` is the core
    that claims item ``i`` of frame ``b``, and the per-core aggregates have
    shape ``(batch, num_cores)``.  For every frame the schedule is identical
    (bit-for-bit) to running :func:`workload_stealing_schedule` on that
    frame's cost vector alone.
    """

    num_cores: int
    core_of_item: np.ndarray
    core_busy_cycles: np.ndarray
    core_finish_cycles: np.ndarray
    atomic_operations_per_core: np.ndarray

    @property
    def batch_size(self) -> int:
        """Number of frames scheduled."""
        return int(self.core_of_item.shape[0])

    @property
    def makespans(self) -> np.ndarray:
        """Per-frame cycles until the last core finishes, shape ``(batch,)``."""
        if self.core_finish_cycles.size == 0:
            return np.zeros(self.batch_size, dtype=np.float64)
        return np.max(self.core_finish_cycles, axis=1)

    def frame_assignments(self, frame: int) -> List[List[int]]:
        """Per-core item index lists of one frame (ascending, like the scalar API)."""
        return [
            [int(i) for i in np.flatnonzero(self.core_of_item[frame] == core)]
            for core in range(self.num_cores)
        ]


def _checked_costs(values, name: str) -> np.ndarray:
    """``values`` as float64, rejecting negative and non-finite costs."""
    costs = np.asarray(values, dtype=np.float64)
    if not np.isfinite(costs).all():
        raise ValueError(f"{name} must be finite")
    if (costs < 0).any():
        raise ValueError(f"{name} must be non-negative")
    return costs


def workload_stealing_schedule_batch(
    item_costs: np.ndarray,
    num_cores: int,
    atomic_cost_cycles: float = 0.0,
) -> BatchStealingSchedule:
    """Simulate dynamic workload stealing for a batch of frames at once.

    ``item_costs`` has shape ``(batch, num_items)``: one cost vector per
    frame.  Every frame's outcome is bit-for-bit identical to
    :func:`workload_stealing_schedule` on that row; each frame takes the
    first of three exact methods that applies to it:

    * frames whose items all cost the same are dealt round-robin
      (:func:`_round_robin_rows`);
    * if fewer than :data:`SMALL_BATCH` frames remain, each is simulated
      with the heap;
    * otherwise the remaining frames are simulated together by
      :func:`_stealing_loop`.
    """
    if num_cores <= 0:
        raise ValueError(f"num_cores must be positive, got {num_cores}")
    costs = _checked_costs(item_costs, "item_costs")
    if costs.ndim != 2:
        raise ValueError(f"item_costs must be 2-D (batch, items), got shape {costs.shape}")
    batch, num_items = costs.shape
    core_of_item = np.empty((batch, num_items), dtype=np.int64)
    busy = np.zeros((batch, num_cores), dtype=np.float64)
    finish = np.zeros((batch, num_cores), dtype=np.float64)
    claims = np.zeros((batch, num_cores), dtype=np.float64)

    closed = np.zeros(batch, dtype=bool)
    uniform = np.flatnonzero((costs == costs[:, :1]).all(axis=1))
    if len(uniform):
        exact, rr_busy, rr_finish, rr_claims = _round_robin_rows(
            costs[uniform, :1], num_items, num_cores, atomic_cost_cycles
        )
        rows = uniform[exact]
        core_of_item[rows] = np.arange(num_items) % num_cores
        busy[rows], finish[rows], claims[rows] = rr_busy[exact], rr_finish[exact], rr_claims
        closed[rows] = True
    rest = np.flatnonzero(~closed)
    if len(rest) < SMALL_BATCH:
        for frame in rest:
            core_of_item[frame], finish[frame] = _heap_claims(
                costs[frame].tolist(), num_cores, atomic_cost_cycles
            )
            busy[frame] = np.bincount(core_of_item[frame], costs[frame], num_cores)
            claims[frame] = np.bincount(core_of_item[frame], minlength=num_cores)
    else:
        core_of_item[rest], busy[rest], finish[rest], claims[rest] = _stealing_loop(
            costs[rest], num_cores, atomic_cost_cycles
        )
    return BatchStealingSchedule(
        num_cores=num_cores,
        core_of_item=core_of_item,
        core_busy_cycles=busy,
        core_finish_cycles=finish,
        atomic_operations_per_core=claims,
    )


def _round_robin_rows(
    cost: np.ndarray, num_items: int, num_cores: int, atomic_cost_cycles: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form schedules of frames whose ``num_items`` items all cost ``cost``.

    ``cost`` has shape ``(frames, 1)``.  While each round of claims ends
    strictly later than the one before, every claim goes to the free core
    with the lowest id, so item ``i`` lands on core ``i % num_cores`` and
    core ``j`` makes ``rounds + (j < num_items % num_cores)`` claims.  The
    finish time after ``r`` rounds is accumulated sequentially as
    ``(end + atomic) + cost`` and the busy time as ``busy + cost``, the
    heap's operations in its order.  Returns the mask of frames for which
    the round-robin holds (the others need a full simulation) plus, for all
    frames, the per-core busy and finish times and the claim counts.
    """
    frames = len(cost)
    rounds = -(-num_items // num_cores)
    steps = np.zeros((frames, 2 * rounds + 1), dtype=np.float64)
    steps[:, 1::2] = atomic_cost_cycles
    steps[:, 2::2] = cost
    ends = np.cumsum(steps, axis=1)[:, ::2]
    work = np.zeros((frames, rounds + 1), dtype=np.float64)
    work[:, 1:] = cost
    done = np.cumsum(work, axis=1)
    exact = (ends[:, 1:] > ends[:, :-1]).all(axis=1)
    per_core = num_items // num_cores + (np.arange(num_cores) < num_items % num_cores)
    return exact, done[:, per_core], ends[:, per_core], per_core.astype(np.float64)


def _stealing_loop(
    costs: np.ndarray, num_cores: int, atomic_cost_cycles: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Simulate all frames of ``costs`` together, one item at a time.

    The heap keeps one entry per core, so popping the smallest
    ``(available_at, core)`` is an argmin over the per-core availability
    with ties to the lowest core id, which is what :func:`numpy.argmin`
    returns.  Only availability and the claiming core are carried through
    the loop.  Each core's finish time is its final availability, and
    :func:`numpy.bincount` adds the busy cycles of a core in item order, as
    the heap does.  Returns ``(core_of_item, busy, finish, claims)``.
    """
    frames, num_items = costs.shape
    available = np.zeros((frames, num_cores), dtype=np.float64)
    flat_available = available.reshape(-1)
    offsets = np.arange(frames) * num_cores
    core_by_item = np.empty((num_items, frames), dtype=np.int64)
    for item, cost in enumerate(np.ascontiguousarray(costs.T)):
        chosen = available.argmin(axis=1)
        slots = offsets + chosen
        flat_available[slots] = flat_available[slots] + atomic_cost_cycles + cost
        core_by_item[item] = chosen
    core_of_item = core_by_item.T
    bins = (offsets[:, None] + core_of_item).reshape(-1)
    size = frames * num_cores
    busy = np.bincount(bins, weights=costs.reshape(-1), minlength=size)
    claims = np.bincount(bins, minlength=size).astype(np.float64)
    return (
        core_of_item,
        busy.reshape(frames, num_cores),
        available,
        claims.reshape(frames, num_cores),
    )


def workload_stealing_schedule(
    rf_costs: Sequence[float],
    num_cores: int,
    atomic_cost_cycles: float = 0.0,
    static: bool = False,
) -> StealingSchedule:
    """Simulate dynamic workload stealing (or a static block partition).

    Each claim pops the core that frees up first (ties to the lowest core
    id) from a heap of ``(available_at, core)`` entries and pushes it back
    at ``(available_at + atomic_cost_cycles) + cost``.

    Parameters
    ----------
    rf_costs:
        Cycle cost of each receptive field, in processing order.
    num_cores:
        Number of worker cores.
    atomic_cost_cycles:
        Cost of the atomic tagging operation paid each time a core claims an
        RF.
    static:
        If True, simulate a static contiguous partition instead (used by the
        ablation study to quantify the benefit of stealing).
    """
    if num_cores <= 0:
        raise ValueError(f"num_cores must be positive, got {num_cores}")
    if not isinstance(rf_costs, np.ndarray):
        rf_costs = list(rf_costs)
    costs = _checked_costs(rf_costs, "rf_costs")
    assignments: List[List[int]] = [[] for _ in range(num_cores)]

    if static:
        # Contiguous block partition: core c gets RFs [c*chunk, (c+1)*chunk).
        busy = np.zeros(num_cores, dtype=np.float64)
        chunks = np.array_split(np.arange(len(costs)), num_cores)
        for core, chunk in enumerate(chunks):
            assignments[core] = [int(i) for i in chunk]
            busy[core] = float(np.sum(costs[chunk]))
        return StealingSchedule(
            num_cores=num_cores,
            assignments=assignments,
            core_busy_cycles=busy,
            core_finish_cycles=busy.copy(),
            atomic_operations_per_core=np.zeros(num_cores, dtype=np.float64),
        )

    cost_list = costs.tolist()
    claimed_by, finish = _heap_claims(cost_list, num_cores, atomic_cost_cycles)
    busy_cycles = [0.0] * num_cores
    for rf_index, core in enumerate(claimed_by):
        assignments[core].append(rf_index)
        busy_cycles[core] += cost_list[rf_index]
    return StealingSchedule(
        num_cores=num_cores,
        assignments=assignments,
        core_busy_cycles=np.array(busy_cycles, dtype=np.float64),
        core_finish_cycles=np.array(finish, dtype=np.float64),
        atomic_operations_per_core=np.array(
            [len(items) for items in assignments], dtype=np.float64
        ),
    )


def _heap_claims(
    costs: List[float], num_cores: int, atomic_cost_cycles: float
) -> Tuple[List[int], List[float]]:
    """Dynamic stealing of one cost vector: each core grabs the next item as
    soon as it is free.

    Returns the claiming core of every item and the finish cycles of every
    core; a core's busy cycles are the sum of its items' costs in item
    order.  The sorted initial list is already a heap; a core's last push is
    its finish time.
    """
    heap = [(0.0, core) for core in range(num_cores)]
    claimed_by: List[int] = []
    claim, replace = claimed_by.append, heapq.heapreplace  # hoisted: the loop is hot
    for cost in costs:
        available_at, core = heap[0]
        claim(core)
        replace(heap, (available_at + atomic_cost_cycles + cost, core))
    finish = [0.0] * num_cores
    for available_at, core in heap:
        finish[core] = available_at
    return claimed_by, finish
