"""Lightweight telemetry registry of the serving subsystem.

Three instrument kinds cover what a serving deployment watches:

* :class:`Counter` — monotone event counts (requests admitted, rejections,
  store hits);
* :class:`Gauge` — last-written point-in-time values (queue depth, worker
  count);
* :class:`Histogram` — value distributions with percentile summaries
  (request latency, micro-batch size).

All instruments hang off one :class:`MetricsRegistry`, are thread-safe
(every server worker and client thread records into the same registry), and
flatten into a plain-JSON :meth:`MetricsRegistry.snapshot` so telemetry can
be printed, logged or shipped without any external dependency.  *Probes*
(:meth:`MetricsRegistry.add_probe`) pull numbers owned by other components —
e.g. :meth:`repro.session.ResultStore.stats` — into the same snapshot at
read time, so the registry never caches stale copies of someone else's
state.
"""

from __future__ import annotations

import random
import threading
import zlib
from bisect import insort
from typing import Callable, Dict, List, Mapping, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "percentile_of_sorted",
]


class Counter:
    """A monotonically increasing event count."""

    def __init__(self, name: str, lock: threading.RLock):
        self.name = name
        self._lock = lock
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time value; reads return the last write."""

    def __init__(self, name: str, lock: threading.RLock):
        self.name = name
        self._lock = lock
        self._value: float = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


#: Default cap on retained histogram observations.  Beyond it the histogram
#: keeps a uniform random sample (reservoir sampling), so long-lived servers
#: get stable percentile estimates at bounded memory.
_DEFAULT_RESERVOIR = 4096

#: The percentile summaries every histogram reports.
PERCENTILES = (50.0, 95.0, 99.0)


def percentile_of_sorted(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile (0..100) of an already-sorted value list.

    The one shared definition behind :meth:`Histogram.percentile` and
    :meth:`repro.serve.client.LoadReport`'s latency summaries, so the
    telemetry snapshot and the load reports can never compute the same
    statistic two different ways.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(round(q / 100.0 * (len(ordered) - 1))))
    return ordered[index]


class Histogram:
    """A value distribution with count/sum/min/max and percentile summaries.

    Observations are kept sorted in a bounded reservoir: up to
    ``max_samples`` values verbatim, then a deterministic uniform
    replacement policy (seeded per histogram), so ``percentile`` stays a
    cheap index into a sorted list however long the server runs.
    """

    def __init__(self, name: str, lock: threading.RLock,
                 max_samples: int = _DEFAULT_RESERVOIR):
        if max_samples < 1:
            raise ValueError(f"max_samples must be positive, got {max_samples}")
        self.name = name
        self._lock = lock
        self._max_samples = max_samples
        self._sorted: List[float] = []
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        # Deterministic reservoir replacement (no global RNG state touched;
        # crc32, unlike hash(), is not salted per process, so the same
        # workload retains the same sample across runs).
        self._random = random.Random(zlib.crc32(name.encode()))

    def reset(self) -> None:
        """Discard every observation and re-seed the reservoir RNG.

        Test support: resetting in place is cheaper than rebuilding a whole
        registry, and re-seeding keeps the reservoir deterministic across
        resets exactly as across fresh constructions.
        """
        with self._lock:
            self._sorted = []
            self.count = 0
            self.sum = 0.0
            self.min = None
            self.max = None
            self._random = random.Random(zlib.crc32(self.name.encode()))

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            self.min = value if self.min is None else min(self.min, value)
            self.max = value if self.max is None else max(self.max, value)
            if len(self._sorted) < self._max_samples:
                insort(self._sorted, value)
            else:
                # Reservoir sampling: admit with probability k/n, evicting a
                # uniformly chosen retained sample.
                slot = self._random.randrange(self.count)
                if slot < self._max_samples:
                    victim = self._random.randrange(len(self._sorted))
                    self._sorted.pop(victim)
                    insort(self._sorted, value)

    def percentile(self, q: float) -> float:
        """The q-th percentile (0..100) of the retained observations."""
        with self._lock:
            return percentile_of_sorted(self._sorted, q)

    @property
    def mean(self) -> float:
        with self._lock:
            return self.sum / self.count if self.count else 0.0

    def summary(self) -> Dict[str, float]:
        """count/sum/mean/min/max plus the standard percentiles."""
        with self._lock:
            data: Dict[str, float] = {
                "count": self.count,
                "sum": self.sum,
                "mean": self.mean,
                "min": self.min if self.min is not None else 0.0,
                "max": self.max if self.max is not None else 0.0,
            }
            for q in PERCENTILES:
                data[f"p{q:g}"] = self.percentile(q)
            return data


class MetricsRegistry:
    """Named counters, gauges and histograms behind one snapshot.

    Instruments are created on first use (``registry.counter("x")`` both
    creates and returns), so instrumented code never needs a registration
    phase.  A name is permanently bound to its first kind — asking for the
    same name as a different kind raises, catching telemetry typos early.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._instruments: Dict[str, object] = {}
        self._probes: Dict[str, Callable[[], Mapping[str, float]]] = {}

    def _instrument(self, name: str, cls, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise TypeError(
                        f"metric {name!r} is a {type(existing).__name__}, "
                        f"not a {cls.__name__}"
                    )
                return existing
            instrument = cls(name, self._lock, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str) -> Counter:
        return self._instrument(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._instrument(name, Gauge)

    def histogram(self, name: str, max_samples: int = _DEFAULT_RESERVOIR) -> Histogram:
        return self._instrument(name, Histogram, max_samples=max_samples)

    def add_probe(self, name: str, probe: Callable[[], Mapping[str, float]]) -> None:
        """Attach a live stats source flattened into every snapshot.

        ``probe()`` is called at snapshot time and its mapping appears under
        ``{name}.{key}`` — e.g. the result store's
        :meth:`~repro.session.ResultStore.stats` wired in by
        :class:`repro.serve.server.InferenceServer`.
        """
        with self._lock:
            self._probes[name] = probe

    def snapshot(self) -> Dict[str, object]:
        """One flat JSON-serializable view of every instrument and probe."""
        with self._lock:
            data: Dict[str, object] = {}
            for name, instrument in sorted(self._instruments.items()):
                if isinstance(instrument, (Counter, Gauge)):
                    data[name] = instrument.value
                else:
                    data[name] = instrument.summary()
            probes = list(self._probes.items())
        # Probes run outside the registry lock: they may take other locks
        # (e.g. the server's store lock) and must not nest under ours.
        for name, probe in sorted(probes):
            try:
                values = probe()
            except Exception as error:  # a dead probe must not kill telemetry
                data[name] = {"error": repr(error)}
                continue
            data[name] = dict(values)
        return data

