"""Self-tests of the benchmark, on tiny loads.

Run from the repository root (the file name keeps it out of the default
test collection, like ``benchmarks/bench_*.py``)::

    python -m pytest perfbench/bench_selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from concurrent.futures import Future
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import catalog  # noqa: E402
from perfbench.loadgen import run_phase  # noqa: E402
from perfbench.run import result_line  # noqa: E402
from perfbench.workloads import _sim_metrics, make_workload  # noqa: E402

#: Metrics that may legitimately read 0 on a workload that runs them
#: (statistical requests carry no array large enough for the blob cache).
MAY_BE_ZERO = {
    "session.store.hit_frac", "net.blob_hit_frac", "net.credit_stalls", "net.rescues",
    "harness.trace_overhead_pct", "harness.lateness_ms.p90",
}


def tiny_run(name: str, seed: int = 1, traced: bool = False):
    return make_workload(name, seed, 1.0, ROOT, min_requests=8).run(traced=traced)


def test_benchmark_json_matches_catalog():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in bench["workloads"]} == catalog.WORKLOADS
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]} == catalog.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == {
        name: spec[:2] for name, spec in catalog.PER_LAYER.items()}
    bounds = {name: spec[2] for name, spec in catalog.END_TO_END.items()}
    assert bounds["setup_s"] == max(bounds.values())


def test_open_loop_counts_a_stall_from_due_times():
    """A 300 ms stall in sending request 0 delays requests 1-3, which were
    due 20 ms apart: their latency must include the wait."""

    def submit(index: int) -> Future:
        if index == 0:
            time.sleep(0.3)
        future: Future = Future()
        threading.Timer(0.01, future.set_result, args=(index,)).start()
        return future

    report = run_phase("stall", submit, 4, rate_hz=50.0)
    assert report.succeeded == 4 and report.failed == 0
    assert all(latency >= 250.0 for latency in report.latencies_ms[1:])
    assert max(report.lateness_ms) >= 250.0


@pytest.mark.parametrize("name", list(catalog.WORKLOADS))
def test_tiny_load_reports_every_metric(name):
    outcome = tiny_run(name)
    assert outcome.correct, outcome.problems
    line = result_line(outcome, traced=False)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        k: spec[0] for k, spec in catalog.END_TO_END.items()}
    assert all(entry["value"] > 0 for entry in line["metrics"].values()), line

    traced = tiny_run(name, traced=True)
    assert traced.correct, traced.problems
    line = result_line(traced, traced=True)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        k: spec[0] for k, spec in catalog.PER_LAYER.items()}
    for metric, (_unit, _better, _moves, runs_on) in catalog.PER_LAYER.items():
        if name in runs_on and metric not in MAY_BE_ZERO:
            assert line["metrics"][metric]["value"] > 0, metric

    from repro.obs.export import read_jsonl, to_chrome, well_nested

    with open(traced.trace_file) as handle:
        traces = read_jsonl(handle)
    assert len(traces) == 1 and well_nested(traces[0]) is None
    assert to_chrome(traces)["traceEvents"]


def test_sim_metrics_repeat_and_equal_direct_session_runs():
    from repro.session import Session

    first = tiny_run("net-stat", seed=3)
    second = tiny_run("net-stat", seed=4)
    sim = {k: v for k, v in first.metrics.items() if k.startswith("sim_")}
    assert sim == {k: v for k, v in second.metrics.items() if k.startswith("sim_")}
    session = Session()
    direct = [session.run_inference(batch_size=1, seed=seed)
              for seed in catalog.CANONICAL_STAT_SEEDS]
    assert sim == _sim_metrics(direct)


def test_host_times_are_scaled_to_the_reference_host(monkeypatch):
    """With the calibration unit pinned at twice the reference, every host
    time reads half its unscaled value, and throughput twice."""
    from perfbench import host

    monkeypatch.setattr(host, "unit_ms", lambda samples=3: 2 * host.REFERENCE_UNIT_MS)
    outcome = tiny_run("offline-b128")
    assert outcome.correct, outcome.problems
    raw = outcome.raw_metrics
    for name in ("setup_s", "latency_p50_ms", "latency_p90_ms"):
        assert outcome.metrics[name] == pytest.approx(raw[name] / 2)
    assert outcome.metrics["throughput_fps"] == pytest.approx(raw["throughput_fps"] * 2)


def test_slowed_forward_pass_moves_only_serve_func(monkeypatch):
    """Delaying ``SpikingNetwork.forward_batch`` must show in ``snn.forward_ms``
    and serve-func latency, and leave offline-b128 alone."""
    from repro.snn.network import SpikingNetwork

    delay_s = 0.25
    baseline = {name: tiny_run(name) for name in ("serve-func", "offline-b128")}
    baseline_traced = tiny_run("serve-func", traced=True)

    original = SpikingNetwork.forward_batch
    calls = []

    def slowed(self, *args, **kwargs):
        calls.append(1)
        time.sleep(delay_s)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SpikingNetwork, "forward_batch", slowed)
    slow = tiny_run("offline-b128")
    assert slow.correct and not calls
    for metric in ("latency_p50_ms", "throughput_fps"):
        ratio = slow.metrics[metric] / baseline["offline-b128"].metrics[metric]
        assert 0.5 < ratio < 2.0, (metric, ratio)
    slow = tiny_run("serve-func")
    assert slow.correct and calls
    grew = slow.metrics["latency_p50_ms"] - baseline["serve-func"].metrics["latency_p50_ms"]
    assert grew > 0.6 * delay_s * 1e3
    slow_traced = tiny_run("serve-func", traced=True)
    grew = slow_traced.metrics["snn.forward_ms"] - baseline_traced.metrics["snn.forward_ms"]
    assert grew > 0.8 * delay_s * 1e3
    for metric in ("sim_cycles_per_frame", "sim_fpu_util", "sim_energy_uj_per_frame"):
        assert slow.metrics[metric] == baseline["serve-func"].metrics[metric]


def test_directory_without_the_program_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "net-stat",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
