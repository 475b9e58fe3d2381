"""The repository benchmark: S-VGG11 serving and offline costing.

Run from the repository root::

    python3 perfbench/run.py --workload net-stat --seed 1 --seconds 12 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric instead (layers a workload does
not run read 0) and writes the spans to ``.bench_out/trace-*.jsonl``, which
``PYTHONPATH=src python -m repro.cli trace --input <file> --format chrome``
renders.  Human-readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Host times (latencies, throughput, set-up time) are scaled to
the reference host of ``perfbench/host.py``; the unscaled figures are printed
beside them.  The full result, with the host record and every phase, goes to
``.bench_out/result-<workload>-seed<seed>-trace<t>.json``.  The exit code is
non-zero when any output was wrong or any request failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(outcome, traced: bool) -> dict:
    """The final JSON object: every end-to-end metric (``traced=False``) or
    every per-layer metric (``traced=True``), each with its unit."""
    from perfbench import catalog

    table = catalog.PER_LAYER if traced else catalog.END_TO_END
    return {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics.get(name, 0.0), "unit": spec[0]}
            for name, spec in table.items()
        },
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import catalog
    from perfbench.host import host_record
    from perfbench.workloads import make_workload

    if args.workload not in catalog.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(catalog.WORKLOADS)}", file=sys.stderr)
        return 2
    host = host_record()
    outcome = make_workload(args.workload, args.seed, args.seconds, ROOT).run(
        traced=bool(args.trace))
    result = result_line(outcome, bool(args.trace))
    print(f"host: {json.dumps(host, sort_keys=True)}")
    for phase in outcome.phases:
        print("phase: " + json.dumps(phase, sort_keys=True))
    for name, entry in result["metrics"].items():
        note = ""
        if name in outcome.raw_metrics:
            note = f"  (unscaled {outcome.raw_metrics[name]:.6g} on this host)"
        if args.trace and args.workload not in catalog.PER_LAYER[name][3]:
            note += "  (layer not run by this workload)"
        print(f"{name:<32} {entry['value']:>16.6g} {entry['unit']}{note}")
    for problem in outcome.problems[:20]:
        print(f"problem: {problem}")
    if outcome.trace_file:
        print(f"trace: {outcome.trace_file}")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, host=host,
                  unscaled=outcome.raw_metrics,
                  phases=outcome.phases, problems=outcome.problems,
                  trace_file=outcome.trace_file)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
