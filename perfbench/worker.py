"""A ``repro.net`` worker process with the benchmark's timing shims installed.

Traced ``net-stat`` runs start their worker with this script instead of
``repro.net.spawn_worker`` so the kernel, core, snn and serve calls made in
the worker process are timed too.  It runs the same ``repro.cli worker``
command and, when the coordinator shuts the cluster down, writes the spans
as JSONL for the benchmark process to merge::

    python perfbench/worker.py HOST:PORT SPANS.jsonl TRACE_ID PARENT_SPAN_ID
"""

from __future__ import annotations

import sys


def main(argv) -> int:
    address, out_path, trace_id, parent_id = argv
    from perfbench.shims import Recorder, installed
    from repro.cli import main as cli_main
    from repro.obs.export import to_jsonl

    recorder = Recorder(trace_id, parent=parent_id)
    with installed(recorder):
        code = cli_main(["worker", "--connect", address])
    with open(out_path, "w") as handle:
        to_jsonl([{"spans": recorder.spans}], handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
