"""Command-line interface for the SpikeStream reproduction.

Five subcommands cover the common workflows, all built on the unified
:class:`repro.session.Session` API::

    python -m repro.cli run        --precision fp16 --batch 8        # S-VGG11 inference
    python -m repro.cli run        --scenario speedup --jobs 4       # any registered scenario
    python -m repro.cli run        --list-scenarios                  # what can I run?
    python -m repro.cli run        --scenario fidelity               # every paper claim vs the model
    python -m repro.cli run        --scenario firing_rate --jobs 4   # a sweep is a scenario too
    python -m repro.cli serve      --workers 2 --max-batch 16        # micro-batching service demo
    python -m repro.cli serve      --trace-out spans.jsonl --stats-out stats.json
    python -m repro.cli worker     --connect HOST:PORT               # repro.net worker host
    python -m repro.cli trace      --input spans.jsonl --format chrome --output trace.json
    python -m repro.cli check      --format json                     # repo lint rules (repro.lint)

Every paper figure is a scenario: ``run --scenario memory_footprint``
(Figure 3a), ``utilization`` (3b), ``speedup`` (3c), ``energy`` (4),
``accelerator_comparison`` (5) and ``spva_microbenchmark`` (Listing 1), and
so is every registered sweep.  Every command prints an aligned text table;
``run`` can also emit machine-readable JSON or CSV (``--format json|csv``)
through one shared reporting path.  ``--jobs``/``--backend`` size the
session's shared worker pool, and ``--cache-dir`` points the session's
persistent result store (whole inference runs) at a directory, so repeated
invocations — e.g. regenerating several figures that share the same S-VGG11
variant runs — skip work already done.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .backends import BACKENDS
from .config import baseline_config, spikestream_config
from .eval.experiments import ExperimentResult
from .eval.reporting import EXPORT_FORMATS, export_experiment, format_table
from .session import ResultStore, Session, _parse_cache_limit
from .snn.numerics import FORWARD_PATHS as NUMERICS_FORWARD_PATHS
from .snn.numerics import PRECISIONS as NUMERICS_PRECISIONS
from .snn.numerics import NumericsPolicy, resolve as resolve_numerics
from .types import Precision


def _positive_int(value: str) -> int:
    number = int(value)
    if number <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return number


def _positive_float(value: str) -> float:
    number = float(value)
    if not number > 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be a positive number, got {value}")
    return number


def _non_negative_float(value: str) -> float:
    number = float(value)
    if not number >= 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative number, got {value}")
    return number


def _probability(value: str) -> float:
    number = float(value)
    if not 0.0 <= number <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return number


def _cache_limit(value: str) -> str:
    """A ``--cache-limit`` the session would accept: its own parser and its
    store's bounds check it, so the grammar lives in one place."""
    try:
        ResultStore(None, *_parse_cache_limit(value))
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    run = subparsers.add_parser("run", help="run S-VGG11 inference or a registered scenario")
    run.add_argument("--precision", default="fp16", choices=[p.value for p in Precision])
    run.add_argument("--baseline", action="store_true", help="disable streaming acceleration")
    run.add_argument("--mode", choices=("statistical", "functional"), default="statistical",
                     help="statistical (firing-rate profile, default) or functional "
                          "(a real S-VGG11 forward pass supplies the spike activity "
                          "through the batched functional engine)")
    # --precision above selects the simulated HARDWARE precision (the cost
    # model); these two select the GOLDEN MODEL's own numerics
    # (repro.snn.numerics.NumericsPolicy), functional mode only.
    run.add_argument("--golden-precision", choices=NUMERICS_PRECISIONS, default=None,
                     help="golden-model dtype of the functional forward pass "
                          "(default: fp64, the bit-for-bit reference; distinct "
                          "from --precision, which is the simulated hardware "
                          "precision)")
    run.add_argument("--forward-path", choices=NUMERICS_FORWARD_PATHS, default=None,
                     help="golden-model forward path of the functional pass: "
                          "dense im2row GEMMs (default) or event_sparse "
                          "(gather active spike rows; cost scales with nnz)")
    # None sentinels: plain inference resolves them to 8 frames / 1 timestep,
    # while --scenario keeps each scenario's own defaults unless the user
    # explicitly overrides them.
    run.add_argument("--batch", type=_positive_int, default=None,
                     help="number of synthetic frames (default: 8; scenarios "
                          "keep their own default unless set)")
    run.add_argument("--timesteps", type=_positive_int, default=None,
                     help="SNN timesteps (default: 1; scenarios keep their own "
                          "default unless set)")
    run.add_argument("--seed", type=int, default=2025)
    run.add_argument("--scenario", default=None, metavar="NAME",
                     help="run a registered Session scenario (see --list-scenarios) "
                          "instead of plain inference")
    run.add_argument("--list-scenarios", action="store_true",
                     help="list every registered scenario and exit")
    run.add_argument("--verbose", action="store_true",
                     help="print session diagnostics (result-store hit/miss/"
                          "eviction counters) to stderr after the run")
    run.add_argument("--format", choices=EXPORT_FORMATS, default="table",
                     dest="output_format",
                     help="output format (one shared reporting path for "
                          "inference and every scenario)")
    run.add_argument("--output", default=None, metavar="PATH",
                     help="write the rendered output to a file instead of stdout")
    run.add_argument("--jobs", type=_positive_int, default=1,
                     help="worker count of the session's shared pool (1 = serial)")
    run.add_argument("--backend", choices=BACKENDS, default="process",
                     help="worker-pool kind used when --jobs > 1")
    run.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="directory persisting the session's result store "
                          "across invocations")
    run.add_argument("--cache-limit", type=_cache_limit, default=None,
                     metavar="LIMIT",
                     help="bound the result store: an entry count, an in-memory "
                          "size ('64MB'), and/or a persisted-directory bound "
                          "('disk:256MB'); comma-combine clauses")

    serve = subparsers.add_parser(
        "serve",
        help="run the micro-batching inference service under synthetic load",
        description="Start an in-process repro.serve.InferenceServer, drive it "
                    "with an open-loop synthetic load and report the service "
                    "telemetry (throughput, latency percentiles, batch sizes, "
                    "store hit rate).",
    )
    serve.add_argument("--workers", type=_positive_int, default=2,
                       help="server worker threads (in-process mode)")
    serve.add_argument("--distributed", action="store_true",
                       help="serve through repro.net: a coordinator whose "
                            "queue is drained by remote worker processes "
                            "instead of in-process worker threads")
    serve.add_argument("--credit", type=_positive_int, default=None,
                       metavar="N",
                       help="credit window spawned workers advertise: batches "
                            "the coordinator may keep in flight per worker "
                            "(--distributed; default 2)")
    serve.add_argument("--workers-remote", type=_positive_int, default=2,
                       metavar="N",
                       help="worker processes to spawn under --distributed")
    serve.add_argument("--max-batch", type=_positive_int, default=16,
                       help="micro-batch flush bound in coalesced frames")
    serve.add_argument("--max-wait-ms", type=_non_negative_float, default=5.0,
                       help="longest a micro-batch lingers on an empty queue, "
                            "in milliseconds; only clustered arrivals (a "
                            "request admitted within this window of the one "
                            "before it) linger, a lone request flushes at once")
    serve.add_argument("--queue-depth", type=_positive_int, default=256,
                       help="admission bound of the request queue")
    serve.add_argument("--requests", type=_positive_int, default=64,
                       help="synthetic requests to fire")
    serve.add_argument("--arrival-rate", type=_positive_float, default=None,
                       metavar="HZ",
                       help="open-loop arrival rate in requests/s "
                            "(default: one concurrent burst)")
    serve.add_argument("--mode", choices=("statistical", "functional"),
                       default="statistical",
                       help="workload of the synthetic requests")
    serve.add_argument("--precision", choices=NUMERICS_PRECISIONS, default="fp64",
                       help="golden-model dtype of functional requests "
                            "(server default_numerics; fp64 is the "
                            "bit-for-bit reference)")
    serve.add_argument("--forward-path", choices=NUMERICS_FORWARD_PATHS,
                       default="dense",
                       help="golden-model forward path of functional "
                            "requests: dense GEMMs or event_sparse "
                            "(cost scales with active spikes)")
    serve.add_argument("--batch", type=_positive_int, default=1,
                       help="frames per request (micro-batching coalesces "
                            "across requests)")
    serve.add_argument("--timesteps", type=_positive_int, default=1)
    serve.add_argument("--seed", type=int, default=2025)
    serve.add_argument("--deadline-ms", type=_positive_float, default=None,
                       help="per-request deadline; queued requests expire "
                            "past it")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="directory persisting the serving session's "
                            "result store")
    serve.add_argument("--cache-limit", type=_cache_limit, default=None,
                       metavar="LIMIT",
                       help="bound the serving session's result store "
                            "(see `run --cache-limit`)")
    serve.add_argument("--format", choices=("table", "json"), default="table",
                       dest="output_format",
                       help="telemetry output format")
    serve.add_argument("--output", default=None, metavar="PATH",
                       help="write the rendered output to a file instead of stdout")
    serve.add_argument("--stats-out", default=None, metavar="PATH",
                       help="also write the final MetricsRegistry snapshot "
                            "as JSON to this file (a machine-readable "
                            "artifact of the load run)")
    serve.add_argument("--trace-out", default=None, metavar="PATH",
                       help="enable request tracing and write completed "
                            "traces to this file as JSONL span records "
                            "(render them with `repro.cli trace`)")
    serve.add_argument("--trace-sample", type=_probability, default=1.0,
                       metavar="P",
                       help="per-trace sampling probability under "
                            "--trace-out (default: 1.0, trace everything)")
    serve.add_argument("--profile-layers", action="store_true",
                       help="record per-layer forward-pass and costing timings "
                            "inside every traced engine pass (needs --trace-out)")

    worker = subparsers.add_parser(
        "worker",
        help="run a repro.net worker host connected to a coordinator",
        description="Connect to a repro.net coordinator (e.g. `repro.cli "
                    "serve --distributed`), register, heartbeat, and execute "
                    "pushed micro-batches until the cluster shuts down.",
    )
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="the coordinator's listen address")
    worker.add_argument("--worker-id", default=None,
                        help="requested registration name (the coordinator "
                             "may uniquify it)")
    worker.add_argument("--credit", type=_positive_int, default=None,
                        metavar="N",
                        help="advertised credit window: batches the "
                             "coordinator may keep in flight here (default 2)")
    # Chaos levers for the rescue tests and smoke: hang or hard-exit the
    # process after N batches.  Deliberately undocumented in --help.
    worker.add_argument("--chaos-hang-after", type=int, default=None,
                        help=argparse.SUPPRESS)
    worker.add_argument("--chaos-exit-after", type=int, default=None,
                        help=argparse.SUPPRESS)

    trace = subparsers.add_parser(
        "trace",
        help="render a span export written by `serve --trace-out`",
        description="Read the JSONL span records `repro.cli serve "
                    "--trace-out` exports and render them as a "
                    "chrome://tracing / Perfetto `trace_event` document "
                    "(or normalized JSONL, one span per line).",
    )
    trace.add_argument("--input", required=True, metavar="PATH",
                       help="JSONL span export (`serve --trace-out PATH`)")
    trace.add_argument("--format", choices=("chrome", "jsonl"),
                       default="chrome", dest="output_format",
                       help="chrome: a trace_event JSON document loadable "
                            "in chrome://tracing and Perfetto; jsonl: one "
                            "span record per line")
    trace.add_argument("--output", default=None, metavar="PATH",
                       help="write the rendered export to a file instead "
                            "of stdout")

    from .lint import RULES

    check = subparsers.add_parser(
        "check",
        help="run the repository's static-analysis rules (repro.lint)",
        description="Run the registered AST lint rules over the repository "
                    "sources and report findings in the shared gate-report "
                    "schema (benchmarks/common.py). Exits non-zero on any "
                    "finding, so it can gate CI directly.",
    )
    check.add_argument("--rule", action="append", choices=sorted(RULES),
                       default=None, metavar="NAME", dest="rules",
                       help="run only this rule (repeatable; default: all, "
                            "plus the unused-suppression check)")
    check.add_argument("--format", choices=("text", "json"), default="text",
                       dest="output_format",
                       help="text findings or the shared JSON gate report")
    check.add_argument("--fix-suppressions", action="store_true",
                       help="rewrite source files removing suppression "
                            "comments that suppress nothing")
    check.add_argument("--root", default=None, metavar="DIR",
                       help="project root to lint (default: this checkout)")
    return parser


def _session_from_args(args: argparse.Namespace) -> Session:
    return Session(
        jobs=args.jobs,
        backend=args.backend,
        cache_dir=args.cache_dir,
        seed=args.seed,
        cache_limit=args.cache_limit,
    )


def _emit(rendered: str, args: argparse.Namespace) -> str:
    """Deliver rendered output: to ``--output`` when given, else stdout."""
    output = getattr(args, "output", None)
    if not output:
        return rendered
    try:
        with open(output, "w") as handle:
            handle.write(rendered if rendered.endswith("\n") else rendered + "\n")
    except OSError as error:
        raise SystemExit(f"error: cannot write --output file: {error}")
    return f"wrote {args.output_format} output to {output}"


def _list_scenarios(session: Session) -> str:
    rows = []
    for name in session.scenarios():
        info = session.describe(name)
        rows.append(
            {
                "scenario": name,
                "kind": info["kind"],
                "figure": info["figure"],
                "parameters": ", ".join(info["params"]),
                "description": info["description"],
            }
        )
    return format_table(rows, columns=["scenario", "kind", "figure", "parameters",
                                       "description"])


def _numerics_from_args(args: argparse.Namespace) -> Optional[NumericsPolicy]:
    """`run`'s golden-model policy, or ``None`` when neither flag was given."""
    precision = getattr(args, "golden_precision", None)
    forward_path = getattr(args, "forward_path", None)
    if precision is None and forward_path is None:
        return None
    return NumericsPolicy(
        precision=precision or "fp64", forward_path=forward_path or "dense"
    )


def _print_session_diagnostics(session: Session, args: argparse.Namespace) -> None:
    """`run --verbose`: result-store counters on stderr, one line."""
    if not getattr(args, "verbose", False):
        return
    stats = session.store.stats()
    print(
        "result store: "
        + " ".join(
            f"{key}={stats[key]:.3g}" if key == "hit_rate" else f"{key}={stats[key]}"
            for key in ("hits", "misses", "hit_rate", "entries",
                        "evictions", "disk_evictions")
        ),
        file=sys.stderr,
    )
    if getattr(args, "mode", None) == "functional":
        policy = resolve_numerics(_numerics_from_args(args))
        print(
            f"numerics: policy={policy.key()} precision={policy.precision} "
            f"forward_path={policy.forward_path} reference={policy.is_reference}",
            file=sys.stderr,
        )


def _command_run(args: argparse.Namespace) -> str:
    with _session_from_args(args) as session:
        if args.list_scenarios:
            return _list_scenarios(session)
        if args.scenario is not None:
            try:
                info = session.describe(args.scenario)
            except KeyError as error:
                raise SystemExit(f"error: {error.args[0]}")
            # Forward only flags the user explicitly set, so every scenario
            # keeps its own defaults (e.g. accelerator_comparison's 500
            # timesteps, memory_footprint's batch of 128).
            params = {"seed": args.seed}
            if args.batch is not None and "batch_size" in info["params"]:
                params["batch_size"] = args.batch
            if args.timesteps is not None and "timesteps" in info["params"]:
                params["timesteps"] = args.timesteps
            # Plain-inference flags a scenario cannot consume are called out
            # instead of silently ignored.
            ignored = []
            if args.baseline:
                ignored.append("--baseline")
            if args.precision != "fp16":
                ignored.append("--precision")
            if args.mode != "statistical":
                ignored.append("--mode")
            if args.golden_precision is not None:
                ignored.append("--golden-precision")
            if args.forward_path is not None:
                ignored.append("--forward-path")
            if args.timesteps is not None and "timesteps" not in info["params"]:
                ignored.append("--timesteps")
            if args.batch is not None and "batch_size" not in info["params"]:
                ignored.append("--batch")
            if ignored:
                print(
                    f"warning: {', '.join(ignored)} not supported by scenario "
                    f"{args.scenario!r}; ignored",
                    file=sys.stderr,
                )
            result = session.run(args.scenario, **params)
            _print_session_diagnostics(session, args)
            rendered = export_experiment(
                result, args.output_format,
                title=f"scenario {args.scenario} ({info['figure']})",
            )
            return _emit(rendered, args)

        batch = args.batch if args.batch is not None else 8
        timesteps = args.timesteps if args.timesteps is not None else 1
        precision = Precision.from_name(args.precision)
        factory = baseline_config if args.baseline else spikestream_config
        config = factory(precision, batch_size=batch, timesteps=timesteps, seed=args.seed)
        numerics = _numerics_from_args(args)
        if args.mode == "functional":
            # A real S-VGG11 forward pass supplies the spike activity; the
            # batched functional engine costs it (store-backed, so repeated
            # invocations with --cache-dir skip both forward and model).
            from .session import functional_svgg11_setup

            network, frames = functional_svgg11_setup(batch_size=batch, seed=args.seed)
            result = session.run_functional(
                network, frames, config=config, numerics=numerics
            )
        else:
            if numerics is not None:
                print(
                    "warning: --golden-precision/--forward-path select the "
                    "functional golden model's numerics; ignored in "
                    "statistical mode",
                    file=sys.stderr,
                )
            result = session.run_inference(config, batch_size=batch, seed=args.seed)
        _print_session_diagnostics(session, args)
        variant = "baseline" if args.baseline else "SpikeStream"
        if args.output_format != "table":
            # Machine-readable runs go through the same reporting path as
            # scenarios and sweeps: per-layer rows + numeric network summary.
            table = ExperimentResult(
                name=f"svgg11_{variant.lower()}_{args.mode}_inference",
                figure="run",
                rows=result.per_layer_table(),
                headline={key: value for key, value in result.summary().items()
                          if isinstance(value, (int, float))},
            )
            return _emit(export_experiment(table, args.output_format), args)
        golden = (
            f", golden {resolve_numerics(numerics).key()}"
            if args.mode == "functional" else ""
        )
        lines = [
            f"== S-VGG11 on the Snitch cluster model ({variant}, {args.mode}, "
            f"{precision.value}, batch {batch}, {timesteps} timestep(s)"
            f"{golden}) ==",
            format_table(result.per_layer_table(), columns=[
                "layer", "kernel", "mean_runtime_ms", "mean_fpu_utilization", "mean_ipc",
                "mean_energy_mj", "mean_power_w",
            ]),
            "",
            format_table([result.summary()]),
        ]
        return _emit("\n".join(lines), args)


def _flatten_telemetry(snapshot) -> List[dict]:
    """Nested snapshot -> sorted (metric, value) rows for the text table."""
    rows = []
    for name, value in sorted(snapshot.items()):
        if isinstance(value, dict):
            for key, inner in sorted(value.items()):
                rows.append({"metric": f"{name}.{key}", "value": inner})
        else:
            rows.append({"metric": name, "value": value})
    return rows


def _command_serve(args: argparse.Namespace) -> str:
    import json as json_module

    from .config import spikestream_config as make_config
    from .serve import InferenceServer, LoadGenerator

    session = Session(
        cache_dir=args.cache_dir, seed=args.seed, cache_limit=args.cache_limit
    )
    config = make_config(
        batch_size=args.batch, timesteps=args.timesteps, seed=args.seed
    )
    deadline_s = args.deadline_ms / 1e3 if args.deadline_ms is not None else None
    numerics = NumericsPolicy(
        precision=args.precision, forward_path=args.forward_path
    )
    if args.mode != "functional" and not numerics.is_reference:
        print(
            "warning: --precision/--forward-path shape functional requests "
            "only; the statistical workload ignores them",
            file=sys.stderr,
        )
    tracer = None
    if args.trace_out:
        from .obs import Tracer

        tracer = Tracer(
            enabled=True,
            sample=args.trace_sample,
            capacity=max(args.requests, 256),
            profile_layers=args.profile_layers,
            seed=args.seed,
        )
    elif args.profile_layers:
        print(
            "warning: --profile-layers records into traces; ignored "
            "without --trace-out",
            file=sys.stderr,
        )
    service_kwargs = dict(
        session=session,
        max_batch=args.max_batch,
        max_wait_ms=args.max_wait_ms,
        max_queue=args.queue_depth,
        default_deadline_s=deadline_s,
        default_numerics=numerics,
        tracer=tracer,
    )
    processes = []
    if args.distributed:
        from .net import Coordinator, spawn_worker

        server = Coordinator(**service_kwargs)
        # Under --format json stdout is a machine-parsed document; the
        # workers' exit summaries must not interleave into it.
        processes = [
            spawn_worker(
                server.address,
                quiet=args.output_format == "json",
                credit=args.credit,
            )
            for _ in range(args.workers_remote)
        ]
        if not server.wait_for_workers(args.workers_remote, timeout=60.0):
            for process in processes:
                process.terminate()
            server.close(drain=False)
            session.close()
            raise SystemExit(
                f"error: only {server.live_workers()} of "
                f"{args.workers_remote} worker processes registered"
            )
    else:
        server = InferenceServer(workers=args.workers, **service_kwargs)
    with session, server:
        if args.mode == "functional":
            from .session import functional_svgg11_setup

            network, frames = functional_svgg11_setup(
                batch_size=args.requests * args.batch, seed=args.seed
            )

            def submit(index: int):
                chunk = frames[index * args.batch:(index + 1) * args.batch]
                return server.submit_functional(network, chunk, config=config)

        else:

            def submit(index: int):
                # Distinct seeds keep every request distinct work (no
                # store short-circuit) while staying coalescible.
                return server.submit_statistical(
                    config=config, batch_size=args.batch,
                    seed=args.seed + index, timesteps=args.timesteps,
                )

        generator = LoadGenerator(
            submit, requests=args.requests, arrival_rate_hz=args.arrival_rate
        )
        report = generator.run()
        snapshot = server.stats()
    for process in processes:
        try:
            process.wait(timeout=10.0)
        except Exception:
            process.terminate()
    if args.stats_out:
        try:
            with open(args.stats_out, "w") as handle:
                json_module.dump(snapshot, handle, sort_keys=True, indent=2)
                handle.write("\n")
        except OSError as error:
            raise SystemExit(f"error: cannot write --stats-out file: {error}")
    if args.trace_out:
        from .obs import to_jsonl

        traces = server.tracer.completed()
        try:
            with open(args.trace_out, "w") as handle:
                spans_written = to_jsonl(traces, handle)
        except OSError as error:
            raise SystemExit(f"error: cannot write --trace-out file: {error}")
        print(
            f"traces: {len(traces)} completed, {spans_written} spans "
            f"-> {args.trace_out}",
            file=sys.stderr,
        )
    if args.output_format == "json":
        rendered = json_module.dumps(
            {"load": report.to_dict(), "telemetry": snapshot}, sort_keys=True
        )
        return _emit(rendered, args)
    golden = f", golden {numerics.key()}" if args.mode == "functional" else ""
    fleet = (
        f"workers-remote={args.workers_remote}" if args.distributed
        else f"workers={args.workers}"
    )
    lines = [
        f"== repro.serve demo ({args.mode}, {args.requests} requests x "
        f"{args.batch} frame(s), {fleet}, "
        f"max_batch={args.max_batch}, max_wait={args.max_wait_ms}ms"
        f"{golden}) ==",
        format_table([report.to_dict()]),
        "",
        format_table(_flatten_telemetry(snapshot), columns=["metric", "value"]),
    ]
    return _emit("\n".join(lines), args)


def _command_worker(args: argparse.Namespace) -> str:
    from .net import NetWorker

    host, _, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        raise SystemExit(
            f"error: --connect expects HOST:PORT, got {args.connect!r}"
        )
    worker_kwargs = {}
    if args.credit is not None:
        worker_kwargs["credit"] = args.credit
    worker = NetWorker(
        (host, int(port_text)),
        worker_id=args.worker_id,
        chaos_hang_after=args.chaos_hang_after,
        chaos_exit_after=args.chaos_exit_after,
        **worker_kwargs,
    )
    counters = worker.run()
    detail = ", ".join(f"{key}={value}" for key, value in sorted(counters.items()))
    return f"worker {worker.worker_id or '?'} done: {detail}"


def _load_gate_schema():
    """The shared gate-report schema module (``benchmarks/common.py``).

    The schema has exactly one definition, shared with ``tools/bench_gate.py``
    and ``tools/gate.py``; it is loaded by path because ``benchmarks/`` is a
    scripts directory, not an installed package.
    """
    import importlib.util

    from .lint.engine import REPO_ROOT

    path = REPO_ROOT / "benchmarks" / "common.py"
    if not path.exists():
        raise SystemExit(
            f"error: shared gate schema not found at {path} "
            f"(`repro.cli check` lints a full repository checkout)"
        )
    spec = importlib.util.spec_from_file_location("repro_benchmarks_common", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _command_check(args: argparse.Namespace) -> str:
    from pathlib import Path

    from .lint import RULES, check_project, fix_suppressions
    from .lint.engine import REPO_ROOT

    schema = _load_gate_schema()
    root = Path(args.root) if args.root else REPO_ROOT
    result = check_project(root=root, rule_names=args.rules)
    fixed: List[str] = []
    if args.fix_suppressions and result.unused:
        fixed = [str(path) for path in fix_suppressions(root, result.unused)]
        result = check_project(root=root, rule_names=args.rules)

    checks = []
    by_rule = {}
    for finding in result.findings:
        by_rule.setdefault(finding.rule, []).append(finding)
    for rule_name in result.rules:
        findings = by_rule.get(rule_name, [])
        checks.append(schema.gate_check(
            name=rule_name,
            passed=not findings,
            detail=(f"{len(findings)} finding(s)" if findings
                    else RULES[rule_name].description),
            data={"findings": [finding.to_dict() for finding in findings]},
        ))
    unused_findings = by_rule.get("unused-suppression", [])
    if not args.rules:  # the unused-suppression check only runs on full runs
        checks.append(schema.gate_check(
            name="unused-suppression",
            passed=not unused_findings,
            detail=(f"{len(unused_findings)} stale suppression(s)"
                    if unused_findings else
                    "every `# lint: disable=` comment suppresses something"),
            data={"findings": [finding.to_dict() for finding in unused_findings]},
        ))
    report = schema.gate_report("lint", checks)
    report["summary"]["files"] = result.files
    report["summary"]["suppressed"] = result.suppressed
    if fixed:
        report["summary"]["fixed_files"] = fixed

    if args.output_format == "json":
        import json as json_module

        rendered = json_module.dumps(report, sort_keys=True)
    else:
        lines = [finding.format() for finding in result.findings]
        if fixed:
            lines.append(f"rewrote {len(fixed)} file(s) removing stale suppressions")
        verdict = "passed" if report["passed"] else "FAILED"
        lines.append(
            f"lint {verdict}: {result.files} file(s), "
            f"{len(result.rules)} rule(s), {len(result.findings)} finding(s), "
            f"{result.suppressed} suppressed"
        )
        rendered = "\n".join(lines)
    if report["passed"]:
        return rendered
    print(rendered)
    raise SystemExit(1)


def _command_trace(args: argparse.Namespace) -> str:
    import io
    import json as json_module

    from .obs import read_jsonl, to_chrome, to_jsonl

    try:
        with open(args.input) as handle:
            traces = read_jsonl(handle)
    except OSError as error:
        raise SystemExit(f"error: cannot read --input file: {error}")
    if args.output_format == "chrome":
        rendered = json_module.dumps(to_chrome(traces), sort_keys=True)
    else:
        buffer = io.StringIO()
        to_jsonl(traces, buffer)
        rendered = buffer.getvalue().rstrip("\n")
    return _emit(rendered, args)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _command_run,
        "serve": _command_serve,
        "worker": _command_worker,
        "trace": _command_trace,
        "check": _command_check,
    }
    output = handlers[args.command](args)
    print(output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
