"""The ``repro`` command-line interface.

The subcommands map the whole evaluation section onto the façade:

* ``repro list`` -- registered experiments, workloads and config presets;
* ``repro run fig7 --models resnet18 vgg19 --json out.json`` -- run one
  experiment and print its table (optionally dumping the typed result);
  ``repro run program --engine trace`` compiles whole-model programs and
  replays them on the trace simulator, cross-checked against the
  analytical model;
* ``repro sweep --experiments fig7 --transport process --shards 4
  --cache-dir .cache`` -- fan a grid out over the sharded sweep service
  (thread/process/serial local transports plus the distributed ``broker``
  fabric via ``--transport broker --sweep-dir``; on-disk packed result
  store); re-invoking an interrupted sweep on the same ``--cache-dir``
  restores every point its finished shards stored and computes only the
  rest;
* ``repro worker SWEEP_DIR`` -- attach a stateless worker process to a
  broker-transport sweep: lease cold shards, execute them, stream the
  results back as result fragments; start any number, kill any of them
  mid-shard, and the coordinator's lease-and-requeue recovery still
  reproduces the serial result byte-for-byte.

Unknown experiment/workload/preset/transport names exit with code 2 and a
"did you mean" suggestion from the registry instead of a traceback.

Installed as a console script via the packaging metadata; also runnable as
``python -m repro.api.cli``.
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Sequence, TextIO

from ..dist import TRANSPORTS, transport_names
from ..sim.cycle_model import DEFAULT_ENGINE, ENGINES
from ..sim.engines import ENGINE_SPECS, get_engine
from .configs import list_configs
from .experiment import (
    EXPERIMENTS,
    Experiment,
    get_experiment_spec,
    list_experiments,
)
from .formatting import format_result, format_sweep
from .sweep import DEFAULT_TRANSPORT, run_sweep

__all__ = ["CLIError", "TRACE_ENGINE", "build_parser", "main"]

#: Pseudo-engine accepted by ``repro run program``: the experiment replays
#: the compiled program on the trace simulator (its analytical comparison
#: columns use the default cycle-model engine).
TRACE_ENGINE = "trace"


class CLIError(Exception):
    """A user-input problem (unknown experiment/workload/preset, bad flag
    combination).  Only these are reported as one-line ``repro: error``
    messages; genuine internal failures keep their tracebacks."""


def _validate(call, *args, **kwargs):
    """Run a *validation* callable, converting its expected rejection
    exceptions into :class:`CLIError`."""
    try:
        return call(*args, **kwargs)
    except (KeyError, ValueError, TypeError) as error:
        message = error.args[0] if error.args else str(error)
        raise CLIError(message) from error


def _check_name(kind: str, name: str, candidates: Iterable[str]) -> None:
    """Reject an unknown registry name with a "did you mean" hint.

    Exits through :class:`CLIError` (process code 2) instead of letting a
    raw ``KeyError`` traceback escape; close registry entries are suggested
    and the full candidate list is printed.
    """
    choices = list(candidates)
    if name in choices:
        return
    close = difflib.get_close_matches(name, choices, n=3, cutoff=0.5)
    hint = f" -- did you mean: {', '.join(close)}?" if close else ""
    raise CLIError(
        f"unknown {kind} {name!r}{hint} (available: {', '.join(choices)})"
    )


def _check_experiment(name: str) -> None:
    """Validate an experiment id (case-insensitive, with suggestions)."""
    _check_name("experiment", name.lower(), EXPERIMENTS)


def _check_workloads(models: Optional[Sequence[str]]) -> None:
    """Validate workload names (case-insensitive, with suggestions)."""
    if models is None:
        return
    from ..workloads.models import list_workloads

    known = list_workloads(family=None)
    for model in models:
        _check_name("workload", str(model).lower(), known)


def _check_configs(configs: Optional[Sequence[str]]) -> None:
    """Validate config preset names (with suggestions)."""
    if configs is None:
        return
    for config in configs:
        _check_name("config preset", config, list_configs())


def _check_engine(engine: str, cycle_model_only: bool = False) -> None:
    """Validate an engine name against the engine table (with suggestions).

    Args:
        engine: the requested engine name.
        cycle_model_only: restrict the candidates to cycle-model-capable
            engines (the sweep grid cannot run the trace simulator).
    """
    candidates = (
        ENGINES if cycle_model_only else [spec.name for spec in ENGINE_SPECS]
    )
    _check_name("engine", engine, candidates)


def build_parser() -> argparse.ArgumentParser:
    """Build the ``repro`` argument parser (``list`` / ``run`` / ``sweep`` /
    ``serve``)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the DB-PIM (DAC 2024) evaluation: every paper "
            "table/figure behind one uniform interface."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list experiments, workloads and config presets"
    )
    list_parser.add_argument(
        "--json", action="store_true", help="emit the listing as JSON"
    )

    run_parser = subparsers.add_parser(
        "run", help="run one experiment and print its table"
    )
    run_parser.add_argument(
        "experiment",
        help="experiment id (fig2a, fig2b, fig7, table1..table4, program, "
        "graph)",
    )
    run_parser.add_argument(
        "--models", "--workload", "--workloads", nargs="+", default=None,
        dest="models", metavar="MODEL",
        help="workloads to run (default: all five paper models; transformer "
        "workloads such as vit_tiny by explicit name -- see 'repro list')",
    )
    run_parser.add_argument(
        "--config", default=None, metavar="PRESET",
        help="config preset name (default: paper-28nm)",
    )
    run_parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    run_parser.add_argument(
        "--engine", default=DEFAULT_ENGINE, metavar="ENGINE",
        help="engine (see 'repro list'): vectorized NumPy batch "
        "kernel or the scalar per-layer reference (identical numbers); "
        "'trace' replays the compiled whole-model program and is only "
        "valid for the 'program' experiment. Unknown names exit 2 with a "
        "suggestion from the engine table",
    )
    run_parser.add_argument(
        "--epochs", type=int, default=None,
        help="pre-training epochs (table2 only)",
    )
    run_parser.add_argument(
        "--qat-epochs", type=int, default=None,
        help="FTA-aware QAT fine-tuning epochs (table2 only)",
    )
    run_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the typed result as JSON ('-' for stdout, which "
        "then carries only the JSON; the table goes to stderr)",
    )
    run_parser.add_argument(
        "--quiet", action="store_true", help="suppress the formatted table"
    )

    sweep_parser = subparsers.add_parser(
        "sweep", help="run a grid of experiments in parallel, with caching"
    )
    sweep_parser.add_argument(
        "--experiments", nargs="+", default=None, metavar="ID",
        help="experiment ids (default: every non-training experiment)",
    )
    sweep_parser.add_argument(
        "--models", nargs="+", default=None, metavar="MODEL",
        help="workloads for the model-parameterised experiments",
    )
    sweep_parser.add_argument(
        "--configs", nargs="+", default=["paper-28nm"], metavar="PRESET",
        help="config preset names",
    )
    sweep_parser.add_argument(
        "--seeds", nargs="+", type=int, default=[0], metavar="SEED",
        help="RNG seeds",
    )
    sweep_parser.add_argument(
        "--engine", default=DEFAULT_ENGINE, metavar="ENGINE",
        help="cycle-model engine for every grid point (part of "
        "the cache key); unknown names exit 2 with a suggestion from the "
        "engine table",
    )
    sweep_parser.add_argument(
        "--max-workers", type=int, default=None,
        help="worker threads/processes (default: one per shard, capped at CPUs)",
    )
    sweep_parser.add_argument(
        "--transport", default=None, metavar="NAME",
        help="shard transport executing the sweep (default: "
        f"{DEFAULT_TRANSPORT}): 'process' for cold CPU-bound grids "
        "(bypasses the GIL), 'thread' for warm-cache/I/O-bound re-runs, "
        "'serial' for debugging, 'broker' to coordinate 'repro worker' "
        "processes over --sweep-dir; every transport produces identical "
        "results. Unknown names exit 2 with a suggestion from the "
        "transport table",
    )
    sweep_parser.add_argument(
        "--sweep-dir", default=None, metavar="DIR",
        help="shared coordination directory of a distributed transport "
        "(required by --transport broker; attach workers with "
        "'repro worker DIR')",
    )
    sweep_parser.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="target shard count (default: twice the worker count)",
    )
    sweep_parser.add_argument(
        "--journal", default=None, metavar="DIR",
        help="result store directory when --cache-dir is not given (a "
        "sweep resumes from its store; ignored with --cache-dir)",
    )
    sweep_parser.add_argument(
        "--resume", action="store_true",
        help="accepted for compatibility: every sweep with a store "
        "restores its finished points (the completed results are "
        "identical to an uninterrupted run); needs --cache-dir or "
        "--journal",
    )
    sweep_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="on-disk result store directory (one append-only pack.data); "
        "re-running an interrupted sweep on it computes only the points "
        "it does not hold",
    )
    sweep_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the sweep result as JSON ('-' for stdout, which "
        "then carries only the JSON; the tables go to stderr)",
    )
    sweep_parser.add_argument(
        "--quiet", action="store_true", help="suppress the formatted tables"
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help="start the long-lived HTTP experiment daemon (repro.serve)",
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="interface to bind"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8642,
        help="TCP port (0 picks a free port and prints it)",
    )
    serve_parser.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help="admission bound: queued requests beyond this are rejected "
        "with 503",
    )
    serve_parser.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="default per-request deadline",
    )
    serve_parser.add_argument(
        "--hot-cache-size", type=int, default=256, metavar="N",
        help="in-memory result cache capacity (0 disables)",
    )
    serve_parser.add_argument(
        "--hot-cache-ttl", type=float, default=300.0, metavar="SECONDS",
        help="in-memory result cache TTL (0 disables expiry)",
    )
    serve_parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="on-disk result store shared with 'repro sweep' (the "
        "hot-cache miss path reads it in batch)",
    )
    serve_parser.add_argument(
        "--allow-heavy", action="store_true",
        help="admit training experiments (table2; minutes-scale runs)",
    )

    worker_parser = subparsers.add_parser(
        "worker",
        help="attach a sweep worker to a broker-transport sweep directory",
    )
    worker_parser.add_argument(
        "sweep_dir", metavar="SWEEP_DIR",
        help="shared sweep directory published by 'repro sweep --transport "
        "broker --sweep-dir SWEEP_DIR' (workers may be started first; they "
        "wait for the manifest)",
    )
    worker_parser.add_argument(
        "--worker-id", default=None, metavar="ID",
        help="identifier recorded in leases and result fragments "
        "(default: worker-<host>-<pid>)",
    )
    worker_parser.add_argument(
        "--heartbeat", type=float, default=2.0, metavar="SECONDS",
        help="lease heartbeat period while executing a shard; keep it "
        "well under the coordinator's lease TTL",
    )
    worker_parser.add_argument(
        "--attach-timeout", type=float, default=30.0, metavar="SECONDS",
        help="how long to wait for the sweep manifest to appear",
    )
    worker_parser.add_argument(
        "--max-shards", type=int, default=None, metavar="N",
        help="exit after executing N shards (default: run until the sweep "
        "completes)",
    )
    worker_parser.add_argument(
        "--quiet", action="store_true",
        help="suppress the per-shard progress lines",
    )
    return parser


def _human_stream(json_destination: Optional[str]) -> TextIO:
    """Where the formatted tables go: stderr when the JSON takes stdout,
    so ``--json -`` prints nothing but JSON."""
    return sys.stderr if json_destination == "-" else sys.stdout


def _emit_json(payload: str, destination: str) -> None:
    if destination == "-":
        print(payload)
    else:
        with open(destination, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")


def _workload_entries() -> list:
    """One descriptor per registered workload, graph structure included."""
    from ..workloads.models import get_workload, list_workloads, workload_family

    entries = []
    for name in list_workloads(family=None):
        workload = get_workload(name)
        graph = workload.graph
        entries.append(
            {
                "name": name,
                "family": workload_family(name),
                "layers": len(workload.layers),
                "graph_nodes": len(graph) if graph is not None else None,
                "joins": len(graph.join_nodes()) if graph is not None else 0,
            }
        )
    return entries


def _command_list(args: argparse.Namespace) -> int:
    specs = list_experiments()
    workloads = _workload_entries()
    if args.json:
        payload: Dict[str, Any] = {
            "experiments": [
                {
                    "id": spec.id,
                    "reference": spec.reference,
                    "title": spec.title,
                    "takes_models": spec.takes_models,
                    "heavy": spec.heavy,
                }
                for spec in specs
            ],
            "workloads": [entry["name"] for entry in workloads],
            "graphs": workloads,
            "configs": list_configs(),
            "engines": [
                {
                    "name": engine.name,
                    "title": engine.title,
                    "cycle_model": engine.cycle_model,
                    "trace_class": engine.trace_class,
                }
                for engine in ENGINE_SPECS
            ],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print("experiments:")
    for spec in specs:
        flags = " (trains networks)" if spec.heavy else ""
        print(f"  {spec.id:<8} {spec.reference:<10} {spec.title}{flags}")
    print("workloads:")
    for entry in workloads:
        structure = (
            f"{entry['graph_nodes']} nodes, {entry['layers']} layers, "
            f"{entry['joins']} joins"
            if entry["graph_nodes"] is not None
            else f"{entry['layers']} layers (linear)"
        )
        print(f"  {entry['name']:<18} {entry['family']:<12} {structure}")
    print("engines:")
    for engine in ENGINE_SPECS:
        kind = "cycle-model" if engine.cycle_model else "program-trace"
        print(f"  {engine.name:<12} {kind:<13} {engine.title}")
    print(f"configs:   {' '.join(list_configs())}")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    _check_experiment(args.experiment)
    spec = get_experiment_spec(args.experiment)
    if args.config is not None:
        _check_configs([args.config])
    params: Dict[str, Any] = {}
    if args.models is not None:
        if not spec.takes_models:
            raise CLIError(f"experiment {spec.id!r} does not take --models")
        _check_workloads(args.models)
        params["models"] = args.models
    for name, value in (("epochs", args.epochs), ("qat_epochs", args.qat_epochs)):
        if value is not None:
            if name not in spec.default_params:
                raise CLIError(
                    f"experiment {spec.id!r} does not take --{name.replace('_', '-')}"
                )
            params[name] = value
    engine = args.engine
    _check_engine(engine)
    if not get_engine(engine).cycle_model:
        if spec.id != "program":
            raise CLIError(
                f"--engine {engine} replays the compiled program and is "
                "only valid for the 'program' experiment"
            )
        # The program experiment always runs the trace simulator; its
        # analytical comparison columns use the default cycle-model engine.
        engine = DEFAULT_ENGINE
    session = _validate(
        Experiment, config=args.config, seed=args.seed, engine=engine
    )
    if "models" in params:
        params["models"] = _validate(session._resolve_models, params["models"])
    result = session.run(spec.id, **params)
    if not args.quiet:
        human = _human_stream(args.json)
        print(f"=== {spec.reference}: {spec.title} ===", file=human)
        print(format_result(result), file=human)
    if args.json is not None:
        _emit_json(result.to_json(), args.json)
    return 0


def _check_transport(name: str) -> None:
    """Validate a transport name against the transport table (with
    suggestions)."""
    _check_name("transport", name, transport_names())


def _command_sweep(args: argparse.Namespace) -> int:
    # Validate every grid axis eagerly, before any worker starts.
    if args.experiments is not None:
        for experiment in args.experiments:
            _check_experiment(experiment)
    _check_configs(args.configs)
    _check_workloads(args.models)
    _check_engine(args.engine, cycle_model_only=True)
    if args.transport is not None:
        _check_transport(args.transport)
    transport = args.transport
    if transport is not None and TRANSPORTS[transport].distributed:
        if args.sweep_dir is None:
            raise CLIError(
                f"--transport {transport} is distributed and needs "
                "--sweep-dir DIR (the directory 'repro worker' attaches to)"
            )
    elif args.sweep_dir is not None:
        raise CLIError(
            "--sweep-dir only applies to a distributed transport "
            "(e.g. --transport broker)"
        )
    if args.resume and args.cache_dir is None and args.journal is None:
        raise CLIError("--resume requires --cache-dir DIR or --journal DIR")
    if args.shards is not None and args.shards <= 0:
        raise CLIError("--shards must be positive")
    if args.max_workers is not None and args.max_workers <= 0:
        raise CLIError("--max-workers must be positive")
    if args.cache_dir is None and args.journal is not None:
        if Path(args.journal).is_file():
            raise CLIError(
                f"--journal {args.journal} is a file (an old JSONL run "
                "journal?): --journal now names a packed result store "
                "directory"
            )
    sweep = run_sweep(
        experiments=args.experiments,
        models=args.models,
        configs=args.configs,
        seeds=args.seeds,
        max_workers=args.max_workers,
        cache_dir=args.cache_dir,
        engine=args.engine,
        shards=args.shards,
        journal=args.journal,
        resume=args.resume,
        transport=transport,
        sweep_dir=args.sweep_dir,
    )
    if not args.quiet:
        print(format_sweep(sweep), file=_human_stream(args.json))
    if args.json is not None:
        _emit_json(sweep.to_json(), args.json)
    return 0


def _command_worker(args: argparse.Namespace) -> int:
    # Imported lazily: the one-shot commands never need the worker loop.
    from ..dist.broker import SweepManifestError
    from ..dist.worker import WorkerConfig, run_worker

    if args.heartbeat <= 0:
        raise CLIError("--heartbeat must be positive")
    if args.attach_timeout < 0:
        raise CLIError("--attach-timeout must be >= 0")
    if args.max_shards is not None and args.max_shards <= 0:
        raise CLIError("--max-shards must be positive")

    def _report(shard: Any, outcomes: Any) -> None:
        print(
            f"repro worker: shard {shard.index} done "
            f"({len(outcomes)} points)",
            flush=True,
        )

    config = WorkerConfig(
        sweep_dir=args.sweep_dir,
        heartbeat_s=args.heartbeat,
        attach_timeout_s=args.attach_timeout,
        max_shards=args.max_shards,
        on_shard=None if args.quiet else _report,
    )
    if args.worker_id is not None:
        config.worker_id = args.worker_id
    try:
        executed = run_worker(config)
    except SweepManifestError as error:
        raise CLIError(str(error)) from error
    if not args.quiet:
        print(f"repro worker: executed {executed} shards", flush=True)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    # Imported lazily: the daemon pulls in http/threading plumbing that the
    # one-shot commands never need.
    import signal
    import threading

    from ..serve.http import make_server
    from ..serve.service import ServeConfig

    if args.max_queue <= 0:
        raise CLIError("--max-queue must be positive")
    if args.timeout <= 0:
        raise CLIError("--timeout must be positive")
    if args.hot_cache_size < 0:
        raise CLIError("--hot-cache-size must be >= 0")
    config = ServeConfig(
        max_queue=args.max_queue,
        default_timeout_s=args.timeout,
        hot_cache_size=args.hot_cache_size,
        hot_cache_ttl_s=args.hot_cache_ttl if args.hot_cache_ttl > 0 else None,
        cache_dir=args.cache_dir,
        allow_heavy=args.allow_heavy,
    )
    server = make_server(host=args.host, port=args.port, config=config)
    stopping = threading.Event()

    def _stop(signum: int, frame: Any) -> None:
        # shutdown() blocks until serve_forever() returns, so it must run
        # off the serving thread; the first signal wins.
        if not stopping.is_set():
            stopping.set()
            threading.Thread(
                target=server.shutdown, name="repro-serve-shutdown"
            ).start()

    previous = {
        signum: signal.signal(signum, _stop)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    print(f"repro serve: listening on {server.url}", flush=True)
    try:
        server.serve_forever()
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.server_close()
    print("repro serve: drained and stopped", flush=True)
    return 0


_COMMANDS = {
    "list": _command_list,
    "run": _command_run,
    "sweep": _command_sweep,
    "serve": _command_serve,
    "worker": _command_worker,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CLIError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
