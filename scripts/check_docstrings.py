"""Fail if any public API of ``repro.api`` / ``repro.sim`` /
``repro.compiler`` / ``repro.workloads`` / ``repro.serve`` /
``repro.store`` / ``repro.dist`` lacks a docstring.

Run as part of the ``docs`` CI job (and locally before sending a PR):

    PYTHONPATH=src python scripts/check_docstrings.py

Walks every public module, class, function, method and property of the two
documented packages and reports each member whose docstring is missing or
empty.  Exits non-zero when anything is undocumented, so the generated API
reference can never silently grow blank entries.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys
from typing import Iterator, List, Tuple

PACKAGES = (
    "repro.api",
    "repro.sim",
    "repro.sim.engines",
    "repro.compiler",
    "repro.workloads",
    "repro.serve",
    "repro.store",
    "repro.dist",
)

#: Public symbols that must exist *and* be documented -- the load-bearing
#: surface of the sweep service and the vectorized batch kernel.  Walking
#: the packages above already checks whatever exists; this list turns a
#: silent rename/removal of a contracted entry point into a CI failure.
REQUIRED_SYMBOLS = (
    "repro.api.sweep.ShardPlanner",
    "repro.api.sweep.ShardPlan",
    "repro.api.sweep.SweepShard",
    "repro.api.sweep.SweepJournal",
    "repro.api.sweep.SweepPointError",
    "repro.api.sweep.run_shard",
    "repro.api.sweep.run_sweep",
    "repro.api.results.SweepStats",
    "repro.api.experiment.Experiment.run_sweep",
    "repro.sim.vectorized.simulate_jobs",
    "repro.sim.vectorized.profile_arrays",
    "repro.api.sweep.SweepJournalLockedError",
    "repro.api.sweep.SweepJournal.acquire",
    "repro.api.sweep.SweepJournal.release",
    "repro.serve.service.ExperimentService",
    "repro.serve.service.ExperimentService.start",
    "repro.serve.service.ExperimentService.close",
    "repro.serve.service.ExperimentService.submit",
    "repro.serve.service.ExperimentService.submit_sweep",
    "repro.serve.service.ExperimentService.snapshot",
    "repro.serve.service.ServeConfig",
    "repro.serve.service.RunRequest",
    "repro.serve.service.RunOutcome",
    "repro.serve.cache.HotResultCache",
    "repro.serve.metrics.MetricsRegistry",
    "repro.serve.http.make_server",
    "repro.serve.http.ServeHTTPServer",
    "repro.sim.engines.EngineSpec",
    "repro.sim.engines.EngineOutcome",
    "repro.sim.engines.ENGINE_SPECS",
    "repro.sim.engines.ENGINES",
    "repro.sim.engines.get_engine",
    "repro.sim.engines.resolve_cycle_model_engine",
    "repro.sim.cycle_model.ENGINES",
    "repro.sim.vectorized.simulate_grid",
    "repro.sim.vectorized.config_knobs",
    "repro.sim.engines.conformance.assert_conformance",
    "repro.sim.engines.conformance.conformance_mismatches",
    "repro.sim.engines.conformance.verify_engine",
    "repro.sim.engines.conformance.ConformanceError",
    "repro.core.fta.layer_statistics",
    "repro.core.fta.FTAStatistics",
    "repro.workloads.fuzz.fuzz_graph",
    "repro.workloads.fuzz.fuzz_workload",
    "repro.workloads.fuzz.fuzz_corpus",
    "repro.workloads.fuzz.graph_fingerprint",
    "repro.store.PackedResultStore",
    "repro.store.PackedResultStore.probe",
    "repro.store.PackedResultStore.locate",
    "repro.store.PackedResultStore.get_many",
    "repro.store.PackedResultStore.append_many",
    "repro.store.PackedResultStore.ingest_files",
    "repro.store.PackedStoreError",
    "repro.store.PackedStoreLockedError",
    "repro.store.migrate_files_to_packed",
    "repro.store.ResultStore",
    "repro.store.open_store",
    "repro.api.execution.SessionPool",
    "repro.api.execution.Execution",
    "repro.api.execution.execute_points",
    "repro.api.execution.append_results",
    "repro.api.execution.merge_key",
    "repro.api.sweep.cache_keys_for_grid",
    "repro.api.sweep.SweepPoint.cache_key",
    "repro.api.sweep.DEFAULT_TRANSPORT",
    "repro.dist.locks.PidFileLock",
    "repro.dist.locks.PidFileLock.acquire",
    "repro.dist.locks.PidFileLock.release",
    "repro.dist.locks.PidFileLockError",
    "repro.dist.locks.pid_alive",
    "repro.dist.transport.ShardTransport",
    "repro.dist.transport.ShardTransport.run",
    "repro.dist.transport.TransportError",
    "repro.dist.transport.WorkerLostError",
    "repro.dist.transport.SerialTransport",
    "repro.dist.transport.ThreadTransport",
    "repro.dist.transport.ProcessTransport",
    "repro.dist.TRANSPORTS",
    "repro.dist.transport_names",
    "repro.dist.transport_class",
    "repro.dist.broker.DirectoryBroker",
    "repro.dist.broker.BrokerTransport",
    "repro.dist.broker.SweepManifestError",
    "repro.dist.worker.WorkerConfig",
    "repro.dist.worker.run_worker",
)


def _iter_modules(package_name: str) -> Iterator[object]:
    package = importlib.import_module(package_name)
    yield package
    for info in pkgutil.iter_modules(package.__path__, prefix=f"{package_name}."):
        if info.name.rsplit(".", 1)[-1].startswith("_"):
            continue
        yield importlib.import_module(info.name)


def _public_members(owner: object) -> Iterator[Tuple[str, object]]:
    for name, member in vars(owner).items():
        if not name.startswith("_"):
            yield name, member


def _missing_in_class(cls: type, prefix: str) -> Iterator[str]:
    for name, member in _public_members(cls):
        qualified = f"{prefix}.{name}"
        if isinstance(member, property):
            if not (member.fget and inspect.getdoc(member.fget)):
                yield qualified
        elif inspect.isfunction(member) or isinstance(
            member, (classmethod, staticmethod)
        ):
            func = member.__func__ if not inspect.isfunction(member) else member
            if not inspect.getdoc(func):
                yield qualified


def find_missing() -> List[str]:
    """Qualified names of all undocumented public members."""
    missing: List[str] = []
    for package_name in PACKAGES:
        for module in _iter_modules(package_name):
            if not inspect.getdoc(module):
                missing.append(module.__name__)
            for name, member in _public_members(module):
                if getattr(member, "__module__", None) != module.__name__:
                    continue  # re-exports are documented at their origin
                qualified = f"{module.__name__}.{name}"
                if inspect.isclass(member):
                    if not inspect.getdoc(member):
                        missing.append(qualified)
                    missing.extend(_missing_in_class(member, qualified))
                elif inspect.isfunction(member):
                    if not inspect.getdoc(member):
                        missing.append(qualified)
    return missing


def _resolve(qualified: str):
    """Import the longest module prefix of ``qualified``, then getattr the
    rest.  Returns the member, or ``None`` when anything is missing."""
    parts = qualified.split(".")
    for split in range(len(parts), 0, -1):
        try:
            member = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:]:
            member = getattr(member, name, None)
            if member is None:
                return None
        return member
    return None


def check_required() -> List[str]:
    """Required symbols that are absent or undocumented (see
    :data:`REQUIRED_SYMBOLS`)."""
    problems: List[str] = []
    for qualified in REQUIRED_SYMBOLS:
        member = _resolve(qualified)
        if member is None:
            problems.append(f"{qualified} (missing)")
        elif not isinstance(
            member, (int, float, str, tuple, frozenset)
        ) and not inspect.getdoc(member):
            # Plain data constants carry their docs in module comments;
            # everything callable/classy must have a docstring.
            problems.append(f"{qualified} (undocumented)")
    return problems


def main() -> int:
    """Entry point; prints offenders and returns the exit code."""
    missing = find_missing() + check_required()
    if missing:
        print("undocumented public members:")
        for name in sorted(set(missing)):
            print(f"  {name}")
        return 1
    count = sum(1 for pkg in PACKAGES for _ in _iter_modules(pkg))
    print(f"docstring check OK ({count} modules across {', '.join(PACKAGES)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
