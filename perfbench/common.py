"""Shared helpers: checkout paths, result digests, statistics, stamps."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Run outputs (reports, spans, scratch stores); listed in ``.gitignore``.
OUT = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

PAPER_MODELS = ("alexnet", "vgg19", "resnet18", "mobilenetv2", "efficientnetb0")
PRESETS = (
    "paper-28nm",
    "dense-baseline",
    "weight-sparsity-only",
    "input-sparsity-only",
    "paper-28nm-8macro",
)

#: Fig. 7 hybrid numbers the paper states (speedup x, energy saving %).
PAPER_SPEEDUP = {
    "alexnet": 7.69,
    "vgg19": 6.10,
    "mobilenetv2": 3.90,
    "efficientnetb0": 3.55,
}
PAPER_ENERGY_SAVING = {
    "alexnet": 83.43,
    "vgg19": 79.25,
    "resnet18": 76.96,
    "mobilenetv2": 65.54,
    "efficientnetb0": 63.49,
}


#: A traced run fails when its top-level spans cover less of its wall time
#: than this ("the stages add up").
COVERAGE_FLOOR = 0.95


@dataclass
class Outcome:
    """What one workload run measured."""

    attempted: int = 0
    failed: int = 0
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    spans: List[Tuple] = field(default_factory=list)
    #: ``perf_counter`` reading the written span times are relative to.
    origin: float = 0.0
    #: Timed samples (seconds) for the report: repetitions or requests.
    samples: List[float] = field(default_factory=list)


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def child_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def use_checkout_sources() -> None:
    """Import ``repro`` from the checkout; exit 2 when it is not there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro package under {SRC}; run from a checkout",
            file=sys.stderr,
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def digest(payload: Mapping[str, Any]) -> str:
    """Short content digest of one result dict (its canonical JSON)."""
    canonical = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()[:12]


def identity(payload: Mapping[str, Any]) -> str:
    """``experiment|config|models`` of one result dict (seed kept apart)."""
    models = payload.get("params", {}).get("models") or ()
    return f"{payload['experiment']}|{payload['config']}|{','.join(models)}"


def load_digests(workload: str) -> Dict[str, str]:
    """Committed digest strings of ``workload``, keyed by experiment seed."""
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)[workload]


def expected_digests(
    committed: Mapping[str, str], seed: int, identities: Sequence[str]
) -> Optional[Dict[str, str]]:
    """``{identity: digest}`` for one seed, or ``None`` when not shipped.

    A seed's committed string is its points' 12-hex digests concatenated
    in sorted identity order.
    """
    packed = committed.get(str(seed))
    if packed is None:
        return None
    ordered = sorted(identities)
    if len(packed) != 12 * len(ordered):
        return None
    return {ident: packed[12 * i : 12 * i + 12] for i, ident in enumerate(ordered)}


def pack_digests(payloads: Iterable[Mapping[str, Any]]) -> str:
    """The committed form of one seed's result dicts (see above)."""
    pairs = sorted((identity(p), digest(p)) for p in payloads)
    return "".join(d for _, d in pairs)


def count_failures(
    payloads: Iterable[Mapping[str, Any]],
    expected: Mapping[int, Optional[Mapping[str, str]]],
) -> int:
    """Points that are wrong, unexpected, duplicated or missing.

    ``expected`` maps each experiment seed to its ``{identity: digest}``;
    a seed without shipped digests fails every one of its points.
    """
    seen: Dict[Tuple[int, str], int] = {}
    failed = 0
    for payload in payloads:
        seed = int(payload.get("seed", -1))
        ident = identity(payload)
        seen[(seed, ident)] = seen.get((seed, ident), 0) + 1
        table = expected.get(seed)
        if table is None or table.get(ident) != digest(payload):
            failed += 1
    for seed, table in expected.items():
        for ident in table or ():
            count = seen.get((seed, ident), 0)
            if count != 1:
                failed += 1 if count == 0 else count - 1
    return failed


def fig7_gaps(payloads: Iterable[Mapping[str, Any]]) -> Tuple[float, float]:
    """Mean |reproduced - paper| / paper (in %) of the Fig. 7 hybrid
    speedups and energy savings on ``paper-28nm``.

    A model missing from ``payloads`` (its run failed) counts as a 100%
    gap, so a broken run never looks closer to the paper.
    """
    rows: Dict[str, Mapping[str, Any]] = {}
    for payload in payloads:
        if payload["experiment"] == "fig7" and payload["config"] == "paper-28nm":
            for row in payload["rows"]:
                rows[row["model"]] = row

    def gap(paper: Mapping[str, float], reproduced: Any) -> float:
        return 100.0 * statistics.mean(
            abs(reproduced(rows[m]) - v) / v if m in rows else 1.0
            for m, v in paper.items()
        )

    return (
        gap(PAPER_SPEEDUP, lambda row: row["speedup"]["hybrid"]),
        gap(PAPER_ENERGY_SAVING, lambda row: 100.0 * row["energy_saving"]["hybrid"]),
    )


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in 0..1)."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


def tail(samples: Sequence[float]) -> float:
    """The highest percentile, up to p99, with ten samples beyond it (the
    slowest sample when there are fewer than twenty)."""
    if len(samples) < 20:
        return max(samples)
    return percentile(samples, min(0.99, 1.0 - 10.0 / len(samples)))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_child(argv: Sequence[str], timeout: float = 120.0) -> Tuple[float, str]:
    """Wall time and stdout of one child interpreter run to completion.

    Raises:
        RuntimeError: the child exited non-zero.
    """
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(
            f"child {argv} exited {done.returncode}: {done.stderr[-400:]}"
        )
    return elapsed, done.stdout


def git_sha() -> str:
    """The checkout's commit, or ``"unknown"`` outside a git work tree."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def stamp(workload: str, seed: int, seconds: int, trace: bool,
          connections: int) -> Dict[str, Any]:
    """Provenance of one report."""
    import repro

    return {
        "git_sha": git_sha(),
        "package_version": repro.__version__,
        "python": platform.python_version(),
        "nproc": usable_cores(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "workload": workload,
        "workload_seed": seed,
        "seconds": seconds,
        "trace": trace,
        "connections": connections,
    }
