"""The metadata stamp at the top of every ``BENCH_*.json`` report.

One helper for the four ``bench_*.py`` scripts, so every committed
snapshot names the code and the machine it measured: package version, git
commit (``-dirty`` when the tree had uncommitted changes; ``null`` when
git or the repository is unavailable), Python version and CPU count.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, Optional

from repro import __version__


def git_sha() -> Optional[str]:
    """The checked-out commit (``<sha>`` or ``<sha>-dirty``), or ``None``."""
    try:
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return described.stdout.strip() or None


def bench_metadata() -> Dict[str, object]:
    """The shared ``version`` / ``git_sha`` / ``python`` / ``cpu_count``
    fields of a benchmark report."""
    return {
        "version": __version__,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }
