"""Every name the benchmark tracer patches must exist in the program.

``perfbench/tracer.py`` replaces each :data:`PROBES` entry at install time
and crashes on a missing one, so renaming or unbinding a probed function
(for example a name :mod:`repro.workloads.profiles` no longer calls but
still binds) would otherwise fail only in a traced benchmark run.  The
tracer is loaded from its file and never installed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_probes():
    name = "_perfbench_tracer_under_test"
    spec = importlib.util.spec_from_file_location(name, TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module.PROBES


PROBES = _load_probes()


def test_tracer_declares_probes():
    assert len(PROBES) > 20


@pytest.mark.parametrize(
    "probe",
    PROBES,
    ids=[f"{p.module}:{p.owner or ''}.{p.attr}" for p in PROBES],
)
def test_probe_resolves(probe):
    module = importlib.import_module(probe.module)
    if probe.owner:
        owner = getattr(module, probe.owner)
        target = owner.__dict__[probe.attr]  # what Tracer.install reads
    else:
        target = getattr(module, probe.attr)
    assert callable(target) or isinstance(target, (staticmethod, classmethod))
