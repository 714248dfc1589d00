"""DB-PIM reproduction library.

Reproduction of "Towards Efficient SRAM-PIM Architecture Design by
Exploiting Unstructured Bit-Level Sparsity" (DAC 2024): the FTA algorithm
and dyadic-block sparsity pattern (``repro.core``), a numpy NN substrate for
the accuracy experiments (``repro.nn``), functional and analytical models of
the DB-PIM architecture (``repro.arch``), the offline compiler
(``repro.compiler``), workload descriptors and sparsity profiles
(``repro.workloads``) and the cycle-level performance simulator
(``repro.sim``).

The canonical entry point is the :mod:`repro.api` façade: a config registry
of named frozen presets, the :class:`~repro.api.Experiment` /
:class:`~repro.api.Session` object with uniform methods over the whole
stack, a typed JSON-round-trippable result schema
(:class:`~repro.api.ExperimentResult`, :class:`~repro.api.SweepResult`), a
sharded sweep service (:func:`~repro.api.run_sweep`: cache-state shard
planning, serial/thread/process/broker shard transports and an on-disk
result store that interrupted sweeps resume from) and the ``repro``
console script;
every table and figure of the paper is one ``Experiment.run`` experiment
id.  Future scaling work (batching, async serving, multi-backend dispatch)
should build on :mod:`repro.api` rather than adding new bespoke entry
points.

Quickstart::

    from repro import Experiment

    session = Experiment(config="paper-28nm", seed=0)
    result = session.run("fig7", models=["resnet18"])
    print(result.to_json())
"""

from . import api, arch, compiler, core, nn, sim, workloads
from .api import (
    Experiment,
    ExperimentResult,
    Session,
    SweepResult,
    get_config,
    list_configs,
    list_experiments,
    run_sweep,
)

__version__ = "1.7.0"

__all__ = [
    "api",
    "arch",
    "compiler",
    "core",
    "nn",
    "sim",
    "workloads",
    "Experiment",
    "Session",
    "ExperimentResult",
    "SweepResult",
    "run_sweep",
    "get_config",
    "list_configs",
    "list_experiments",
    "__version__",
]
