"""Unified experiment façade over the DB-PIM reproduction stack.

This package is the canonical entry point for running the paper's
experiments programmatically:

* :mod:`repro.api.configs` -- named, frozen hardware presets
  (``"paper-28nm"``, ``"dense-baseline"``, ...) plus validated builder
  helpers (:func:`build_dbpim_config`, :func:`build_fta_config`);
* :class:`Experiment` / :class:`Session` -- one object with uniform methods
  (``run_layer``, ``run_model``, ``run_variants``, ``accuracy``, ``area``,
  ``comparison``, ``run``) dispatching to the functional accelerator, the
  analytical cycle model, the compiler and the NN/QAT pipeline, all driven
  by a single ``seed``;
* :mod:`repro.api.results` -- the typed result schema
  (:class:`ExperimentResult`, :class:`SweepResult`) with lossless
  ``to_json()`` / ``from_json()`` round-trips;
* :func:`run_sweep` -- the sharded sweep service: a :class:`ShardPlanner`
  partitioning grids by cache state, four fixed shard transports
  (``thread`` / ``process`` / ``serial`` local pools plus the distributed
  ``broker`` fabric driving ``repro worker`` fleets; see
  :mod:`repro.dist`), an on-disk packed result store keyed by configuration
  content hashes, and a resumable append-only JSONL run journal
  (:class:`SweepJournal`);
* :mod:`repro.api.cli` -- the ``repro`` console script built on all of the
  above.

Quickstart::

    from repro.api import Experiment

    session = Experiment(config="paper-28nm", seed=0)
    for row in session.speedup_energy(["resnet18"]):
        print(row.model, row.speedup["hybrid"])
"""

from .configs import (
    DEFAULT_CONFIG,
    build_dbpim_config,
    build_fta_config,
    config_digest,
    config_name,
    config_to_dict,
    get_config,
    list_configs,
    register_config,
)
from .experiment import (
    DEFAULT_ENGINE,
    DEFAULT_SEED,
    ENGINES,
    EXPERIMENTS,
    Experiment,
    ExperimentSpec,
    Session,
    get_experiment_spec,
    list_experiments,
)
from .formatting import format_result, format_sweep
from .results import (
    AccuracyRow,
    AreaRow,
    ComparisonColumn,
    ExperimentResult,
    GraphRow,
    InputSparsityRow,
    ProgramRow,
    SparsityBenefitRow,
    SparsitySupportRow,
    SweepResult,
    SweepStats,
    WeightSparsityRow,
)
from .sweep import (
    DEFAULT_TRANSPORT,
    ShardPlan,
    ShardPlanner,
    SweepJournal,
    SweepJournalLockedError,
    SweepPoint,
    SweepPointError,
    SweepShard,
    build_grid,
    cache_keys_for_grid,
    run_point,
    run_shard,
    run_sweep,
)
from ..dist import transport_names

__all__ = [
    # configs
    "DEFAULT_CONFIG",
    "register_config",
    "get_config",
    "list_configs",
    "config_name",
    "config_to_dict",
    "config_digest",
    "build_dbpim_config",
    "build_fta_config",
    # experiment façade
    "DEFAULT_SEED",
    "ENGINES",
    "DEFAULT_ENGINE",
    "EXPERIMENTS",
    "ExperimentSpec",
    "Experiment",
    "Session",
    "get_experiment_spec",
    "list_experiments",
    # results
    "ExperimentResult",
    "SweepResult",
    "SweepStats",
    "WeightSparsityRow",
    "InputSparsityRow",
    "ProgramRow",
    "GraphRow",
    "SparsityBenefitRow",
    "SparsitySupportRow",
    "AccuracyRow",
    "ComparisonColumn",
    "AreaRow",
    # formatting
    "format_result",
    "format_sweep",
    # sweep service
    "DEFAULT_TRANSPORT",
    "transport_names",
    "SweepPoint",
    "SweepShard",
    "ShardPlan",
    "ShardPlanner",
    "SweepJournal",
    "SweepJournalLockedError",
    "SweepPointError",
    "build_grid",
    "cache_keys_for_grid",
    "run_point",
    "run_shard",
    "run_sweep",
]
