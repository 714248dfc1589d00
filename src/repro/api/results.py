"""Typed result schema of the ``repro.api`` façade.

Two layers live here:

* the **row records** of every paper table/figure (``WeightSparsityRow``,
  ``AccuracyRow``, ``ComparisonColumn``, ...), shared so the façade, the
  sweep runner and the CLI all speak one vocabulary.
* the **result envelopes**: :class:`ExperimentResult` (one experiment run:
  id, parameters, seed, config, typed rows) and :class:`SweepResult` (a
  grid of experiment results plus cache statistics).  Both round-trip
  losslessly through ``to_dict()`` / ``to_json()`` / ``from_json()``, which
  is what the sweep runner's on-disk cache and the CLI's ``--json`` output
  are built on.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "SCHEMA_VERSION",
    "PAPER_MODEL_ORDER",
    "WeightSparsityRow",
    "InputSparsityRow",
    "SparsityBenefitRow",
    "SparsitySupportRow",
    "AccuracyRow",
    "ComparisonColumn",
    "AreaRow",
    "ProgramRow",
    "GraphRow",
    "PRIOR_WORK_ROWS",
    "PRIOR_WORK_COLUMNS",
    "ROW_TYPES",
    "row_to_dict",
    "row_from_dict",
    "ExperimentResult",
    "SweepStats",
    "SweepResult",
]

#: Version stamp embedded in every serialised result; bump when the schema
#: changes incompatibly so stale cache entries are never deserialised.
SCHEMA_VERSION = 1

#: Paper model names in Table 2 order.
PAPER_MODEL_ORDER = ("alexnet", "vgg19", "resnet18", "mobilenetv2", "efficientnetb0")


# ---------------------------------------------------------------------------
# Row records (one frozen dataclass per table/figure row)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class WeightSparsityRow:
    """One bar group of Fig. 2(a)."""

    model: str
    binary_zero_ratio: float
    csd_zero_ratio: float
    fta_zero_ratio: float


@dataclass(frozen=True)
class InputSparsityRow:
    """One bar group of Fig. 2(b)."""

    model: str
    zero_column_ratio: Dict[int, float]


@dataclass(frozen=True)
class SparsityBenefitRow:
    """Speedups and energy savings of one model (one bar group of Fig. 7)."""

    model: str
    speedup: Dict[str, float]
    energy_saving: Dict[str, float]
    utilization: Dict[str, float]


@dataclass(frozen=True)
class SparsitySupportRow:
    """One column of Table 1 (transposed to a row record here)."""

    design: str
    sparsity_type: str  # "value" or "bit"
    weight_or_input: str  # "W", "I" or "W+I"
    digital: bool
    unstructured: bool
    ineffectual_mac_removed: str


@dataclass(frozen=True)
class AccuracyRow:
    """One row of Table 2."""

    model: str
    float_accuracy: float
    int8_accuracy: float
    fta_accuracy: float

    @property
    def accuracy_drop(self) -> float:
        """Drop of the FTA model relative to the plain INT8 model."""
        return self.int8_accuracy - self.fta_accuracy


@dataclass(frozen=True)
class ComparisonColumn:
    """One design (column) of Table 3."""

    design: str
    technology_nm: int
    die_area_mm2: float
    sram_size_kb: float
    pim_size_kb: float
    num_macros: int
    actual_utilization: Dict[str, float]
    peak_throughput_tops: float
    peak_gops_per_macro: float
    energy_efficiency_tops_w: float
    efficiency_per_area: float


@dataclass(frozen=True)
class AreaRow:
    """One row of Table 4."""

    module: str
    area_mm2: float
    breakdown: float


@dataclass(frozen=True)
class GraphRow:
    """Graph-structure summary of one workload (the ``graph`` experiment).

    Attributes:
        model: workload name.
        family: workload family (``"paper"`` or ``"transformer"``).
        nodes: operator nodes of the graph.
        weighted_layers: macro-mapped layers (the linearized schedule).
        simd_ops: SIMD nodes (add/concat/softmax) fused into epilogues.
        joins: branch merge points -- nodes consuming several produced
            values (add/concat joins and two-operand attention matmuls).
        edges: producer -> consumer edges.
        total_macs: multiply-accumulates of one inference.
        residual_feature_bytes: branch bytes graph joins re-read (the
            multi-producer feature traffic the trace simulator accounts).
        max_resident_feature_bytes: worst-case branch bytes parked in the
            feature buffer across any layer of the schedule.
    """

    model: str
    family: str
    nodes: int
    weighted_layers: int
    simd_ops: int
    joins: int
    edges: int
    total_macs: int
    residual_feature_bytes: int
    max_resident_feature_bytes: int


@dataclass(frozen=True)
class ProgramRow:
    """Compiled-program summary of one workload (the ``program`` experiment).

    Every dict field is keyed by Fig. 7 variant name (``"base"``,
    ``"input"``, ``"weight"``, ``"hybrid"``).

    Attributes:
        model: workload name.
        instructions: encoded instructions of the whole-model program.
        segments: instruction-buffer refills of the program.
        trace_cycles: broadcast cycles measured by replaying the program on
            the trace simulator.
        analytical_cycles: broadcast cycles of the analytical cycle model
            (the cross-check reference).
        scheduled_cycles: trace cycles including the non-hidden
            load/SIMD/write-back work the analytical model does not price.
        hidden_fraction: fraction of serial cycles the overlap scheduler
            hides (double buffering + hoisted prefetch).
        max_relative_error: worst ``|trace - analytical| / analytical``
            over the four variants (contractually below
            :data:`repro.sim.trace.TRACE_TOLERANCE`).
    """

    model: str
    instructions: Dict[str, int]
    segments: Dict[str, int]
    trace_cycles: Dict[str, float]
    analytical_cycles: Dict[str, float]
    scheduled_cycles: Dict[str, float]
    hidden_fraction: Dict[str, float]
    max_relative_error: float


#: Literature rows of Table 1.
PRIOR_WORK_ROWS = (
    SparsitySupportRow("Yue et al. [12]", "value", "W", False, False, "Zero W+V"),
    SparsitySupportRow("SDP [11]", "value", "W", True, False, "Zero W+V"),
    SparsitySupportRow("Liu et al. [13]", "value", "W", True, True, "Zero W+V"),
    SparsitySupportRow("Tu et al. [14]", "bit", "I", True, True, "Zero I+B"),
    SparsitySupportRow("TT@CIM [15]", "bit", "W", True, True, "Zero W+B"),
)

#: Literature columns of Table 3 (numbers as reported in the paper; the
#: utilisation entries are the representative values the paper quotes).
PRIOR_WORK_COLUMNS = (
    ComparisonColumn(
        design="Yue et al. [12]", technology_nm=65, die_area_mm2=12.0,
        sram_size_kb=294, pim_size_kb=8, num_macros=4,
        actual_utilization={"resnet18": 0.3204}, peak_throughput_tops=0.10,
        peak_gops_per_macro=24.69, energy_efficiency_tops_w=2.37,
        efficiency_per_area=2.97,
    ),
    ComparisonColumn(
        design="SDP [11]", technology_nm=28, die_area_mm2=6.07,
        sram_size_kb=384, pim_size_kb=128, num_macros=512,
        actual_utilization={"resnet50": 0.4864}, peak_throughput_tops=26.21,
        peak_gops_per_macro=51.19, energy_efficiency_tops_w=107.60,
        efficiency_per_area=17.73,
    ),
    ComparisonColumn(
        design="Liu et al. [13]", technology_nm=28, die_area_mm2=3.93,
        sram_size_kb=96, pim_size_kb=144, num_macros=96,
        actual_utilization={}, peak_throughput_tops=3.33,
        peak_gops_per_macro=34.68, energy_efficiency_tops_w=25.22,
        efficiency_per_area=6.42,
    ),
    ComparisonColumn(
        design="Tu et al. [14]", technology_nm=28, die_area_mm2=14.36,
        sram_size_kb=192, pim_size_kb=128, num_macros=128,
        actual_utilization={}, peak_throughput_tops=3.55,
        peak_gops_per_macro=27.73, energy_efficiency_tops_w=101.0,
        efficiency_per_area=7.03,
    ),
    ComparisonColumn(
        design="TT@CIM [15]", technology_nm=28, die_area_mm2=8.97,
        sram_size_kb=114, pim_size_kb=128, num_macros=16,
        actual_utilization={"resnet20": 0.50}, peak_throughput_tops=0.40,
        peak_gops_per_macro=25.1, energy_efficiency_tops_w=13.75,
        efficiency_per_area=1.53,
    ),
)


# ---------------------------------------------------------------------------
# Serialisation
# ---------------------------------------------------------------------------
#: Row record type of each experiment id.
ROW_TYPES: Dict[str, type] = {
    "fig2a": WeightSparsityRow,
    "fig2b": InputSparsityRow,
    "fig7": SparsityBenefitRow,
    "table1": SparsitySupportRow,
    "table2": AccuracyRow,
    "table3": ComparisonColumn,
    "table4": AreaRow,
    "program": ProgramRow,
    "graph": GraphRow,
}

#: Row dict fields whose keys are integers (JSON stringifies mapping keys,
#: so these are converted back on deserialisation).
_INT_KEY_FIELDS = frozenset({"zero_column_ratio"})


def _jsonify(value: Any) -> Any:
    """Recursively convert a value to canonical JSON-safe Python types."""
    if isinstance(value, Mapping):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        # numpy scalar -> native Python scalar
        return value.item()
    return value


def row_to_dict(row: Any) -> Dict[str, Any]:
    """JSON-safe plain-dict form of one row record."""
    return _jsonify(dataclasses.asdict(row))


def row_from_dict(experiment: str, payload: Mapping[str, Any]) -> Any:
    """Reconstruct the typed row record of ``experiment`` from its dict form."""
    try:
        row_type = ROW_TYPES[experiment]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment!r}; available: {sorted(ROW_TYPES)}"
        ) from None
    kwargs = dict(payload)
    for name in _INT_KEY_FIELDS & kwargs.keys():
        kwargs[name] = {int(key): value for key, value in kwargs[name].items()}
    return row_type(**kwargs)


class _JsonEnvelope:
    """Shared serialisation plumbing: JSON text and atomic file round-trips
    built on the subclass's ``to_dict`` / ``from_dict``."""

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))

    def save(self, path: Union[str, Path]) -> Path:
        """Write the envelope to ``path`` as JSON, atomically.

        The payload is written to a uniquely named temporary file in the
        destination directory and moved into place with ``os.replace``, so
        a reader can never observe a truncated file and concurrent writers
        (parallel sweep workers sharing one cache directory) can never
        interleave into a corrupt entry -- the last complete write wins.
        """
        path = Path(path)
        handle, temporary = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(self.to_json())
            os.replace(temporary, path)
        except BaseException:
            try:
                os.unlink(temporary)
            except OSError:
                pass
            raise
        return path

    @classmethod
    def load(cls, path: Union[str, Path]):
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def __hash__(self) -> int:
        # The generated dataclass hash would choke on dict-typed fields;
        # the canonical JSON form is equality-consistent and hashable.
        return hash(self.to_json())


@dataclass(frozen=True, eq=True)
class ExperimentResult(_JsonEnvelope):
    """Canonical envelope of one experiment run.

    Attributes:
        experiment: experiment id (``"fig7"``, ``"table2"``, ...).
        rows: the typed row records of the table/figure.
        params: the (canonicalised, JSON-safe) parameters of the run.
        seed: the single RNG seed the run was derived from.
        config: name of the hardware configuration preset (or a
            ``custom-<digest>`` tag for unregistered configurations).
        schema_version: serialisation schema version stamp.
    """

    experiment: str
    rows: Tuple[Any, ...]
    params: Dict[str, Any] = field(default_factory=dict)
    seed: int = 0
    config: str = "paper-28nm"
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "params", _jsonify(dict(self.params)))

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    # Keep the mixin's JSON-based hash: the dataclass decorator would
    # otherwise generate one that chokes on the dict-typed fields.
    __hash__ = _JsonEnvelope.__hash__

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-safe, stable key order)."""
        return {
            "schema_version": self.schema_version,
            "experiment": self.experiment,
            "config": self.config,
            "seed": self.seed,
            "params": self.params,
            "rows": [row_to_dict(row) for row in self.rows],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ExperimentResult":
        """Rebuild a typed result from its plain-dict form.

        Raises:
            ValueError: if the payload's schema version is unsupported.
        """
        version = payload.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"result schema version {version} is not supported "
                f"(expected {SCHEMA_VERSION})"
            )
        experiment = payload["experiment"]
        return cls(
            experiment=experiment,
            rows=tuple(row_from_dict(experiment, row) for row in payload["rows"]),
            params=dict(payload.get("params", {})),
            seed=int(payload.get("seed", 0)),
            config=payload.get("config", "paper-28nm"),
            schema_version=version,
        )


@dataclass(frozen=True)
class SweepStats:
    """Execution statistics of one sweep invocation.

    Attached to :attr:`SweepResult.stats` by the sweep service for
    observability, but deliberately **excluded** from the serialised
    payload (and from equality): wall time and shard layout depend on the
    machine, the cache state and how a previous run was interrupted, while
    the ``results`` of a resumed sweep must stay byte-identical to an
    uninterrupted run.

    Attributes:
        executor: transport that ran the shards (``"serial"``,
            ``"thread"``, ``"process"`` or ``"broker"``).
        max_workers: worker count of the executor pool.
        shards: executed shards of this invocation (the planner's cold
            shards, plus one recovery shard when warm entries vanished
            before their restore).
        warm_points: points planned as on-disk cache loads.
        cold_points: points planned as simulator executions.
        elapsed_s: wall time of the whole sweep, in seconds.
    """

    executor: str
    max_workers: int = 1
    shards: int = 0
    warm_points: int = 0
    cold_points: int = 0
    elapsed_s: float = 0.0


@dataclass(frozen=True, eq=True)
class SweepResult(_JsonEnvelope):
    """The outcome of one sweep: per-point results plus cache statistics.

    Attributes:
        results: per-point experiment results, in grid order.
        cache_hits: points deserialised from the on-disk cache.
        cache_misses: points that executed the simulator.
        schema_version: serialisation schema version stamp.
        stats: executor/shard/timing statistics of the invocation that
            produced this result (see :class:`SweepStats`); ``None`` on
            results rebuilt from JSON.  Not serialised and not compared.
    """

    results: Tuple[ExperimentResult, ...]
    cache_hits: int = 0
    cache_misses: int = 0
    schema_version: int = SCHEMA_VERSION
    stats: Optional[SweepStats] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "results", tuple(self.results))

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    __hash__ = _JsonEnvelope.__hash__

    def filter(self, experiment: str) -> List[ExperimentResult]:
        """All point results of one experiment id, in grid order."""
        return [result for result in self.results if result.experiment == experiment]

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-safe, stable key order)."""
        return {
            "schema_version": self.schema_version,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "results": [result.to_dict() for result in self.results],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SweepResult":
        """Rebuild a sweep result (and its per-point results) from a dict."""
        return cls(
            results=tuple(
                ExperimentResult.from_dict(result) for result in payload["results"]
            ),
            cache_hits=int(payload.get("cache_hits", 0)),
            cache_misses=int(payload.get("cache_misses", 0)),
            schema_version=payload.get("schema_version", SCHEMA_VERSION),
        )
