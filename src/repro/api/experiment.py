"""The :class:`Experiment` façade: one object, every experiment.

``Experiment`` (alias :class:`Session`) wraps the whole stack -- the
functional accelerator (``repro.arch``), the analytical cycle model
(``repro.sim``), the offline compiler (``repro.compiler``) and the NN/QAT
accuracy pipeline (``repro.nn``) -- behind one uniform signature: a hardware
configuration (instance or registered preset name), an optional FTA
configuration and a single ``seed`` that deterministically drives workload
profiling, dataset synthesis and weight initialisation.

Every paper table/figure is available twice:

* as a typed-row method (``weight_sparsity()``, ``speedup_energy()``,
  ``accuracy()``, ...) returning the typed row records of
  :mod:`repro.api.results`, and
* through the generic :meth:`Experiment.run` dispatcher, which wraps the
  rows into a serialisable :class:`~repro.api.results.ExperimentResult` --
  the entry point the sweep runner and the ``repro`` CLI are built on.

Expensive intermediates (model sparsity profiles, the synthetic dataset)
are cached per instance, so running several experiments on one session does
not re-profile the workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..arch.accelerator import DBPIMAccelerator, LayerExecutionResult
from ..arch.area import AreaModel
from ..arch.config import DBPIMConfig
from ..compiler.pipeline import CompiledModel, compile_model
from ..compiler.schedule import (
    plan_elementwise_fusion,
    plan_feature_liveness,
    resident_payload_at,
)
from ..core.fta import FTAConfig
from ..core.quantization import quantize_weights
from ..core.sparsity import analyze_input_sparsity, analyze_weight_sparsity
from ..nn.data import SyntheticImageDataset
from ..nn.models import build_model
from ..nn.qat import apply_weight_override, quantize_model, restore_weights
from ..nn.training import Trainer
from ..sim.cycle_model import (
    CycleModel,
    DEFAULT_ENGINE,
    ENGINES,
    LayerPerformance,
    ModelPerformance,
    SPARSITY_VARIANTS,
)
from ..sim.metrics import SystemMetrics, compute_metrics
from ..sim.trace import ProgramTrace, TraceSimulator, relative_cycle_error
from ..workloads.models import get_workload, list_workloads, workload_family
from ..workloads.profiles import (
    ModelSparsityProfile,
    profile_model,
    synthesize_activations,
    synthesize_layer_weights,
)
from .configs import ConfigLike, config_name, get_config
from .results import (
    PAPER_MODEL_ORDER,
    PRIOR_WORK_COLUMNS,
    PRIOR_WORK_ROWS,
    AccuracyRow,
    AreaRow,
    ComparisonColumn,
    ExperimentResult,
    GraphRow,
    InputSparsityRow,
    ProgramRow,
    SparsityBenefitRow,
    SparsitySupportRow,
    WeightSparsityRow,
)

__all__ = [
    "DEFAULT_SEED",
    "MAX_LAYERS_SAMPLED",
    "EXPERIMENT_INPUTS",
    "ExperimentSpec",
    "EXPERIMENTS",
    "get_experiment_spec",
    "list_experiments",
    "Experiment",
    "Session",
    "ENGINES",
    "DEFAULT_ENGINE",
]

#: The single default seed of the façade (threaded into workload profiling,
#: dataset generation, weight init and training shuffles).
DEFAULT_SEED = 0

#: Layers sampled per model by the Fig. 2 sparsity analyses (keeps the figure
#: regeneration fast while still averaging over early/middle/late layers).
MAX_LAYERS_SAMPLED = 6

#: The session inputs an experiment may read besides its seed and
#: parameters: the hardware configuration, the cycle-model engine, the FTA
#: configuration and the IPU profiling group size (see
#: :attr:`ExperimentSpec.reads`).
EXPERIMENT_INPUTS = ("config", "engine", "fta_config", "input_group")


@dataclass(frozen=True)
class ExperimentSpec:
    """Metadata of one registered experiment.

    Attributes:
        id: short stable identifier (``"fig7"``).
        reference: the paper artefact the experiment reproduces.
        title: one-line human description.
        runner: name of the :class:`Experiment` method that produces the rows.
        takes_models: whether the experiment accepts a ``models`` parameter.
        aggregates_models: True when the experiment's output aggregates
            *across* models (so a sweep must keep the model list together in
            one grid point rather than fanning one point out per model).
        defaults: canonical default parameters (merged under caller-supplied
            parameters so identical runs hash identically in the sweep cache).
        heavy: True when the experiment trains networks (minutes-scale).
        reads: the :data:`EXPERIMENT_INPUTS` the rows depend on.  Every
            experiment reads its seed and parameters; an input left out
            must not change a single byte of the rows, so results may be
            shared across it (pinned by ``tests/api/test_reads.py``).
    """

    id: str
    reference: str
    title: str
    runner: str
    takes_models: bool = False
    aggregates_models: bool = False
    defaults: Tuple[Tuple[str, Any], ...] = ()
    heavy: bool = False
    reads: Tuple[str, ...] = EXPERIMENT_INPUTS

    def __post_init__(self) -> None:
        unknown = set(self.reads) - set(EXPERIMENT_INPUTS)
        if unknown:
            raise ValueError(
                f"experiment {self.id!r} declares unknown inputs "
                f"{sorted(unknown)}; known: {list(EXPERIMENT_INPUTS)}"
            )

    @property
    def default_params(self) -> Dict[str, Any]:
        """The canonical default parameters as a fresh mutable dict."""
        return dict(self.defaults)

    @property
    def parameter_names(self) -> FrozenSet[str]:
        """Every parameter name the experiment accepts."""
        names = frozenset(name for name, _ in self.defaults)
        return names | {"models"} if self.takes_models else names

    def unexpected_parameters_error(self, names: Iterable[str]) -> TypeError:
        """The error naming ``names`` this experiment does not accept."""
        return TypeError(
            f"experiment {self.id!r} got unexpected parameters "
            f"{sorted(names)}; allowed: "
            f"{sorted(self.parameter_names) or 'none'}"
        )


#: Registry of every reproducible table/figure, in paper order.
EXPERIMENTS: Dict[str, ExperimentSpec] = {
    spec.id: spec
    for spec in (
        ExperimentSpec(
            id="fig2a",
            reference="Fig. 2(a)",
            title="zero-bit ratio of INT8 weights (binary / CSD / CSD+FTA)",
            runner="weight_sparsity",
            takes_models=True,
            reads=("fta_config",),
        ),
        ExperimentSpec(
            id="fig2b",
            reference="Fig. 2(b)",
            title="all-zero bit-column probability of input-feature groups",
            runner="input_sparsity",
            takes_models=True,
            defaults=(("group_sizes", (1, 8, 16)),),
            reads=(),
        ),
        ExperimentSpec(
            id="fig7",
            reference="Fig. 7",
            title="speedup and energy saving over the dense PIM baseline",
            runner="speedup_energy",
            takes_models=True,
        ),
        ExperimentSpec(
            id="table1",
            reference="Table 1",
            title="sparsity-exploitation comparison among SRAM-PIM designs",
            runner="related_work",
            reads=("config",),
        ),
        ExperimentSpec(
            id="table2",
            reference="Table 2",
            title="Top-1 accuracy of INT8 models before and after FTA",
            runner="accuracy",
            takes_models=True,
            defaults=(("epochs", 10), ("qat_epochs", 2)),
            heavy=True,
            reads=("fta_config",),
        ),
        ExperimentSpec(
            id="table3",
            reference="Table 3",
            title="detailed comparison with prior SRAM-PIM accelerators",
            runner="comparison",
            takes_models=True,
            aggregates_models=True,
        ),
        ExperimentSpec(
            id="table4",
            reference="Table 4",
            title="area breakdown of DB-PIM",
            runner="area",
            reads=("config",),
        ),
        ExperimentSpec(
            id="program",
            reference="compiled path",
            title="whole-model compiled programs replayed on the trace "
            "simulator vs the analytical cycle model",
            runner="program_report",
            takes_models=True,
        ),
        ExperimentSpec(
            id="graph",
            reference="workload IR",
            title="graph structure of the workloads: nodes, joins, fused "
            "SIMD ops and feature-buffer residency",
            runner="graph_report",
            takes_models=True,
            reads=(),
        ),
    )
}


def get_experiment_spec(experiment: str) -> ExperimentSpec:
    """Look an experiment spec up by id (case-insensitive)."""
    key = experiment.lower()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment!r}; available: {list(EXPERIMENTS)}"
        )
    return EXPERIMENTS[key]


def list_experiments() -> List[ExperimentSpec]:
    """All registered experiment specs, in paper order."""
    return list(EXPERIMENTS.values())


class Experiment:
    """Uniform façade over the accelerator, simulator and NN pipeline.

    Args:
        config: hardware configuration -- a :class:`DBPIMConfig`, the name of
            a registered preset (see :mod:`repro.api.configs`) or ``None``
            for the paper's default.
        fta_config: FTA algorithm configuration shared by profiling, QAT and
            the functional accelerator (``None`` for the paper default).
        seed: the single RNG seed every stochastic stage derives from.
        input_group: IPU zero-detection group size used when profiling
            input activations (defaults to the configuration's group size).
        engine: cycle-model engine, one of
            :data:`repro.sim.cycle_model.ENGINES` -- ``"vectorized"``
            (default, the NumPy batch kernel) or ``"scalar"`` (the
            per-layer reference); the vectorized engine is pinned
            bitwise-identical to the scalar reference by the conformance
            suite.
    """

    def __init__(
        self,
        config: ConfigLike = None,
        fta_config: Optional[FTAConfig] = None,
        seed: int = DEFAULT_SEED,
        input_group: Optional[int] = None,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        self.config = get_config(config)
        self.config_name = config_name(self.config)
        self.fta_config = fta_config
        self.seed = int(seed)
        if input_group is None:
            input_group = self.config.macro.input_group
        if int(input_group) <= 0:
            raise ValueError("input_group must be positive")
        self.input_group = int(input_group)
        self.cycle_model = CycleModel(self.config, engine=engine)
        self.engine = self.cycle_model.engine
        self.area_model = AreaModel()
        self._profiles: Dict[str, ModelSparsityProfile] = {}
        self._dataset: Optional[SyntheticImageDataset] = None
        self._compiled: Dict[Tuple[str, str], CompiledModel] = {}

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(config={self.config_name!r}, "
            f"seed={self.seed}, engine={self.engine!r})"
        )

    def with_config(self, config: ConfigLike) -> "Experiment":
        """A new session on another hardware config, sharing this session's
        expensive caches.

        Workload sparsity profiles depend only on (seed, FTA config, IPU
        group size) -- not on macro counts, clocks or sparsity flags -- so a
        design-space sweep over such knobs can reuse one profile cache
        instead of re-profiling per design point.  The clone derives its
        profiling group size from the *new* configuration; the cache is
        shared only when that group size matches this session's (otherwise
        the clone starts with a fresh cache and profiles correctly).
        """
        clone = type(self)(
            config=config,
            fta_config=self.fta_config,
            seed=self.seed,
            engine=self.engine,
        )
        if clone.input_group == self.input_group:
            clone._profiles = self._profiles  # shared mutable cache
        clone._dataset = self._dataset
        return clone

    # ------------------------------------------------------------------
    # Workload helpers
    # ------------------------------------------------------------------
    def _resolve_models(self, models: Optional[Sequence[str]]) -> Tuple[str, ...]:
        """Validate a model list (``None`` means all); caller casing is kept
        so returned rows carry the names the caller asked for."""
        if models is None:
            return tuple(list_workloads())
        names = tuple(str(name) for name in models)
        if not names:
            raise ValueError(
                "empty model list; pass None (or omit the argument) to run "
                f"every workload: {list_workloads()}"
            )
        for name in names:
            get_workload(name)  # raises KeyError with the available names
        return names

    def profile(self, model: str) -> ModelSparsityProfile:
        """The (cached) sparsity profile of one workload."""
        key = str(model).lower()
        if key not in self._profiles:
            self._profiles[key] = profile_model(
                get_workload(key),
                seed=self.seed,
                fta_config=self.fta_config,
                input_group=self.input_group,
            )
        return self._profiles[key]

    def dataset(self) -> SyntheticImageDataset:
        """The (cached) synthetic dataset of the accuracy experiments."""
        if self._dataset is None:
            self._dataset = SyntheticImageDataset.generate(
                num_classes=8,
                samples_per_class=30,
                test_samples_per_class=10,
                seed=self.seed,
            )
        return self._dataset

    def _sampled_layers(self, model: str) -> List:
        """Early/middle/late layer sample used by the Fig. 2 analyses."""
        workload = get_workload(model)
        layers = list(workload.layers)
        if len(layers) <= MAX_LAYERS_SAMPLED:
            return layers
        indices = np.linspace(0, len(layers) - 1, MAX_LAYERS_SAMPLED).astype(int)
        return [layers[i] for i in indices]

    # ------------------------------------------------------------------
    # Uniform low-level entry points
    # ------------------------------------------------------------------
    def run_layer(
        self, model: str, layer: Union[int, str] = 0, variant: str = "hybrid"
    ) -> LayerPerformance:
        """Analytical latency/energy of one layer of a workload.

        Args:
            model: workload name.
            layer: layer index or layer name inside the workload.
            variant: one of :data:`~repro.sim.cycle_model.SPARSITY_VARIANTS`.
        """
        profile = self.profile(model)
        if isinstance(layer, int):
            layer_profile = profile.layers[layer]
        else:
            matches = [p for p in profile.layers if p.layer.name == layer]
            if not matches:
                names = [p.layer.name for p in profile.layers]
                raise KeyError(f"unknown layer {layer!r} of {model!r}; available: {names}")
            layer_profile = matches[0]
        return self.cycle_model.run_layer(layer_profile, variant)

    def run_model(self, model: str, variant: str = "hybrid") -> ModelPerformance:
        """Analytical latency/energy of a whole workload under one variant."""
        return self.cycle_model.run_model(self.profile(model), variant)

    def run_variants(self, model: str) -> Dict[str, ModelPerformance]:
        """All four Fig. 7 variants (base/input/weight/hybrid) of one model.

        With the vectorized engine the four variants are evaluated as one
        batched array pass.
        """
        return self.cycle_model.run_all_variants(self.profile(model))

    def run_batch(
        self,
        models: Optional[Sequence[str]] = None,
        variants: Optional[Sequence[str]] = None,
    ) -> Dict[str, Dict[str, ModelPerformance]]:
        """Evaluate a (models x variants) grid in one vectorized pass.

        The batch-execution front door of the façade: every (model,
        variant) cell of the grid becomes one job of a single
        :meth:`repro.sim.cycle_model.CycleModel.run_batch` call, so an
        entire design-space axis is simulated as one NumPy array pass
        instead of nested per-model / per-variant loops.  (With
        ``engine="scalar"`` the same grid runs through the reference
        per-layer loop.)

        Args:
            models: workload names (``None`` for all five paper models).
            variants: Fig. 7 variant names, in output order (``None`` for
                all of :data:`~repro.sim.cycle_model.SPARSITY_VARIANTS`).

        Returns:
            Nested mapping ``{model: {variant: ModelPerformance}}`` in the
            requested model/variant order.
        """
        names = self._resolve_models(models)
        if variants is None:
            variant_list: Tuple[str, ...] = SPARSITY_VARIANTS
        else:
            variant_list = tuple(str(variant) for variant in variants)
            for variant in variant_list:
                self.cycle_model.variant_config(variant)  # validates eagerly
        jobs = [
            (self.profile(name), variant)
            for name in names
            for variant in variant_list
        ]
        performances = self.cycle_model.run_batch(jobs)
        grid: Dict[str, Dict[str, ModelPerformance]] = {}
        cursor = iter(performances)
        for name in names:
            grid[name] = {variant: next(cursor) for variant in variant_list}
        return grid

    def metrics(self, model: str, variant: str = "hybrid") -> SystemMetrics:
        """Table 3 system metrics of one workload under one variant."""
        return compute_metrics(
            self.run_model(model, variant), self.config, self.area_model
        )

    # ------------------------------------------------------------------
    # Compiled path: whole-model programs + trace simulation
    # ------------------------------------------------------------------
    def compile_model(
        self, model: str, variant: str = "hybrid"
    ) -> CompiledModel:
        """Compile one workload into a whole-model segmented program.

        Runs the pass-based pipeline
        (:func:`repro.compiler.pipeline.compile_model`) on the session's
        cached sparsity profile; results are memoised per (model, variant).

        Args:
            model: workload name.
            variant: one of :data:`~repro.sim.cycle_model.SPARSITY_VARIANTS`.
        """
        key = (str(model).lower(), str(variant))
        if key not in self._compiled:
            self._compiled[key] = compile_model(
                self.profile(model), config=self.config, variant=variant
            )
        return self._compiled[key]

    def trace_model(self, model: str, variant: str = "hybrid") -> ProgramTrace:
        """Compile one workload and replay it on the trace simulator."""
        return TraceSimulator(self.config).run(self.compile_model(model, variant))

    def execute_linear(
        self,
        weights: np.ndarray,
        inputs: np.ndarray,
        variant: str = "hybrid",
        apply_fta: bool = True,
    ) -> LayerExecutionResult:
        """Bit-exact functional execution of ``weights @ inputs``.

        Dispatches to the functional :class:`DBPIMAccelerator` with the
        session configuration switched to the requested sparsity variant.
        """
        config = self.cycle_model.variant_config(variant)
        accelerator = DBPIMAccelerator(config, fta_config=self.fta_config)
        return accelerator.run_linear(weights, inputs, apply_fta=apply_fta)

    @staticmethod
    def speedup(baseline: ModelPerformance, improved: ModelPerformance) -> float:
        """Cycle-count speedup of ``improved`` over ``baseline``."""
        return CycleModel.speedup(baseline, improved)

    @staticmethod
    def energy_saving(baseline: ModelPerformance, improved: ModelPerformance) -> float:
        """Fractional energy saving of ``improved`` over ``baseline``."""
        return CycleModel.energy_saving(baseline, improved)

    # ------------------------------------------------------------------
    # Fig. 2 -- bit-level sparsity analyses
    # ------------------------------------------------------------------
    def weight_sparsity(
        self, models: Optional[Sequence[str]] = None
    ) -> List[WeightSparsityRow]:
        """Fig. 2(a): per-model zero-bit ratios of the three encodings."""
        rows = []
        for name in self._resolve_models(models):
            workload = get_workload(name)
            quantized_layers = []
            for layer in self._sampled_layers(name):
                float_weights = synthesize_layer_weights(
                    layer, workload.redundancy, self.seed
                )
                int_weights, _ = quantize_weights(float_weights, per_channel=True)
                quantized_layers.append(int_weights)
            report = analyze_weight_sparsity(
                quantized_layers, fta_config=self.fta_config
            )
            rows.append(
                WeightSparsityRow(
                    model=name,
                    binary_zero_ratio=report.binary,
                    csd_zero_ratio=report.csd,
                    fta_zero_ratio=report.fta,
                )
            )
        return rows

    def input_sparsity(
        self,
        models: Optional[Sequence[str]] = None,
        group_sizes: Tuple[int, ...] = (1, 8, 16),
    ) -> List[InputSparsityRow]:
        """Fig. 2(b): per-model zero bit-column ratios by group size."""
        rows = []
        for name in self._resolve_models(models):
            workload = get_workload(name)
            activations = np.concatenate(
                [
                    synthesize_activations(
                        layer, workload.activation_density, self.seed
                    )
                    for layer in self._sampled_layers(name)
                ]
            )
            rows.append(
                InputSparsityRow(
                    model=name,
                    zero_column_ratio=analyze_input_sparsity(
                        activations, tuple(group_sizes)
                    ),
                )
            )
        return rows

    # ------------------------------------------------------------------
    # Fig. 7 -- speedup / energy saving
    # ------------------------------------------------------------------
    def speedup_energy(
        self, models: Optional[Sequence[str]] = None
    ) -> List[SparsityBenefitRow]:
        """Fig. 7: per-model speedup and energy saving over the baseline.

        All requested models and all four variants are evaluated in a
        single batched cycle-model pass (see :meth:`run_batch`).
        """
        names = self._resolve_models(models)
        batch = self.run_batch(models=names)
        rows = []
        for name in names:
            runs = batch[name]
            base = runs["base"]
            speedup = {
                variant: self.cycle_model.speedup(base, runs[variant])
                for variant in ("input", "weight", "hybrid")
            }
            saving = {
                variant: self.cycle_model.energy_saving(base, runs[variant])
                for variant in ("input", "weight", "hybrid")
            }
            utilization = {
                variant: runs[variant].actual_utilization for variant in runs
            }
            rows.append(
                SparsityBenefitRow(
                    model=name,
                    speedup=speedup,
                    energy_saving=saving,
                    utilization=utilization,
                )
            )
        return rows

    # ------------------------------------------------------------------
    # Table 1 -- related-work feature matrix
    # ------------------------------------------------------------------
    def related_work_ours(self) -> SparsitySupportRow:
        """Derive the "Ours" column of Table 1 from the live configuration."""
        config = self.config
        targets = []
        removed = []
        if config.weight_sparsity:
            targets.append("W")
            removed.append("Zero W+B")
        if config.input_sparsity:
            targets.append("I")
            removed.append("Zero I+B")
        return SparsitySupportRow(
            design="DB-PIM (Ours)",
            sparsity_type=(
                "bit" if config.weight_sparsity or config.input_sparsity else "none"
            ),
            weight_or_input="+".join(targets) if targets else "-",
            digital=True,
            unstructured=True,
            ineffectual_mac_removed=" and ".join(removed) if removed else "-",
        )

    def related_work(self) -> List[SparsitySupportRow]:
        """Table 1: prior works plus the derived "Ours" row."""
        return list(PRIOR_WORK_ROWS) + [self.related_work_ours()]

    # ------------------------------------------------------------------
    # Table 2 -- accuracy study
    # ------------------------------------------------------------------
    def evaluate_accuracy(
        self,
        model: str,
        epochs: int = 10,
        qat_epochs: int = 2,
        dataset: Optional[SyntheticImageDataset] = None,
    ) -> AccuracyRow:
        """Train one mini model and measure float / INT8 / FTA accuracy.

        Args:
            model: paper model name (``"alexnet"`` ... ``"efficientnetb0"``).
            epochs: float pre-training epochs.
            qat_epochs: FTA-aware QAT fine-tuning epochs (0 disables QAT).
            dataset: synthetic dataset; the session's shared dataset is used
                when omitted.
        """
        dataset = dataset or self.dataset()
        network = build_model(model, num_classes=dataset.num_classes, seed=self.seed)
        trainer = Trainer(network, dataset, batch_size=32, seed=self.seed)
        trainer.train(epochs=epochs)
        if qat_epochs > 0:
            trainer.fine_tune_with_qat(
                epochs=qat_epochs,
                apply_fta=True,
                fta_config=self.fta_config,
                learning_rate=0.01,
            )
        float_accuracy = trainer.evaluate()

        records = quantize_model(network, fta_config=self.fta_config)
        apply_weight_override(records, use_fta=False)
        int8_accuracy = trainer.evaluate()
        restore_weights(records)
        apply_weight_override(records, use_fta=True)
        fta_accuracy = trainer.evaluate()
        restore_weights(records)
        return AccuracyRow(
            model=model,
            float_accuracy=float_accuracy,
            int8_accuracy=int8_accuracy,
            fta_accuracy=fta_accuracy,
        )

    def accuracy(
        self,
        models: Optional[Sequence[str]] = None,
        epochs: int = 10,
        qat_epochs: int = 2,
    ) -> List[AccuracyRow]:
        """Table 2 for a list of models (shared dataset across models)."""
        if models is None:
            models = PAPER_MODEL_ORDER
        names = self._resolve_models(models)
        dataset = self.dataset()
        return [
            self.evaluate_accuracy(
                name, epochs=epochs, qat_epochs=qat_epochs, dataset=dataset
            )
            for name in names
        ]

    # ------------------------------------------------------------------
    # Table 3 -- comparison with prior works
    # ------------------------------------------------------------------
    def ours_column(
        self, models: Optional[Sequence[str]] = None
    ) -> ComparisonColumn:
        """Measure the DB-PIM column of Table 3 from this implementation."""
        config = self.config
        area = self.area_model.breakdown(config)
        utilization: Dict[str, float] = {}
        best_tops_w = 0.0
        peak_tops = 0.0
        peak_per_macro = 0.0
        for name in self._resolve_models(models):
            performance = self.run_model(name, "hybrid")
            metrics = compute_metrics(performance, config)
            utilization[name] = metrics.actual_utilization
            best_tops_w = max(best_tops_w, metrics.tops_per_watt)
            peak_tops = metrics.peak_tops
            peak_per_macro = metrics.peak_gops_per_macro
        return ComparisonColumn(
            design="DB-PIM (this repo)",
            technology_nm=config.technology_nm,
            die_area_mm2=area.total_mm2,
            sram_size_kb=config.buffers.total_sram_bytes / 1024,
            pim_size_kb=config.pim_size_kilobytes,
            num_macros=config.num_macros,
            actual_utilization=utilization,
            peak_throughput_tops=peak_tops,
            peak_gops_per_macro=peak_per_macro,
            energy_efficiency_tops_w=best_tops_w,
            efficiency_per_area=best_tops_w / area.total_mm2,
        )

    def comparison(
        self, models: Optional[Sequence[str]] = None
    ) -> List[ComparisonColumn]:
        """Table 3: literature columns plus the measured DB-PIM column."""
        return list(PRIOR_WORK_COLUMNS) + [self.ours_column(models)]

    # ------------------------------------------------------------------
    # Table 4 -- area breakdown
    # ------------------------------------------------------------------
    def area(self) -> List[AreaRow]:
        """Table 4 rows (plus the total as the last row)."""
        breakdown = self.area_model.breakdown(self.config)
        fractions = breakdown.fractions()
        rows = [
            AreaRow(module=name, area_mm2=value, breakdown=fractions[name])
            for name, value in breakdown.as_dict().items()
        ]
        rows.append(
            AreaRow(module="Total", area_mm2=breakdown.total_mm2, breakdown=1.0)
        )
        return rows

    # ------------------------------------------------------------------
    # "program" -- compiled whole-model programs vs the analytical model
    # ------------------------------------------------------------------
    def program_report(
        self, models: Optional[Sequence[str]] = None
    ) -> List[ProgramRow]:
        """The ``program`` experiment: compile, replay and cross-check.

        For every requested workload and every Fig. 7 variant, compiles the
        whole-model program through the pass pipeline, replays it on the
        trace simulator and compares the traced broadcast cycles against
        the analytical cycle model (evaluated in one batched pass).

        Args:
            models: workload names (``None`` for all five paper models).

        Returns:
            One :class:`~repro.api.results.ProgramRow` per model, carrying
            per-variant instruction/segment counts, traced vs analytical
            cycles, scheduled cycles and the worst relative error.
        """
        names = self._resolve_models(models)
        simulator = TraceSimulator(self.config)
        batch = self.run_batch(models=names)
        rows: List[ProgramRow] = []
        for name in names:
            instructions: Dict[str, int] = {}
            segments: Dict[str, int] = {}
            trace_cycles: Dict[str, float] = {}
            analytical_cycles: Dict[str, float] = {}
            scheduled_cycles: Dict[str, float] = {}
            hidden_fraction: Dict[str, float] = {}
            worst = 0.0
            for variant in SPARSITY_VARIANTS:
                compiled = self.compile_model(name, variant)
                trace = simulator.run(compiled)
                performance = batch[name][variant]
                instructions[variant] = len(compiled.program)
                segments[variant] = len(compiled.program.segments)
                trace_cycles[variant] = trace.compute_cycles
                analytical_cycles[variant] = performance.total_cycles
                scheduled_cycles[variant] = trace.total_cycles
                hidden_fraction[variant] = trace.breakdown.hidden_fraction
                worst = max(worst, relative_cycle_error(trace, performance))
            rows.append(
                ProgramRow(
                    model=name,
                    instructions=instructions,
                    segments=segments,
                    trace_cycles=trace_cycles,
                    analytical_cycles=analytical_cycles,
                    scheduled_cycles=scheduled_cycles,
                    hidden_fraction=hidden_fraction,
                    max_relative_error=worst,
                )
            )
        return rows

    # ------------------------------------------------------------------
    # "graph" -- workload graph-structure report
    # ------------------------------------------------------------------
    def graph_report(
        self, models: Optional[Sequence[str]] = None
    ) -> List[GraphRow]:
        """The ``graph`` experiment: summarise each workload's DAG.

        Reports the node/edge/join structure of every requested workload's
        :class:`~repro.workloads.graph.ModelGraph`, the branch bytes its
        fused joins re-read (multi-producer feature traffic) and the
        worst-case branch residency the liveness planner keeps in the
        feature buffer.  Legacy linear workloads (no graph) degrade to a
        pure chain summary.

        Args:
            models: workload names (``None`` for all five paper models;
                transformer workloads by explicit name, e.g.
                ``models=["vit_tiny"]``).
        """
        rows: List[GraphRow] = []
        for name in self._resolve_models(models):
            workload = get_workload(name)
            graph = workload.graph
            if graph is None:
                rows.append(
                    GraphRow(
                        model=name,
                        family=workload_family(name),
                        nodes=len(workload.layers),
                        weighted_layers=len(workload.layers),
                        simd_ops=0,
                        joins=0,
                        edges=len(workload.layers),
                        total_macs=workload.total_macs,
                        residual_feature_bytes=0,
                        max_resident_feature_bytes=0,
                    )
                )
                continue
            # The same fusion rule the compiler pass applies, so this
            # report can never disagree with CompiledLayerInfo.
            residual = sum(
                decision.residual_bytes
                for decision in plan_elementwise_fusion(graph)
            )
            intervals = plan_feature_liveness(graph)
            layer_count = len(graph.weighted_nodes())
            max_resident = max(
                (
                    resident_payload_at(intervals, position)
                    for position in range(layer_count)
                ),
                default=0,
            )
            rows.append(
                GraphRow(
                    model=name,
                    family=workload_family(name),
                    nodes=len(graph),
                    weighted_layers=layer_count,
                    simd_ops=len(graph.simd_nodes()),
                    joins=len(graph.join_nodes()),
                    edges=len(graph.edges()),
                    total_macs=workload.total_macs,
                    residual_feature_bytes=residual,
                    max_resident_feature_bytes=max_resident,
                )
            )
        return rows

    # ------------------------------------------------------------------
    # Generic dispatch
    # ------------------------------------------------------------------
    def run(self, experiment: str, **params: Any) -> ExperimentResult:
        """Run one registered experiment and wrap it in a typed result.

        Args:
            experiment: experiment id (``"fig2a"`` ... ``"table4"``; see
                :func:`list_experiments`).
            **params: experiment parameters (``models=...`` for the
                model-parameterised experiments, ``epochs=`` /
                ``qat_epochs=`` for the accuracy study).

        Returns:
            An :class:`ExperimentResult` carrying the typed rows plus the
            canonicalised run parameters, seed and configuration name.
        """
        spec = get_experiment_spec(experiment)
        merged = spec.default_params
        merged.update(params)
        unknown = set(merged) - spec.parameter_names
        if unknown:
            raise spec.unexpected_parameters_error(unknown)
        if spec.takes_models:
            merged["models"] = self._resolve_models(merged.get("models"))
        rows = getattr(self, spec.runner)(**merged)
        return ExperimentResult(
            experiment=spec.id,
            rows=tuple(rows),
            params=merged,
            seed=self.seed,
            config=self.config_name,
        )


    # ------------------------------------------------------------------
    # Sweep service front door (session-pinned)
    # ------------------------------------------------------------------
    def run_sweep(
        self,
        experiments: Optional[Sequence[str]] = None,
        models: Optional[Sequence[str]] = None,
        *,
        max_workers: Optional[int] = None,
        cache_dir: Optional[Any] = None,
        params_by_experiment: Optional[Mapping[str, Mapping[str, Any]]] = None,
        shards: Optional[int] = None,
        journal: Optional[Any] = None,
        resume: bool = False,
        transport: Optional[str] = None,
        sweep_dir: Optional[Any] = None,
        transport_options: Optional[Mapping[str, Any]] = None,
    ):
        """Run a sweep grid pinned to this session's config, seed and engine.

        Delegates to :func:`repro.api.sweep.run_sweep` with
        ``configs=(this session's preset,)``, ``seeds=(this session's
        seed,)`` and this session's cycle-model engine, so the shard
        transports (local pools and the distributed broker), the on-disk
        result cache and the resumable JSONL journal are all available
        from a session object.  If the session was built from an
        unregistered configuration instance, it is registered under its
        content-derived ``custom-<digest>`` name first so shard workers
        (including process and ``repro worker`` workers, which receive the
        configuration with the shard) can resolve it.

        Args:
            experiments: experiment ids (default: every non-training
                experiment).
            models: workload names for the model-parameterised experiments.
            max_workers: worker threads/processes.
            cache_dir: directory of the packed result store.
            params_by_experiment: extra per-experiment parameters.
            shards: target shard count.
            journal: path of the append-only ``sweep.jsonl`` run journal.
            resume: restore finished points from ``journal``.
            transport: shard transport by name (``None`` for
                :data:`repro.api.sweep.DEFAULT_TRANSPORT`; see
                :func:`repro.api.sweep.run_sweep`).
            sweep_dir: shared coordination directory of a distributed
                transport.
            transport_options: extra keyword arguments for the transport
                factory.

        Returns:
            The :class:`~repro.api.results.SweepResult` of the grid.
        """
        from .configs import list_configs, register_config
        from .sweep import run_sweep as _run_sweep

        if self.config_name not in list_configs():
            register_config(self.config_name, self.config)
        return _run_sweep(
            experiments=experiments,
            models=models,
            configs=(self.config_name,),
            seeds=(self.seed,),
            max_workers=max_workers,
            cache_dir=cache_dir,
            params_by_experiment=params_by_experiment,
            engine=self.engine,
            shards=shards,
            journal=journal,
            resume=resume,
            transport=transport,
            sweep_dir=sweep_dir,
            transport_options=transport_options,
        )


#: An :class:`Experiment` is stateful (profile/dataset caches) and scoped to
#: one (config, seed) pair -- "session" is the name that emphasises reuse
#: across many experiment calls.
Session = Experiment
