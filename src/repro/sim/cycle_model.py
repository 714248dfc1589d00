"""Cycle-level performance and energy model of DB-PIM vs the dense baseline.

This is the analytical counterpart of the paper's cycle-accurate C++
simulator: for every layer of a workload it derives, from the static mapping
and the layer's sparsity profile, the broadcast cycles, cell activity,
metadata traffic and buffer traffic -- and from those the latency and energy
of the four configurations compared in Fig. 7:

* ``base``            -- dense digital PIM baseline,
* ``input sparsity``  -- baseline mapping + IPU zero-column skipping,
* ``weight sparsity`` -- dyadic-block mapping, no input skipping,
* ``hybrid sparsity`` -- both (the full DB-PIM).

Two interchangeable engines back the model, named in the fixed engine
table of :mod:`repro.sim.engines` (see :data:`ENGINES`,
``docs/performance.md`` and ``docs/testing.md``):

* ``"vectorized"`` (default) -- the NumPy batch kernel of
  :mod:`repro.sim.vectorized`, which evaluates whole layers -- and batches
  of (model, variant, config) jobs via :meth:`CycleModel.run_batch` -- as
  array operations;
* ``"scalar"`` -- the original per-layer reference implementation, kept
  selectable for auditing; the vectorized engine is pinned bitwise-equal
  to it by the conformance suite in ``tests/engines/``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Sequence, Tuple

__docformat__ = "numpy"

from ..arch.config import DBPIMConfig, SPARSITY_VARIANTS
from ..arch.energy import EnergyBreakdown, EnergyModel
from ..compiler.mapping import map_layer
from ..workloads.layers import LayerShape
from ..workloads.profiles import LayerSparsityProfile, ModelSparsityProfile
from .engines import ENGINES, resolve_cycle_model_engine
from .vectorized import (
    BatchActivity,
    ProfileArrays,
    profile_arrays,
)

__all__ = [
    "ENERGY_COMPONENTS",
    "LayerPerformance",
    "ModelPerformance",
    "CycleModel",
    "SPARSITY_VARIANTS",
    "ENGINES",
    "DEFAULT_ENGINE",
]

#: Engine used when none is requested: the NumPy batch kernel.
DEFAULT_ENGINE = "vectorized"


@dataclass
class LayerPerformance:
    """Latency / energy / activity of one layer under one configuration.

    Attributes
    ----------
    layer : LayerShape
        The layer the numbers describe.
    cycles : float
        Bit-serial broadcast cycles of the whole layer.
    cell_activations : float
        6T cells driven over all cycles.
    effective_cell_activations : float
        Cells whose activation did useful work (``U_act`` numerator).
    energy : EnergyBreakdown
        Component-wise energy of the layer (pJ).
    macs : int
        Multiply-accumulate operations of the layer.
    """

    layer: LayerShape
    cycles: float
    cell_activations: float
    effective_cell_activations: float
    energy: EnergyBreakdown
    macs: int

    @property
    def actual_utilization(self) -> float:
        """``U_act`` of Eq. (1) for this layer."""
        if self.cell_activations == 0:
            return 0.0
        return self.effective_cell_activations / self.cell_activations


#: :class:`EnergyBreakdown` component names, in the order its ``total_pj``
#: adds them.
ENERGY_COMPONENTS: Tuple[str, ...] = tuple(
    component.name for component in fields(EnergyBreakdown)
)


class ModelPerformance:
    """Aggregated performance of a whole workload under one configuration.

    The per-layer results are held as columns -- one list per quantity, in
    network order -- so the totals a figure reads are sequential sums over
    those lists.  The per-layer :class:`LayerPerformance` records are built
    only when :attr:`layers` is first read.  Both engines return this type;
    the scalar engine builds it from its layer records
    (:meth:`from_layers`).

    Parameters
    ----------
    name : str
        Workload name.
    variant : str
        The Fig. 7 configuration the numbers belong to (``"base"``,
        ``"input"``, ``"weight"`` or ``"hybrid"``).
    shapes : sequence of LayerShape
        The layers, in network order.
    cycles, cell_activations, effective_cell_activations : list of float
        Per-layer columns of the :class:`LayerPerformance` fields of the
        same names.
    macs : list of int
        Per-layer multiply-accumulates.
    energy : dict of str to list of float
        One per-layer column per :data:`ENERGY_COMPONENTS` name (pJ).
    """

    __slots__ = (
        "name",
        "variant",
        "shapes",
        "cycles",
        "cell_activations",
        "effective_cell_activations",
        "macs",
        "energy",
        "_layers",
    )

    def __init__(
        self,
        name: str,
        variant: str,
        shapes: Sequence[LayerShape],
        cycles: List[float],
        cell_activations: List[float],
        effective_cell_activations: List[float],
        macs: List[int],
        energy: Dict[str, List[float]],
    ) -> None:
        self.name = name
        self.variant = variant
        self.shapes = tuple(shapes)
        self.cycles = cycles
        self.cell_activations = cell_activations
        self.effective_cell_activations = effective_cell_activations
        self.macs = macs
        self.energy = energy
        self._layers: Optional[Tuple[LayerPerformance, ...]] = None

    @classmethod
    def from_layers(
        cls, name: str, variant: str, layers: Sequence[LayerPerformance]
    ) -> "ModelPerformance":
        """The columns of already-built per-layer records (kept as
        :attr:`layers`)."""
        performance = cls(
            name,
            variant,
            [layer.layer for layer in layers],
            [layer.cycles for layer in layers],
            [layer.cell_activations for layer in layers],
            [layer.effective_cell_activations for layer in layers],
            [layer.macs for layer in layers],
            {
                component: [
                    getattr(layer.energy, component) for layer in layers
                ]
                for component in ENERGY_COMPONENTS
            },
        )
        performance._layers = tuple(layers)
        return performance

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"variant={self.variant!r}, layers={len(self.shapes)})"
        )

    def __eq__(self, other: object) -> bool:
        """Equal name, variant and per-layer columns (the per-layer
        records' equality, without building them)."""
        if not isinstance(other, ModelPerformance):
            return NotImplemented
        return (
            self.name == other.name
            and self.variant == other.variant
            and self.shapes == other.shapes
            and self.cycles == other.cycles
            and self.cell_activations == other.cell_activations
            and self.effective_cell_activations
            == other.effective_cell_activations
            and self.macs == other.macs
            and self.energy == other.energy
        )

    __hash__ = None  # type: ignore[assignment]  # mutable columns

    @property
    def layers(self) -> Tuple[LayerPerformance, ...]:
        """Per-layer results, in network order (built on first read)."""
        if self._layers is None:
            energy = [self.energy[component] for component in ENERGY_COMPONENTS]
            self._layers = tuple(
                LayerPerformance(
                    layer=shape,
                    cycles=cycles,
                    cell_activations=cells,
                    effective_cell_activations=effective,
                    energy=EnergyBreakdown(*components),
                    macs=macs,
                )
                for shape, cycles, cells, effective, macs, *components in zip(
                    self.shapes,
                    self.cycles,
                    self.cell_activations,
                    self.effective_cell_activations,
                    self.macs,
                    *energy,
                )
            )
        return self._layers

    @property
    def total_cycles(self) -> float:
        """Broadcast cycles summed over every layer."""
        return sum(self.cycles)

    @property
    def total_energy_pj(self) -> float:
        """Energy summed over every layer, in pJ.

        Each layer's total adds its components in
        :data:`ENERGY_COMPONENTS` order, as ``EnergyBreakdown.total_pj``
        does, so the result equals the per-layer records' sum bit for bit
        (the inner ``sum``'s leading ``0`` can change only the sign of an
        all-zero layer total, which the outer ``sum``'s leading ``0``
        erases).
        """
        columns = [self.energy[component] for component in ENERGY_COMPONENTS]
        return sum(map(sum, zip(*columns)))

    @property
    def total_macs(self) -> int:
        """Multiply-accumulates summed over every layer."""
        return sum(self.macs)

    @property
    def actual_utilization(self) -> float:
        """Model-level ``U_act``: effective / total cell activations."""
        total = sum(self.cell_activations)
        effective = sum(self.effective_cell_activations)
        return effective / total if total else 0.0

    def energy_breakdown(self) -> Dict[str, float]:
        """Component-wise energy of the whole model (pJ)."""
        return {
            component: sum(self.energy[component], 0.0)
            for component in ENERGY_COMPONENTS
        }


class CycleModel:
    """Analytical latency/energy model over workload sparsity profiles.

    Parameters
    ----------
    config : DBPIMConfig, optional
        Hardware configuration (the paper's DB-PIM default when omitted).
    energy_model : EnergyModel, optional
        Activity-to-energy pricing (shared component library default).
    engine : str, optional
        One of :data:`ENGINES`: ``"vectorized"`` (default) for the NumPy
        batch kernel or ``"scalar"`` for the per-layer reference
        implementation; both produce bitwise-identical results (pinned by
        the conformance suite in ``tests/engines/``).

    Raises
    ------
    ValueError
        For an unknown engine name (listing the engines sorted), or an
        engine that is not cycle-model-capable.
    """

    def __init__(
        self,
        config: Optional[DBPIMConfig] = None,
        energy_model: Optional[EnergyModel] = None,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        self.engine = resolve_cycle_model_engine(engine).name
        self.config = config or DBPIMConfig()
        self.energy_model = energy_model or EnergyModel()

    # ------------------------------------------------------------------
    # Configuration variants
    # ------------------------------------------------------------------
    @staticmethod
    def variant_config_of(config: DBPIMConfig, variant: str) -> DBPIMConfig:
        """The Fig. 7 variant of an arbitrary base configuration.

        Parameters
        ----------
        config : DBPIMConfig
            Base (hybrid) hardware configuration.
        variant : str
            One of :data:`SPARSITY_VARIANTS`.

        Returns
        -------
        DBPIMConfig
            ``config`` with the variant's sparsity flags applied.
        """
        return config.for_variant(variant)

    def variant_config(self, variant: str) -> DBPIMConfig:
        """The hardware configuration of one Fig. 7 variant."""
        return self.variant_config_of(self.config, variant)

    # ------------------------------------------------------------------
    # Per-layer model (scalar reference; also the single-layer API)
    # ------------------------------------------------------------------
    def run_layer(
        self, profile: LayerSparsityProfile, variant: str = "hybrid"
    ) -> LayerPerformance:
        """Latency/energy of one layer under one configuration.

        Always evaluated by the scalar reference path (a single layer has
        nothing to batch).

        Parameters
        ----------
        profile : LayerSparsityProfile
            The layer's sparsity statistics.
        variant : str, optional
            One of :data:`SPARSITY_VARIANTS` (default ``"hybrid"``).

        Returns
        -------
        LayerPerformance
            The layer's cycles, cell activity and energy.
        """
        config = self.variant_config(variant)
        layer = profile.layer
        mapping = map_layer(
            layer,
            config=config,
            thresholds=profile.thresholds if config.weight_sparsity else None,
            input_active_columns=(
                profile.input_active_columns if config.input_sparsity else None
            ),
        )
        cycles = mapping.total_cycles
        cell_activations = mapping.total_cell_activations
        if config.weight_sparsity:
            # Cells hold Comp. Pattern blocks; padding slots are the only
            # ineffective cells.
            effective = cell_activations * profile.storage_utilization
        else:
            # Cells hold plain binary weights; only the non-zero bits do
            # useful work.
            effective = cell_activations * (1.0 - profile.weight_zero_bit_ratio_binary)
        adder_ops = cell_activations
        post_processing_ops = cycles * mapping.filters_per_pass
        ipu_bits = layer.activation_count * config.macro.input_bits
        weight_bytes = layer.weight_count * (1 if config.weight_sparsity else 1)
        meta_bytes = (
            layer.weight_count if config.weight_sparsity else 0
        )
        feature_bytes = layer.activation_count + layer.out_channels * layer.output_positions
        energy = self.energy_model.layer_energy(
            cycles=cycles,
            cell_activations=cell_activations,
            adder_tree_ops=adder_ops,
            post_processing_ops=post_processing_ops,
            ipu_bits=ipu_bits,
            meta_rf_bytes=meta_bytes,
            buffer_bytes=weight_bytes + feature_bytes,
        )
        return LayerPerformance(
            layer=layer,
            cycles=cycles,
            cell_activations=cell_activations,
            effective_cell_activations=effective,
            energy=energy,
            macs=layer.macs,
        )

    # ------------------------------------------------------------------
    # Whole-model model
    # ------------------------------------------------------------------
    def run_model(
        self, profile: ModelSparsityProfile, variant: str = "hybrid"
    ) -> ModelPerformance:
        """Latency/energy of a whole workload under one configuration.

        Dispatches to the engine selected at construction; both
        cycle-model engines return identical numbers.

        Parameters
        ----------
        profile : ModelSparsityProfile
            The profiled workload.
        variant : str, optional
            One of :data:`SPARSITY_VARIANTS` (default ``"hybrid"``).

        Returns
        -------
        ModelPerformance
            Per-layer and aggregate performance of the workload.
        """
        if self.engine == "scalar":
            return self._run_model_scalar(profile, variant)
        return self.run_batch([(profile, variant)])[0]

    def _run_model_scalar(
        self,
        profile: ModelSparsityProfile,
        variant: str,
        base_config: Optional[DBPIMConfig] = None,
    ) -> ModelPerformance:
        """Reference per-layer loop (the original engine)."""
        if base_config is not None and base_config is not self.config:
            reference = CycleModel(
                base_config, self.energy_model, engine="scalar"
            )
            return reference._run_model_scalar(profile, variant)
        return ModelPerformance.from_layers(
            profile.workload.name,
            variant,
            [self.run_layer(layer, variant) for layer in profile.layers],
        )

    def run_all_variants(
        self, profile: ModelSparsityProfile
    ) -> Dict[str, ModelPerformance]:
        """Run the four Fig. 7 configurations for one workload.

        With the vectorized engine all four variants are evaluated as one
        batched array pass over the profile.

        Parameters
        ----------
        profile : ModelSparsityProfile
            The profiled workload.

        Returns
        -------
        dict of str to ModelPerformance
            One entry per :data:`SPARSITY_VARIANTS` name.
        """
        if self.engine == "scalar":
            return {
                variant: self._run_model_scalar(profile, variant)
                for variant in SPARSITY_VARIANTS
            }
        performances = self.run_batch(
            [(profile, variant) for variant in SPARSITY_VARIANTS]
        )
        return dict(zip(SPARSITY_VARIANTS, performances))

    # ------------------------------------------------------------------
    # Batched execution
    # ------------------------------------------------------------------
    def run_batch(
        self,
        jobs: Sequence[Tuple[ModelSparsityProfile, str]],
        configs: Optional[Sequence[DBPIMConfig]] = None,
    ) -> List[ModelPerformance]:
        """Evaluate many (profile, variant) jobs in one vectorized pass.

        With the vectorized engine every job's layers are evaluated by
        :func:`repro.sim.vectorized.simulate_jobs` in one array pass, so an
        entire design-space axis (variants, macro counts, ...) is
        simulated by one NumPy expression instead of nested Python loops.
        With the scalar engine the jobs run through the per-layer
        reference loop, one job at a time.

        Parameters
        ----------
        jobs : sequence of (ModelSparsityProfile, str)
            The (workload profile, Fig. 7 variant) pairs to evaluate.
        configs : sequence of DBPIMConfig, optional
            Per-job base hardware configuration; defaults to this model's
            configuration for every job.  Must align with ``jobs``.

        Returns
        -------
        list of ModelPerformance
            One result per job, in job order.

        Raises
        ------
        ValueError
            If ``configs`` is given with a different length than ``jobs``,
            or a variant name is unknown.
        """
        jobs = list(jobs)
        if configs is None:
            config_list = [self.config] * len(jobs)
        else:
            config_list = list(configs)
            if len(config_list) != len(jobs):
                raise ValueError(
                    f"got {len(jobs)} jobs but {len(config_list)} configs"
                )
        if not jobs:
            return []
        if self.engine == "scalar":
            # The scalar path applies each job's variant itself.
            return [
                self._run_model_scalar(profile, variant, base_config=config)
                for (profile, variant), config in zip(jobs, config_list)
            ]
        variant_configs = [
            self.variant_config_of(config, variant)
            for (_, variant), config in zip(jobs, config_list)
        ]
        # Resolved per call, so a probe patched onto the module attribute
        # (perfbench's tracer) sees every batch.
        from .vectorized import simulate_jobs

        job_arrays = [self._arrays_for(profile) for profile, _ in jobs]
        activity = simulate_jobs(
            job_arrays, variant_configs, self.energy_model
        )
        return self._materialize_jobs(jobs, job_arrays, activity)

    def _arrays_for(self, profile: ModelSparsityProfile) -> ProfileArrays:
        """Memoised :class:`ProfileArrays` of one live profile object.

        Delegates to the module-wide keyed cache
        (:func:`repro.sim.vectorized.profile_arrays`), so every engine
        instance -- including the warm sessions the serve daemon keeps --
        shares one flattened view per live profile.
        """
        return profile_arrays(profile)

    @staticmethod
    def _materialize_jobs(
        jobs: Sequence[Tuple[ModelSparsityProfile, str]],
        job_arrays: Sequence[ProfileArrays],
        activity: BatchActivity,
    ) -> List[ModelPerformance]:
        """Slice a batch's columns back into per-job
        :class:`ModelPerformance` records."""
        # ``.tolist()`` converts whole arrays to native Python scalars in C,
        # far cheaper than per-element indexing.
        cycles = activity.cycles.tolist()
        cells = activity.cell_activations.tolist()
        effective = activity.effective_cell_activations.tolist()
        macs = activity.macs.tolist()
        energy = {
            component: activity.energy[component].tolist()
            for component in ENERGY_COMPONENTS
        }
        results: List[ModelPerformance] = []
        start = 0
        for (profile, variant), arrays in zip(jobs, job_arrays):
            stop = start + len(arrays)
            results.append(
                ModelPerformance(
                    profile.workload.name,
                    variant,
                    arrays.layers,
                    cycles[start:stop],
                    cells[start:stop],
                    effective[start:stop],
                    macs[start:stop],
                    {
                        component: values[start:stop]
                        for component, values in energy.items()
                    },
                )
            )
            start = stop
        return results

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @staticmethod
    def speedup(
        baseline: ModelPerformance, improved: ModelPerformance
    ) -> float:
        """Cycle-count speedup of ``improved`` over ``baseline``.

        Raises
        ------
        ValueError
            If the improved configuration reports zero (or negative)
            cycles.
        """
        cycles = improved.total_cycles
        if cycles <= 0:
            raise ValueError("improved configuration reports zero cycles")
        return baseline.total_cycles / cycles

    @staticmethod
    def energy_saving(
        baseline: ModelPerformance, improved: ModelPerformance
    ) -> float:
        """Fractional energy saving of ``improved`` over ``baseline``.

        Raises
        ------
        ValueError
            If the baseline configuration reports non-positive energy.
        """
        energy = baseline.total_energy_pj
        if energy <= 0:
            raise ValueError("baseline configuration reports zero energy")
        return 1.0 - improved.total_energy_pj / energy


