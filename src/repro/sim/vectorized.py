"""NumPy-vectorized batch kernel of the cycle-level performance model.

The scalar engine in :mod:`repro.sim.cycle_model` walks a workload one layer
at a time and, inside :func:`repro.compiler.mapping.map_layer`, one FTA
threshold group at a time -- pure-Python iteration that dominates the cost
of every design-space sweep.  This module re-expresses the *entire* model as
array operations over structure-of-arrays layer batches:

* :class:`ProfileArrays` flattens a
  :class:`~repro.workloads.profiles.ModelSparsityProfile` into per-layer
  NumPy arrays (shapes, sparsity statistics and a per-layer histogram of the
  FTA thresholds -- thresholds are bounded by :data:`MAX_FTA_THRESHOLD`, so
  the variable-length per-filter threshold tuples collapse into a dense
  ``(layers, 5)`` count matrix);
* :func:`simulate_grid` evaluates the mapping equations (filter grouping,
  tiling, bit-serial cycle counts) and the energy model for one flattened
  profile against a whole grid of hardware configurations in one
  ``(config, layer)`` broadcast pass;
* :func:`simulate_jobs` is the shard-sized entry point: it splits a job list
  into runs of consecutive jobs sharing one profile and dispatches each run
  to :func:`simulate_grid`.

Numerical contract
------------------
Every arithmetic step mirrors the scalar engine operation-for-operation
(integer ceil-divisions, ``int()`` truncation of the average parallel-filter
count, the exact order of float multiplications), so results are **bitwise
identical** to the scalar engine -- pinned by ``tests/sim/test_vectorized.py``
and ``tests/sim/test_grid.py``.  The scalar engine therefore survives as the
readable reference implementation; this kernel is the fast path.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

__docformat__ = "numpy"

import numpy as np

from ..arch.config import DBPIMConfig
from ..arch.energy import EnergyModel
from ..compiler.mapping import MAX_FTA_THRESHOLD
from ..workloads.layers import LayerShape
from ..workloads.profiles import ModelSparsityProfile

__all__ = [
    "MAX_FTA_THRESHOLD",
    "PROFILE_ARRAYS_CACHE_SIZE",
    "ProfileArrays",
    "BatchActivity",
    "profile_arrays",
    "config_knobs",
    "simulate_grid",
    "simulate_jobs",
]


@dataclass(frozen=True)
class ProfileArrays:
    """Structure-of-arrays form of one workload's sparsity profile.

    One instance flattens every per-layer quantity the cycle model consumes
    into aligned NumPy arrays so a whole model (or a concatenation of
    models) can be simulated as one array expression.

    Attributes
    ----------
    layers : tuple of LayerShape
        The layer descriptors, in profile order (kept for materialising
        per-layer results back into typed records).
    out_channels, reduction, output_positions, activation_count, \
    weight_count, macs : numpy.ndarray
        Per-layer integer shape quantities (``int64``).
    input_active_columns, storage_utilization, binary_zero_ratio : \
    numpy.ndarray
        Per-layer sparsity statistics (``float64``): measured IPU active
        bit columns, Comp.-Pattern storage utilisation, and the zero-bit
        ratio of the plain binary INT8 weights.
    threshold_counts : numpy.ndarray
        ``(num_layers, MAX_FTA_THRESHOLD + 1)`` histogram of the per-filter
        FTA thresholds of each layer.
    """

    layers: Tuple[LayerShape, ...]
    out_channels: np.ndarray
    reduction: np.ndarray
    output_positions: np.ndarray
    activation_count: np.ndarray
    weight_count: np.ndarray
    macs: np.ndarray
    input_active_columns: np.ndarray
    storage_utilization: np.ndarray
    binary_zero_ratio: np.ndarray
    threshold_counts: np.ndarray

    def __len__(self) -> int:
        """Number of layers in the batch."""
        return len(self.layers)

    @classmethod
    def from_profile(cls, profile: ModelSparsityProfile) -> "ProfileArrays":
        """Flatten a model sparsity profile into aligned per-layer arrays.

        Parameters
        ----------
        profile : ModelSparsityProfile
            The profiled workload (see
            :func:`repro.workloads.profiles.profile_model`).

        Returns
        -------
        ProfileArrays
            The structure-of-arrays view.

        Raises
        ------
        ValueError
            If a layer's per-filter threshold count does not match its
            filter count, or any threshold lies outside
            ``0..MAX_FTA_THRESHOLD`` (mirrors the scalar mapper's checks).
        """
        shapes = tuple(p.layer for p in profile.layers)
        count = len(shapes)

        def _ints(values: Iterable[int]) -> np.ndarray:
            return np.fromiter(values, dtype=np.int64, count=count)

        def _floats(values: Iterable[float]) -> np.ndarray:
            return np.fromiter(values, dtype=np.float64, count=count)

        threshold_counts = np.zeros(
            (count, MAX_FTA_THRESHOLD + 1), dtype=np.int64
        )
        for index, layer_profile in enumerate(profile.layers):
            thresholds = np.asarray(layer_profile.thresholds, dtype=np.int64)
            if thresholds.size != layer_profile.layer.out_channels:
                raise ValueError(
                    f"expected {layer_profile.layer.out_channels} thresholds, "
                    f"got {thresholds.size}"
                )
            if thresholds.size and (
                thresholds.min() < 0 or thresholds.max() > MAX_FTA_THRESHOLD
            ):
                raise ValueError(
                    f"FTA thresholds must lie in 0..{MAX_FTA_THRESHOLD}"
                )
            threshold_counts[index] = np.bincount(
                thresholds, minlength=MAX_FTA_THRESHOLD + 1
            )
        return cls(
            layers=shapes,
            out_channels=_ints(s.out_channels for s in shapes),
            reduction=_ints(s.reduction_size for s in shapes),
            output_positions=_ints(s.output_positions for s in shapes),
            activation_count=_ints(s.activation_count for s in shapes),
            weight_count=_ints(s.weight_count for s in shapes),
            macs=_ints(s.macs for s in shapes),
            input_active_columns=_floats(
                p.input_active_columns for p in profile.layers
            ),
            storage_utilization=_floats(
                p.storage_utilization for p in profile.layers
            ),
            binary_zero_ratio=_floats(
                p.weight_zero_bit_ratio_binary for p in profile.layers
            ),
            threshold_counts=threshold_counts,
        )


# ---------------------------------------------------------------------------
# Module-level ProfileArrays memoisation
# ---------------------------------------------------------------------------
#: Maximum live entries of the module-level :func:`profile_arrays` cache.
#: Generous relative to the workload registry (a handful of models times a
#: handful of concurrently live seeds/sessions); excess entries evict in
#: least-recently-used order.
PROFILE_ARRAYS_CACHE_SIZE = 128

#: ``id(profile) -> (weakref, arrays)``; the id is only trusted while the
#: weakref still points at the same live object (a recycled ``id()`` of a
#: dead profile must never alias another profile's arrays).
_ARRAYS_CACHE: "OrderedDict[int, Tuple[weakref.ref, ProfileArrays]]" = (
    OrderedDict()
)
_ARRAYS_CACHE_LOCK = threading.Lock()


def profile_arrays(profile: ModelSparsityProfile) -> "ProfileArrays":
    """Memoised :class:`ProfileArrays` of one live profile object.

    :class:`ProfileArrays` is a pure function of its profile, so flattening
    is memoised *module-wide* and keyed by the live profile object: every
    cycle-model instance (and every warm serve-session) evaluating the same
    profile shares one flattened view instead of re-flattening per engine
    instance.  Entries are dropped automatically when the profile object is
    garbage-collected and evicted LRU beyond
    :data:`PROFILE_ARRAYS_CACHE_SIZE`; the cache is thread-safe (the serve
    batcher flattens from executor threads).

    Parameters
    ----------
    profile : ModelSparsityProfile
        The profiled workload to flatten.

    Returns
    -------
    ProfileArrays
        The flattened (and shared) per-layer arrays.
    """
    key = id(profile)
    with _ARRAYS_CACHE_LOCK:
        entry = _ARRAYS_CACHE.get(key)
        if entry is not None:
            ref, arrays = entry
            if ref() is profile:
                _ARRAYS_CACHE.move_to_end(key)
                return arrays
            del _ARRAYS_CACHE[key]  # recycled id of a dead profile
    arrays = ProfileArrays.from_profile(profile)

    def _evict(_reference: object, *, key: int = key) -> None:
        with _ARRAYS_CACHE_LOCK:
            _ARRAYS_CACHE.pop(key, None)

    with _ARRAYS_CACHE_LOCK:
        _ARRAYS_CACHE[key] = (weakref.ref(profile, _evict), arrays)
        _ARRAYS_CACHE.move_to_end(key)
        while len(_ARRAYS_CACHE) > PROFILE_ARRAYS_CACHE_SIZE:
            _ARRAYS_CACHE.popitem(last=False)
    return arrays


def config_knobs(
    config: DBPIMConfig,
) -> Tuple[int, int, int, int, int, bool, bool]:
    """Hardware-knob vector of one resolved configuration.

    The batch kernel consumes a configuration as seven plain scalars, which
    :func:`simulate_grid` deduplicates on.

    Parameters
    ----------
    config : DBPIMConfig
        The (variant-resolved) hardware configuration.

    Returns
    -------
    tuple
        ``(rows, columns, input_bits, weight_bits, num_macros,
        weight_sparsity, input_sparsity)`` as native Python scalars.
    """
    return (
        int(config.macro.rows),
        int(config.macro.columns),
        int(config.macro.input_bits),
        int(config.macro.weight_bits),
        int(config.num_macros),
        bool(config.weight_sparsity),
        bool(config.input_sparsity),
    )


@dataclass(frozen=True)
class BatchActivity:
    """Per-layer activity and energy of one vectorized batch.

    All arrays share one length (the number of layers in the batch) and are
    aligned with the batch's layer order.

    Attributes
    ----------
    cycles : numpy.ndarray
        Bit-serial broadcast cycles per layer (``float64``).
    cell_activations : numpy.ndarray
        6T cells driven per layer over all cycles.
    effective_cell_activations : numpy.ndarray
        Cells doing useful work (the numerator of ``U_act``).
    macs : numpy.ndarray
        Multiply-accumulates per layer (``int64``; shape-derived).
    energy : dict of str to numpy.ndarray
        Per-layer energy of every
        :class:`~repro.arch.energy.EnergyBreakdown` component, in pJ.
    """

    cycles: np.ndarray
    cell_activations: np.ndarray
    effective_cell_activations: np.ndarray
    macs: np.ndarray
    energy: Dict[str, np.ndarray]

    def __len__(self) -> int:
        """Number of layers in the batch."""
        return int(self.cycles.size)


def _ceil_div(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """Element-wise ceiling division of non-negative integers."""
    return -(-numerator // denominator)


#: ``max(threshold, 1)`` row shared by every grid dispatch (the threshold
#: axis is a fixed 5-wide constant, no point re-deriving it per call).
_THRESHOLD_DIVISORS = np.maximum(
    np.arange(MAX_FTA_THRESHOLD + 1, dtype=np.int64), 1
)[None, :]


def simulate_grid(
    arrays: "ProfileArrays",
    configs: Sequence[DBPIMConfig],
    energy_model: EnergyModel,
) -> BatchActivity:
    """Evaluate ONE flattened profile against a whole config grid.

    Evaluates, for every (configuration, layer) pair at once, the mapping
    decisions of :func:`repro.compiler.mapping.map_layer` (threshold-grouped
    filter iterations, input tiling, IPU-gated cycles per pass), the
    activity accounting of
    :meth:`repro.sim.cycle_model.CycleModel.run_layer` and the component
    energies of :meth:`repro.arch.energy.EnergyModel.layer_energy`.  The
    profile stays a single ``(layers,)`` batch and the configuration axis
    becomes the leading dimension of a 2-D ``(config, layer)`` broadcast
    pass.  Two levels of deduplication make the pass cheaper than its
    flattened footprint:

    * duplicate *resolved configurations* (a preset grid crossed with the
      Fig. 7 variants collapses heavily once sparsity flags are applied)
      are computed once and fan-out by a final gather;
    * within the surviving unique configurations, the expensive
      per-threshold histogram reductions (5-wide inner axis) depend only on
      the macro *geometry* -- ``(rows, columns, input_bits, weight_bits,
      num_macros)`` -- not on the sparsity flags, so the four variants of
      one preset share a single geometry pass.

    Every arithmetic step mirrors the scalar engine operation-for-operation,
    so the result is **bitwise identical** to it (pinned by
    ``tests/sim/test_grid.py``).

    Parameters
    ----------
    arrays : ProfileArrays
        One flattened workload profile.
    configs : sequence of DBPIMConfig
        The config grid (sparsity flags already resolved to the Fig. 7
        variant each row should be evaluated under).
    energy_model : EnergyModel
        Prices the activity counts (shared across the grid).

    Returns
    -------
    BatchActivity
        Config-major flattened results of length ``len(configs) *
        len(arrays)``: row ``c * len(arrays) + l`` is layer ``l`` under
        ``configs[c]`` -- the same layout as
        ``simulate_jobs([arrays] * len(configs), configs, ...)``.

    Raises
    ------
    ValueError
        If the config grid is empty.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("simulate_grid requires at least one config")
    num_layers = len(arrays)
    knob_rows = [config_knobs(config) for config in configs]

    # --- dedup level 1: unique resolved configs ------------------------
    unique_index: Dict[Tuple, int] = {}
    work: List[Tuple] = []
    inverse = np.empty(len(knob_rows), dtype=np.intp)
    for position, knobs in enumerate(knob_rows):
        index = unique_index.get(knobs)
        if index is None:
            index = len(work)
            unique_index[knobs] = index
            work.append(knobs)
        inverse[position] = index

    # --- dedup level 2: unique macro geometries ------------------------
    geometry_index: Dict[Tuple, int] = {}
    geometries: List[Tuple] = []
    geo_inverse = np.empty(len(work), dtype=np.intp)
    for position, knobs in enumerate(work):
        geometry = knobs[:5]
        index = geometry_index.get(geometry)
        if index is None:
            index = len(geometries)
            geometry_index[geometry] = index
            geometries.append(geometry)
        geo_inverse[position] = index

    rows_g = np.array([g[0] for g in geometries], dtype=np.int64)
    columns_g = np.array([g[1] for g in geometries], dtype=np.int64)
    input_bits_g = np.array([g[2] for g in geometries], dtype=np.int64)
    weight_bits_g = np.array([g[3] for g in geometries], dtype=np.int64)
    num_macros_g = np.array([g[4] for g in geometries], dtype=np.int64)
    ws_u = np.array([k[5] for k in work], dtype=bool)[:, None]
    is_u = np.array([k[6] for k in work], dtype=bool)[:, None]

    out_channels = arrays.out_channels[None, :]

    # --- filter grouping (map_layer), per unique geometry --------------
    # Sparse mode: filters are grouped by FTA threshold; a row of
    # ``columns`` cells fits ``columns // max(φ_th, 1)`` filters.  The
    # per-layer histogram turns the scalar per-unique-threshold loop into a
    # closed-form sum over the 5 possible thresholds (empty bins add 0).
    # Dense mode: a row holds ``columns // weight_bits`` plain filters.
    per_macro = np.maximum(
        columns_g[:, None] // _THRESHOLD_DIVISORS, 1
    )
    per_pass = per_macro * num_macros_g[:, None]
    iterations_sparse = np.maximum(
        _ceil_div(
            arrays.threshold_counts[None, :, :], per_pass[:, None, :]
        ).sum(axis=2),
        1,
    )
    filters_per_pass_sparse = (
        (per_pass[:, None, :] * arrays.threshold_counts[None, :, :]).sum(
            axis=2
        )
        / out_channels
    )
    dense_per_pass = (columns_g // weight_bits_g) * num_macros_g
    iterations_dense = _ceil_div(out_channels, dense_per_pass[:, None])
    cycles_sparse = np.clip(
        arrays.input_active_columns[None, :], 0.0, input_bits_g[:, None]
    )
    rows_used = np.minimum(arrays.reduction[None, :], rows_g[:, None])
    input_tiles = _ceil_div(arrays.reduction[None, :], rows_g[:, None])
    weights_per_pass_cells = (
        columns_g[:, None] * rows_used * num_macros_g[:, None]
    )

    # --- gather to unique configs, apply sparsity flags ----------------
    # ``int()`` in the scalar mapping truncates the sparse average; the
    # dense count is already integral, so one truncation covers both.
    filter_iterations = np.where(
        ws_u, iterations_sparse[geo_inverse], iterations_dense[geo_inverse]
    )
    filters_per_pass = np.where(
        ws_u,
        filters_per_pass_sparse[geo_inverse],
        np.broadcast_to(
            dense_per_pass[geo_inverse][:, None], (len(work), num_layers)
        ),
    ).astype(np.int64)
    cycles_per_pass = np.where(
        is_u,
        cycles_sparse[geo_inverse],
        np.asarray(input_bits_g, dtype=np.float64)[geo_inverse][:, None],
    )

    # --- tiling, totals, effectiveness (same op order as the scalar) ---
    # Sparse storage wastes only the FTA padding slots; dense storage
    # wastes every zero bit of the binary weights.
    total_passes = (
        filter_iterations
        * input_tiles[geo_inverse]
        * arrays.output_positions[None, :]
    )
    cycles = total_passes * cycles_per_pass
    cell_activations = cycles * weights_per_pass_cells[geo_inverse]
    effective = np.where(
        ws_u,
        cell_activations * arrays.storage_utilization[None, :],
        cell_activations * (1.0 - arrays.binary_zero_ratio[None, :]),
    )

    # --- activity counts priced by the energy model --------------------
    post_processing_ops = cycles * filters_per_pass
    ipu_bits = (
        arrays.activation_count[None, :] * input_bits_g[geo_inverse][:, None]
    )
    meta_bytes = np.where(ws_u, arrays.weight_count[None, :], 0)
    feature_bytes = (
        arrays.activation_count + arrays.out_channels * arrays.output_positions
    )
    energy = energy_model.layer_energy_arrays(
        cycles=cycles,
        cell_activations=cell_activations,
        adder_tree_ops=cell_activations,
        post_processing_ops=post_processing_ops,
        ipu_bits=ipu_bits,
        meta_rf_bytes=meta_bytes,
        buffer_bytes=np.broadcast_to(
            (arrays.weight_count + feature_bytes)[None, :],
            (len(work), num_layers),
        ),
    )

    # --- fan the unique rows back out to the requested grid ------------
    def _expand(values: np.ndarray) -> np.ndarray:
        return values[inverse].reshape(-1)

    return BatchActivity(
        cycles=_expand(cycles),
        cell_activations=_expand(cell_activations),
        effective_cell_activations=_expand(effective),
        macs=np.tile(arrays.macs, len(configs)),
        energy={name: _expand(values) for name, values in energy.items()},
    )


def _concat_activities(activities: Sequence[BatchActivity]) -> BatchActivity:
    """Concatenate per-segment :class:`BatchActivity` results in order."""
    if len(activities) == 1:
        return activities[0]
    return BatchActivity(
        cycles=np.concatenate([a.cycles for a in activities]),
        cell_activations=np.concatenate(
            [a.cell_activations for a in activities]
        ),
        effective_cell_activations=np.concatenate(
            [a.effective_cell_activations for a in activities]
        ),
        macs=np.concatenate([a.macs for a in activities]),
        energy={
            name: np.concatenate([a.energy[name] for a in activities])
            for name in activities[0].energy
        },
    )


def simulate_jobs(
    job_arrays: Sequence[ProfileArrays],
    job_configs: Sequence[DBPIMConfig],
    energy_model: EnergyModel,
) -> BatchActivity:
    """Shard-sized batch entry point: many (profile, config) jobs, one pass.

    This is the kernel the sweep service's shard workers (and
    :meth:`repro.sim.cycle_model.CycleModel.run_batch`) ride: each job is a
    whole workload profile already flattened to :class:`ProfileArrays`,
    paired with the (variant-resolved) hardware configuration it should be
    evaluated under.  Runs of consecutive jobs that share the *same*
    :class:`ProfileArrays` object -- the shape every grid dispatch
    produces, e.g. one model evaluated under the four Fig. 7 variants or a
    whole preset grid -- are dispatched to :func:`simulate_grid` as one
    segment, and the segment results are concatenated in job order.  The
    result is bitwise identical to evaluating the jobs one at a time.

    Parameters
    ----------
    job_arrays : sequence of ProfileArrays
        One flattened profile per job, in job order.
    job_configs : sequence of DBPIMConfig
        The hardware configuration of each job (sparsity flags already
        resolved to the Fig. 7 variant), aligned with ``job_arrays``.
    energy_model : EnergyModel
        Prices the activity counts (shared across the batch).

    Returns
    -------
    BatchActivity
        Per-layer results of the concatenated batch; slice by the job
        lengths (``len(arrays)``) to recover per-job views.

    Raises
    ------
    ValueError
        If ``job_arrays`` and ``job_configs`` have different lengths, or
        the job list is empty.
    """
    if len(job_arrays) != len(job_configs):
        raise ValueError(
            f"got {len(job_arrays)} job arrays but {len(job_configs)} configs"
        )
    if not job_arrays:
        raise ValueError("simulate_jobs requires at least one job")
    activities: List[BatchActivity] = []
    start = 0
    total = len(job_arrays)
    while start < total:
        stop = start + 1
        while stop < total and job_arrays[stop] is job_arrays[start]:
            stop += 1
        activities.append(
            simulate_grid(
                job_arrays[start], job_configs[start:stop], energy_model
            )
        )
        start = stop
    return _concat_activities(activities)
