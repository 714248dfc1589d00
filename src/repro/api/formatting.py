"""Text renderers for every table/figure (and for typed results).

One aligned-text formatter per table/figure row type.
:func:`format_result` dispatches on an
:class:`~repro.api.results.ExperimentResult`'s experiment id, which is what
the ``repro`` CLI prints.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from ..arch.config import SPARSITY_VARIANTS
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
    WeightSparsityRow,
)

__all__ = [
    "format_weight_sparsity",
    "format_input_sparsity",
    "format_speedup_energy",
    "format_related_work",
    "format_accuracy",
    "format_comparison",
    "format_area",
    "format_program",
    "format_graph",
    "format_result",
    "format_sweep",
]


def format_weight_sparsity(rows: Sequence[WeightSparsityRow]) -> str:
    """Render Fig. 2(a) as an aligned text table."""
    lines = [f"{'Model':<16}{'Ori_Zero':>10}{'CSD_Zero':>10}{'Ours':>10}"]
    for row in rows:
        lines.append(
            f"{row.model:<16}{row.binary_zero_ratio:>9.1%}"
            f"{row.csd_zero_ratio:>9.1%}{row.fta_zero_ratio:>9.1%}"
        )
    return "\n".join(lines)


def format_input_sparsity(rows: Sequence[InputSparsityRow]) -> str:
    """Render Fig. 2(b) as an aligned text table."""
    if not rows:
        return ""
    group_sizes = sorted(rows[0].zero_column_ratio)
    header = f"{'Model':<16}" + "".join(f"{'group ' + str(g):>12}" for g in group_sizes)
    lines = [header]
    for row in rows:
        lines.append(
            f"{row.model:<16}"
            + "".join(f"{row.zero_column_ratio[g]:>11.1%}" for g in group_sizes)
        )
    return "\n".join(lines)


def format_speedup_energy(rows: Sequence[SparsityBenefitRow]) -> str:
    """Render Fig. 7 as aligned text (speedup / energy-saving per variant)."""
    header = (
        f"{'Model':<16}{'in x':>8}{'wgt x':>8}{'hyb x':>8}"
        f"{'in sav':>9}{'wgt sav':>9}{'hyb sav':>9}"
    )
    lines = [header]
    for row in rows:
        lines.append(
            f"{row.model:<16}"
            f"{row.speedup['input']:>7.2f}{row.speedup['weight']:>8.2f}"
            f"{row.speedup['hybrid']:>8.2f}"
            f"{row.energy_saving['input']:>8.1%}{row.energy_saving['weight']:>8.1%}"
            f"{row.energy_saving['hybrid']:>8.1%}"
        )
    return "\n".join(lines)


def format_related_work(rows: Sequence[SparsitySupportRow]) -> str:
    """Render Table 1 as aligned text."""
    header = (
        f"{'Design':<18}{'Type':>7}{'W/I':>6}{'D/A':>5}{'U/S':>5}"
        f"  {'Ineffectual MAC removed'}"
    )
    lines = [header]
    for row in rows:
        lines.append(
            f"{row.design:<18}{row.sparsity_type:>7}{row.weight_or_input:>6}"
            f"{'D' if row.digital else 'A':>5}{'U' if row.unstructured else 'S':>5}"
            f"  {row.ineffectual_mac_removed}"
        )
    return "\n".join(lines)


def format_accuracy(rows: Sequence[AccuracyRow]) -> str:
    """Render Table 2 as aligned text."""
    header = (
        f"{'Model':<16}{'W/I':>8}{'Ori. Accu.':>12}{'FTA Accu.':>12}{'Accu. Drop':>12}"
    )
    lines = [header]
    for row in rows:
        lines.append(
            f"{row.model:<16}{'8b/8b':>8}{row.int8_accuracy:>11.2%}"
            f"{row.fta_accuracy:>11.2%}{row.accuracy_drop:>11.2%}"
        )
    return "\n".join(lines)


def format_comparison(columns: Sequence[ComparisonColumn]) -> str:
    """Render Table 3 as aligned text (one design per line)."""
    header = (
        f"{'Design':<20}{'nm':>4}{'mm2':>7}{'SRAM KB':>9}{'PIM KB':>8}"
        f"{'macros':>8}{'GOPS/macro':>12}{'TOPS/W':>9}{'eff/mm2':>9}{'  U_act'}"
    )
    lines = [header]
    for column in columns:
        if column.actual_utilization:
            utilization = ", ".join(
                f"{name}={value:.1%}"
                for name, value in column.actual_utilization.items()
            )
        else:
            utilization = "n/a"
        lines.append(
            f"{column.design:<20}{column.technology_nm:>4}{column.die_area_mm2:>7.2f}"
            f"{column.sram_size_kb:>9.0f}{column.pim_size_kb:>8.0f}"
            f"{column.num_macros:>8}{column.peak_gops_per_macro:>12.1f}"
            f"{column.energy_efficiency_tops_w:>9.2f}{column.efficiency_per_area:>9.2f}"
            f"  {utilization}"
        )
    return "\n".join(lines)


def format_area(rows: Sequence[AreaRow]) -> str:
    """Render Table 4 as aligned text."""
    lines = [f"{'Modules':<32}{'Area (mm2)':>12}{'Breakdown':>12}"]
    for row in rows:
        lines.append(f"{row.module:<32}{row.area_mm2:>12.5f}{row.breakdown:>11.2%}")
    return "\n".join(lines)


def format_program(rows: Sequence[ProgramRow]) -> str:
    """Render the compiled-program experiment as aligned text.

    One line per (model, variant): program size, trace vs analytical
    broadcast cycles, the scheduled total and the overlap-hidden fraction;
    the model's worst relative error is printed on its ``hybrid`` line.
    """
    header = (
        f"{'Model':<16}{'variant':>8}{'instr':>9}{'segs':>6}"
        f"{'trace Mcyc':>12}{'model Mcyc':>12}{'sched Mcyc':>12}"
        f"{'hidden':>8}{'max err':>10}"
    )
    lines = [header]
    for row in rows:
        # Canonical variant order regardless of dict key order (JSON
        # round-trips through the sweep cache sort mapping keys).
        variants = [v for v in SPARSITY_VARIANTS if v in row.trace_cycles]
        variants += [v for v in row.trace_cycles if v not in SPARSITY_VARIANTS]
        for variant in variants:
            error = (
                f"{row.max_relative_error:>10.1e}" if variant == "hybrid" else f"{'':>10}"
            )
            lines.append(
                f"{row.model:<16}{variant:>8}{row.instructions[variant]:>9}"
                f"{row.segments[variant]:>6}"
                f"{row.trace_cycles[variant] / 1e6:>12.3f}"
                f"{row.analytical_cycles[variant] / 1e6:>12.3f}"
                f"{row.scheduled_cycles[variant] / 1e6:>12.3f}"
                f"{row.hidden_fraction[variant]:>8.1%}{error}"
            )
    return "\n".join(lines)


def format_graph(rows: Sequence[GraphRow]) -> str:
    """Render the workload graph-structure experiment as aligned text."""
    header = (
        f"{'Model':<18}{'family':>12}{'nodes':>7}{'layers':>8}{'simd':>6}"
        f"{'joins':>7}{'edges':>7}{'MMACs':>9}{'resid KB':>10}{'peak KB':>9}"
    )
    lines = [header]
    for row in rows:
        lines.append(
            f"{row.model:<18}{row.family:>12}{row.nodes:>7}"
            f"{row.weighted_layers:>8}{row.simd_ops:>6}{row.joins:>7}"
            f"{row.edges:>7}{row.total_macs / 1e6:>9.1f}"
            f"{row.residual_feature_bytes / 1024:>10.1f}"
            f"{row.max_resident_feature_bytes / 1024:>9.1f}"
        )
    return "\n".join(lines)


_FORMATTERS: Dict[str, Callable[[Sequence], str]] = {
    "fig2a": format_weight_sparsity,
    "fig2b": format_input_sparsity,
    "fig7": format_speedup_energy,
    "table1": format_related_work,
    "table2": format_accuracy,
    "table3": format_comparison,
    "table4": format_area,
    "program": format_program,
    "graph": format_graph,
}


def format_result(result: ExperimentResult) -> str:
    """Render an experiment result with the formatter of its experiment id."""
    try:
        formatter = _FORMATTERS[result.experiment]
    except KeyError:
        raise KeyError(
            f"no formatter for experiment {result.experiment!r}; "
            f"available: {sorted(_FORMATTERS)}"
        ) from None
    return formatter(result.rows)


def format_sweep(sweep: SweepResult) -> str:
    """Render every result of a sweep, separated by headers."""
    sections = []
    for result in sweep.results:
        header = (
            f"--- {result.experiment} (config={result.config}, seed={result.seed}, "
            f"params={result.params}) ---"
        )
        sections.append(f"{header}\n{format_result(result)}")
    summary = (
        f"{len(sweep.results)} result(s); cache: {sweep.cache_hits} hit(s), "
        f"{sweep.cache_misses} miss(es)"
    )
    if sweep.stats is not None:
        stats = sweep.stats
        summary += (
            f"; executor={stats.executor} x{stats.max_workers}, "
            f"{stats.shards} shard(s), {stats.journaled_points} journaled, "
            f"{stats.elapsed_s:.2f}s"
        )
    return "\n\n".join(sections + [summary])
