"""The declaration check: every experiment reads only what its spec says.

``ExperimentSpec.reads`` lets the execution core and the serve hot cache
share one result across points that differ only in undeclared inputs, so
an under-declared spec would silently serve wrong rows.  This check does
not trust the declarations: it runs every experiment while varying each
input it does *not* declare -- every built-in preset, every cycle-model
engine, a non-default FTA configuration and IPU group size -- over all
paper models at two seeds, holding the declared inputs fixed, and
requires byte-identical rows.

The grid is the full product of the varied inputs, except for the
training experiment (``table2``, at one epoch without QAT, on one model):
there a rotation gives every preset and every other input value one run.
Experiments that read every input have nothing to vary and are skipped.
"""

import hashlib
import itertools
import json

import pytest

from repro.api.experiment import (
    EXPERIMENT_INPUTS,
    Experiment,
    get_experiment_spec,
    list_experiments,
)
from repro.api.results import PAPER_MODEL_ORDER
from repro.api.sweep import SweepPoint
from repro.core.fta import FTAConfig
from repro.sim.cycle_model import ENGINES

PRESETS = (
    "paper-28nm",
    "dense-baseline",
    "weight-sparsity-only",
    "input-sparsity-only",
    "paper-28nm-8macro",
)

#: Every value each input takes; the first is the one held fixed when an
#: experiment declares the input.
VALUES = {
    "config": PRESETS,
    "engine": tuple(ENGINES),
    "fta_config": (None, FTAConfig(max_threshold=1)),
    "input_group": (None, 8),
}

SEEDS = (0, 1)

#: Cheap parameters for the training experiment.
HEAVY_PARAMS = {"models": ["vgg19"], "epochs": 1, "qat_epochs": 0}


def _combinations(spec):
    """Distinct input assignments varying only what ``spec`` does not read."""
    free = [name for name in EXPERIMENT_INPUTS if name not in spec.reads]
    if spec.heavy:
        count = max(len(VALUES[name]) for name in free)
        picks = [
            {name: VALUES[name][k % len(VALUES[name])] for name in free}
            for k in range(count)
        ]
    else:
        picks = [
            dict(zip(free, values))
            for values in itertools.product(*(VALUES[name] for name in free))
        ]
    fixed = {
        name: VALUES[name][0] for name in EXPERIMENT_INPUTS if name in spec.reads
    }
    return [{**fixed, **pick} for pick in picks]


def _rows(spec, seed, inputs):
    session = Experiment(seed=seed, **inputs)
    if spec.heavy:
        params = HEAVY_PARAMS
    elif spec.takes_models:
        params = {"models": list(PAPER_MODEL_ORDER)}
    else:
        params = {}
    result = session.run(spec.id, **params)
    return json.dumps(result.to_dict()["rows"], sort_keys=True)


SPECS = [
    spec
    for spec in list_experiments()
    if set(spec.reads) != set(EXPERIMENT_INPUTS)
]


@pytest.mark.parametrize("spec", SPECS, ids=[spec.id for spec in SPECS])
@pytest.mark.parametrize("seed", SEEDS)
def test_undeclared_inputs_do_not_change_the_rows(spec, seed):
    combinations = _combinations(spec)
    assert len(combinations) > 1
    reference = _rows(spec, seed, combinations[0])
    for inputs in combinations[1:]:
        assert _rows(spec, seed, inputs) == reference, (
            f"{spec.id} rows changed with {inputs}; declare the input in "
            f"reads (declared: {spec.reads})"
        )


def test_every_preset_and_engine_is_varied_for_a_config_free_experiment():
    (fig2b,) = [spec for spec in SPECS if spec.id == "fig2b"]
    combinations = _combinations(fig2b)
    assert {c["config"] for c in combinations} == set(PRESETS)
    assert {c["engine"] for c in combinations} == set(ENGINES)


def test_the_check_fails_an_under_declared_spec():
    # fig7 reads the configuration; declared as reading nothing, the
    # check above would see different rows.
    from dataclasses import replace

    from repro.api.experiment import get_experiment_spec

    blind = replace(get_experiment_spec("fig7"), reads=())
    rows = {_rows(blind, 0, inputs) for inputs in _combinations(blind)[:2]}
    assert len(rows) == 2


class TestInputKey:
    def test_unread_config_shares_the_input_key(self):
        points = [
            SweepPoint("fig2b", config=preset, params={"models": ["alexnet"]})
            for preset in PRESETS
        ]
        assert len({point.input_key() for point in points}) == 1
        assert len({point.cache_key() for point in points}) == len(PRESETS)

    def test_only_read_inputs_split_the_input_key(self):
        def key(**fields):
            return SweepPoint("table2", **fields).input_key()

        assert key(config="paper-28nm") == key(config="paper-28nm-8macro")
        assert key(engine="scalar") == key(engine="vectorized")
        assert key(seed=0) != key(seed=1)
        assert key(params={"epochs": 1}) != key(params={"epochs": 2})

    @pytest.mark.parametrize("experiment", ["fig7", "table4"])
    def test_an_experiment_reading_the_config_keys_by_cache_key(
        self, experiment
    ):
        point = SweepPoint(experiment)
        assert point.input_key() == point.cache_key()

    def test_unknown_declared_input_is_rejected(self):
        from dataclasses import replace

        from repro.api.experiment import get_experiment_spec

        with pytest.raises(ValueError, match="unknown inputs"):
            replace(get_experiment_spec("fig2a"), reads=("weather",))


class TestFig2aFollowsTheFTAConfig:
    #: sha256 of the default-config fig2a rows over the paper models, as
    #: computed while the "CSD+FTA" column ignored the session's FTA config.
    DEFAULT_ROWS_SHA256 = {
        0: "8c8dc32a007dafe893e11f36448aff57a9afbfccdb4ab9df49b6e15dc998d997",
        1: "4b5feb2124ee47f8355537c693758d6523633f43a5f4ddec12eb648858b01e1d",
    }

    def test_fig2a_declares_the_fta_config(self):
        assert get_experiment_spec("fig2a").reads == ("fta_config",)

    def test_a_non_default_fta_config_moves_only_the_fta_column(self):
        models = list(PAPER_MODEL_ORDER)
        default = Experiment().run("fig2a", models=models).rows
        capped = Experiment(fta_config=FTAConfig(max_threshold=1)).run(
            "fig2a", models=models
        ).rows
        for plain, moved in zip(default, capped):
            assert moved.binary_zero_ratio == plain.binary_zero_ratio
            assert moved.csd_zero_ratio == plain.csd_zero_ratio
            assert moved.fta_zero_ratio != plain.fta_zero_ratio

    @pytest.mark.parametrize("seed", SEEDS)
    def test_default_config_rows_are_unchanged(self, seed):
        rows = _rows(get_experiment_spec("fig2a"), seed, {})
        assert (
            hashlib.sha256(rows.encode()).hexdigest()
            == self.DEFAULT_ROWS_SHA256[seed]
        )
