"""Fig. 7(a): energy saving over the dense digital PIM baseline.

Paper reference: energy savings of 63.49%-83.43% (hybrid) and 60.88%-74.47%
(weight only), AlexNet highest, EfficientNetB0 lowest.
"""

from conftest import print_section

from repro.api import Experiment
from repro.api.formatting import format_speedup_energy

PAPER_REFERENCE = """Paper (hybrid): AlexNet 83.43%, VGG19 79.25%, ResNet18 76.96%,
MobileNetV2 65.54%, EfficientNetB0 63.49%;
(weight only): 74.47% / 70.67% / 65.36% / 63.35% / 60.88%"""


def test_fig7b_energy_saving(run_once):
    rows = run_once(Experiment().run, "fig7").rows
    print_section(
        "Fig. 7 - energy saving over the dense PIM baseline", format_speedup_energy(rows)
    )
    print(PAPER_REFERENCE)

    by_model = {row.model: row for row in rows}
    for row in rows:
        # Hybrid saves the most, then weight-only, then input-only.
        assert (
            row.energy_saving["hybrid"]
            > row.energy_saving["weight"]
            > row.energy_saving["input"]
            > 0.0
        )
        # Savings land in the paper's broad band.
        assert 0.5 < row.energy_saving["hybrid"] < 0.95
        assert 0.4 < row.energy_saving["weight"] < 0.9
    # AlexNet saves (essentially) the most energy; the compact models the
    # least.  A small tolerance absorbs the noise of the synthetic profiles.
    assert by_model["alexnet"].energy_saving["hybrid"] >= max(
        row.energy_saving["hybrid"] for row in rows
    ) - 0.02
    assert (
        by_model["efficientnetb0"].energy_saving["hybrid"]
        <= by_model["vgg19"].energy_saving["hybrid"]
    )
