"""Fig. 7(a/b): speedup over the dense digital PIM baseline.

Paper reference: weight sparsity alone gives ~5.20x (AlexNet) and ~4.46x
(VGG19); adding input sparsity raises them to ~7.69x and ~6.10x; compact
models still reach ~3.90x (MobileNetV2) and ~3.55x (EfficientNetB0).
"""

from conftest import print_section

from repro.api import Experiment
from repro.api.formatting import format_speedup_energy

PAPER_REFERENCE = """Paper: AlexNet 5.20x (weight) -> 7.69x (hybrid); VGG19 4.46x -> 6.10x;
MobileNetV2 ~3.90x, EfficientNetB0 ~3.55x (hybrid)"""


def test_fig7a_speedup(run_once):
    rows = run_once(Experiment().run, "fig7").rows
    print_section("Fig. 7 - speedup over the dense PIM baseline", format_speedup_energy(rows))
    print(PAPER_REFERENCE)

    by_model = {row.model: row for row in rows}
    assert len(rows) == 5
    for row in rows:
        # Ordering within a model: hybrid > weight-only > 1x and
        # hybrid > input-only > 1x.
        assert row.speedup["hybrid"] > row.speedup["weight"] > 1.0
        assert row.speedup["hybrid"] > row.speedup["input"] > 1.0
    # Cross-model ordering: redundant standard models accelerate more than
    # compact models, AlexNet the most.
    assert by_model["alexnet"].speedup["hybrid"] == max(
        row.speedup["hybrid"] for row in rows
    )
    assert by_model["alexnet"].speedup["hybrid"] > by_model["vgg19"].speedup["hybrid"]
    assert by_model["vgg19"].speedup["hybrid"] > by_model["efficientnetb0"].speedup["hybrid"]
    # Rough magnitudes: AlexNet in the 6-12x range, compact models in 2-6x.
    assert 6.0 < by_model["alexnet"].speedup["hybrid"] < 12.0
    assert 2.0 < by_model["mobilenetv2"].speedup["hybrid"] < 6.0
    assert 2.0 < by_model["efficientnetb0"].speedup["hybrid"] < 6.0
    # Weight-only speedups bounded by the architectural maximum of 8x.
    for row in rows:
        assert row.speedup["weight"] <= 8.0 + 1e-6
