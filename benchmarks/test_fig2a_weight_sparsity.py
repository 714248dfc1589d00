"""Fig. 2(a): zero-bit ratio of weights (binary vs CSD vs FTA).

Paper reference: zero-bit ratios of roughly 65%-80% across models, with CSD
adding ~5 percentage points over plain binary and the FTA pattern ("Ours")
adding a further ~5 points; compact models sit at the low end.
"""

from conftest import print_section

from repro.api import Experiment
from repro.api.formatting import format_weight_sparsity

PAPER_REFERENCE = """Paper (approximate, read off Fig. 2(a)):
  binary zero-bit ratio ~65-80%, CSD ~ +5pp, Ours ~ +5pp over CSD
  compact models (MobileNetV2 / EfficientNetB0) ~65% binary"""


def test_fig2a_weight_sparsity(run_once):
    rows = run_once(Experiment().run, "fig2a").rows
    print_section("Fig. 2(a) - zero-bit ratio in weights", format_weight_sparsity(rows))
    print(PAPER_REFERENCE)

    by_model = {row.model: row for row in rows}
    assert set(by_model) == {
        "alexnet",
        "vgg19",
        "resnet18",
        "mobilenetv2",
        "efficientnetb0",
    }
    for row in rows:
        # Substantial bit-level sparsity exists in every model.  (The plain
        # binary ratio is measured on two's complement codes, where small
        # negative weights carry many set bits, so it sits near 50% -- lower
        # than the paper's magnitude-style reading of Fig. 2(a).)
        assert 0.45 < row.binary_zero_ratio < 0.95
        # CSD never loses sparsity and FTA only adds to it.
        assert row.csd_zero_ratio >= row.binary_zero_ratio - 0.02
        assert row.fta_zero_ratio >= row.csd_zero_ratio - 1e-9
    # Redundant standard models are at least as bit-sparse as compact ones.
    assert (
        by_model["alexnet"].fta_zero_ratio
        >= by_model["efficientnetb0"].fta_zero_ratio - 0.02
    )
