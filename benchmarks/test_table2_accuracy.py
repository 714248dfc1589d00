"""Table 2: Top-1 accuracy of plain INT8 models vs FTA-approximated models.

Paper reference (CIFAR-100, 8b/8b): accuracy drops of 0.16%-0.98%, i.e. the
FTA approximation costs well under one accuracy point on every network.

This reproduction trains mini versions of the five topologies on the
synthetic dataset (CIFAR-100 checkpoints are unavailable offline -- see
DESIGN.md); the check is that the FTA model stays close to its own INT8
baseline on every topology, which is the property Table 2 demonstrates.
"""

from conftest import print_section

from repro.api import Experiment
from repro.api.formatting import format_accuracy

PAPER_REFERENCE = """Paper (CIFAR-100): AlexNet -0.98%, VGG19 -0.64%, ResNet18 -0.56%,
MobileNetV2 -0.16%, EfficientNetB0 -0.52% (all drops < 1%)"""


def test_table2_accuracy(run_once):
    rows = run_once(
        Experiment(seed=0).run, "table2", epochs=6, qat_epochs=1
    ).rows
    print_section("Table 2 - Top-1 accuracy, INT8 vs FTA", format_accuracy(rows))
    print(PAPER_REFERENCE)

    assert len(rows) == 5
    for row in rows:
        # The trained baseline must be meaningfully above chance (12.5% for
        # the 8-class synthetic task) for the comparison to say anything.
        assert row.int8_accuracy > 0.4
        # The FTA approximation must not collapse accuracy.  The paper's
        # full-size models lose <1%; the tiny synthetic models are noisier,
        # so the bench allows a looser (but still small) margin.
        assert row.accuracy_drop < 0.15
    mean_drop = sum(row.accuracy_drop for row in rows) / len(rows)
    assert mean_drop < 0.08
