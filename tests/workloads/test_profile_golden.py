"""Golden pin of the workload sparsity profiles.

Every downstream number (Fig. 7 speedups, energies, the serve and sweep
byte-identity contracts) is computed from :func:`profile_model`, so the
profiles are pinned exactly: a sha256 over the per-layer thresholds,
active columns, zero-bit ratios and storage utilisation of every workload,
at seed 0 and both IPU group sizes.  The digests were captured before the
lookup-table FTA landed; any profiling change that moves a single number
fails here.  If a change is *meant* to move the profiles, recapture with::

    PYTHONPATH=src python tests/workloads/test_profile_golden.py
"""

import hashlib
import json

import pytest

from repro.workloads.models import get_workload, list_workloads
from repro.workloads.profiles import profile_model

GOLDEN_DIGESTS = {
    8: "f7a3d2fd5a084743d465f64c8e9546a69a666002789bfab8a056e8446cbacb9b",
    16: "c647e46c3d7f1344c369c2b98f5854159051b791a66884b6e9184c8673b807d7",
}


def profile_digest(input_group: int, seed: int = 0) -> str:
    """sha256 of every workload's profile numbers (floats by ``repr``)."""
    rows = []
    for name in list_workloads(None):
        profile = profile_model(get_workload(name), seed=seed, input_group=input_group)
        for layer in profile:
            rows.append(
                [
                    name,
                    layer.layer.name,
                    list(layer.thresholds),
                    repr(layer.input_active_columns),
                    repr(layer.weight_zero_bit_ratio),
                    repr(layer.weight_zero_bit_ratio_binary),
                    repr(layer.storage_utilization),
                ]
            )
    payload = json.dumps(rows, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


def test_every_workload_is_pinned():
    assert len(list_workloads(None)) == 7


@pytest.mark.parametrize("input_group", sorted(GOLDEN_DIGESTS))
def test_profiles_match_golden_digest(input_group):
    assert profile_digest(input_group) == GOLDEN_DIGESTS[input_group]


if __name__ == "__main__":
    for group in sorted(GOLDEN_DIGESTS):
        print(f"    {group}: \"{profile_digest(group)}\",")
