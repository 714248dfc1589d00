"""Regenerate ``perfbench/digests.json``, the workloads' reference results.

Every point is computed on its own through the façade --
``Experiment(config, seed).run(experiment, models=[model]).to_dict()`` --
not through the sweep or serve machinery the benchmark times, so a sweep
or a daemon that merges, caches or restores points wrongly shows up as a
digest mismatch.

Usage (from the root of a checkout)::

    python3 perfbench/make_digests.py

Only rerun it when a change is *meant* to alter results, and say so.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Sequence

from common import DIGESTS, PRESETS, PAPER_MODELS, pack_digests, use_checkout_sources


def _points(
    experiments: Sequence[str], configs: Sequence[str], seed: int
) -> List[Dict]:
    from repro.api import Experiment
    from repro.api.experiment import get_experiment_spec

    payloads = []
    for config in configs:
        session = Experiment(config, seed=seed)
        for experiment in experiments:
            if get_experiment_spec(experiment).takes_models:
                for model in PAPER_MODELS:
                    result = session.run(experiment, models=[model])
                    payloads.append(result.to_dict())
            else:
                payloads.append(session.run(experiment).to_dict())
    return payloads


def main() -> int:
    use_checkout_sources()
    import serve
    import sweeps

    digests: Dict[str, object] = {
        "format": (
            "per experiment seed: the 12-hex sha256 prefixes of each point's "
            "json.dumps(ExperimentResult.to_dict(), sort_keys=True), "
            "concatenated in sorted 'experiment|config|models' order"
        ),
        "cold-dse": {
            str(sweeps.COLD_EXPERIMENT_SEED): pack_digests(
                _points(("fig7",), sweeps.COLD_PRESETS, sweeps.COLD_EXPERIMENT_SEED)
            )
        },
    }
    warm: Dict[str, str] = {}
    for variant in range(sweeps.WARM_VARIANTS):
        base, fresh = sweeps.warm_seeds(variant)
        for seed in base:
            warm[str(seed)] = pack_digests(
                _points(sweeps.WARM_EXPERIMENTS, PRESETS, seed)
            )
        for seed in fresh:
            warm[str(seed)] = pack_digests(
                _points(sweeps.FRESH_EXPERIMENTS, PRESETS, seed)
            )
        print(f"warm variant {variant} done", file=sys.stderr)
    digests["warm-resweep"] = warm
    digests["serve-mix"] = {
        str(serve.EXPERIMENT_SEED): pack_digests(
            _points(serve.EXPERIMENTS, PRESETS, serve.EXPERIMENT_SEED)
        )
    }
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
