"""The set-up a user pays once per avgfusion invocation.

That is: import the package, fill its cached inputs and run one warm-up
trial. Run as a script, with the package on ``PYTHONPATH``, it times this
set-up in a fresh interpreter and prints ``{"setup_s": ..., "file": ...}``:

    python3 perfbench/setup_probe.py EXPERIMENT SEED
"""

from __future__ import annotations

import json
import sys
import time

CACHED_INPUTS = ("_fusion_input", "_bsm_target")


def set_up(experiment: str, seed: int):
    """Import avgfusion, fill ``sweep``'s cached inputs, run one trial of ``experiment``."""
    import avgfusion
    from avgfusion import sweep

    for name in CACHED_INPUTS:
        getattr(sweep, name, lambda: None)()
    trial = {
        "fusion": sweep.run_fusion_trial,
        "bsm": sweep.run_bsm_trial,
        "trace-distance": sweep.run_trace_trial,
    }[experiment]
    trial(1, 0.1, 0, sweep.trial_rng(seed, experiment, 1, 0, 0))
    return avgfusion


if __name__ == "__main__":
    t0 = time.perf_counter()
    package = set_up(sys.argv[1], int(sys.argv[2]))
    setup_s = time.perf_counter() - t0
    import statistics

    import speed

    reference_s = statistics.median(speed.reference_seconds() for _ in range(3))
    print(json.dumps({"setup_s": setup_s, "reference_s": reference_s, "file": package.__file__}))
