"""Record reference traces of the default mission and the noisy hover.

Run from the repository root:

    PYTHONPATH=src python tests/data/make_reference.py

It writes `reference_traces.npz` next to this file.  For each of the four
default-mission variants it keeps every 100th row of the 38 numeric CSV
columns (the printed part of each record, without the gap); for
`NOISY_HOVER` of `tests/test_harness.py` it keeps every row.
Each case also keeps its per-tick mode sequence (run-length encoded), its
events, its tick count and `metrics.to_dict()`.

`test_matches_pre_scalar_reference` compares new runs against this file, so
a change that moves trajectories by rounding only can show that modes,
events and tick counts are unchanged and every value stays within its stated
tolerance.  The committed file was recorded with the numpy-array
implementation, before `vehicle.integrate` and then every other stage of the
tick moved to plain floats; regenerate it only on purpose.
"""

import json
import sys
from pathlib import Path

import numpy as np

from perchsim.metrics import _COL, _NUM_COLUMNS

HERE = Path(__file__).resolve().parent
OUT = HERE / "reference_traces.npz"
MISSION_STRIDE = 100
VARIANTS = ("proposed", "no-transitions-rho0", "no-transitions-rho0.5",
            "no-freeze")


def summary(result, stride):
    """The arrays that stand for one run: sampled rows, modes, events..."""
    modes = result.modes
    starts = [i for i in range(len(modes))
              if i == 0 or modes[i] != modes[i - 1]]
    return {
        "rows": result.rows[::stride, [_COL[c] for c in _NUM_COLUMNS]],
        "stride": np.array(stride),
        "mode_names": np.array([modes[i] for i in starts]),
        "mode_runs": np.diff(starts + [len(modes)]),
        "ticks": np.array(len(modes)),
        "events": np.array(json.dumps(result.events)),
        "metrics": np.array(json.dumps(result.metrics.to_dict())),
    }


def cases():
    """(name, result, stride) of every recorded run."""
    sys.path.insert(0, str(HERE.parent))
    from test_harness import NOISY_HOVER

    from perchsim.acceptance import run_variant
    from perchsim.harness import run_scenario
    from perchsim.scenario import parse_scenario

    for variant in VARIANTS:
        yield variant, run_variant(variant), MISSION_STRIDE
    yield "noisy-hover", run_scenario(parse_scenario(NOISY_HOVER)), 1


def main():
    arrays = {}
    for name, result, stride in cases():
        for key, value in summary(result, stride).items():
            arrays[f"{name}.{key}"] = value
        print(f"{name}: {len(result.modes)} ticks, "
              f"{len(result.events)} events")
    np.savez_compressed(OUT, **arrays)
    print(f"wrote {OUT} ({OUT.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
