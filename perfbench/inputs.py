"""Workload inputs generated from the benchmark seed.

`mission` and `ablate` fly the built-in perch/unperch mission, whose CSV is
pinned by the golden SHA-256, so their inputs are the same for every seed.
`hover-sweep` draws its hover scenarios from the seed.  Every draw keeps the
number of ticks fixed (so wall time does not depend on the seed) and stays
inside the envelope where the controller settles without saturating.

Pure Python: `random.Random` is stable across Python versions, and this
module imports nothing from perchsim.
"""

import hashlib
import random

WORKLOADS = ("mission", "ablate", "hover-sweep")

HOVER_RUNS = 4
HOVER_DURATION_S = 2.5
HOVER_DISTURBANCES = 2


def hover_sweep_texts(seed):
    """Scenario texts (schema_version = 1) of one hover sweep."""
    rng = random.Random(seed)
    texts = []
    for i in range(HOVER_RUNS):
        offset = " ".join(f"{rng.uniform(-0.03, 0.03):.5f}" for _ in range(3))
        lines = [
            "schema_version = 1",
            f"name = hover-sweep-{seed}-{i}",
            "mission = hover",
            f"duration = {HOVER_DURATION_S}",
            f"seed = {rng.randrange(2 ** 31)}",
            f"noise_std_pos = {rng.uniform(0.0005, 0.002):.6f}",
            f"noise_std_vel = {rng.uniform(0.005, 0.02):.6f}",
            f"hover_pitch = {rng.uniform(-0.6, 0.6):.6f}",
            f"initial_offset = {offset}",
        ]
        for _ in range(HOVER_DISTURBANCES):
            t0 = rng.uniform(0.1, 0.8)
            t1 = t0 + rng.uniform(0.1, 0.4)
            force = [rng.uniform(-1.0, 1.0) for _ in range(3)]
            accel = [rng.uniform(-0.5, 0.5) for _ in range(3)]
            vals = " ".join(f"{x:.5f}" for x in [t0, t1, *force, *accel])
            lines.append(f"disturbance = {vals}")
        texts.append("\n".join(lines) + "\n")
    return texts


def workload_inputs(workload, seed):
    """Scenario texts handed to perchsim; empty for the built-in mission."""
    return hover_sweep_texts(seed) if workload == "hover-sweep" else []


def digest(texts):
    """SHA-256 over the scenario texts, so reruns can show equal inputs."""
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()
