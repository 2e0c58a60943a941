"""Seeded input streams for the benchmark workloads.

Every input is behavior JSON text, built here without the library, so the
program under test only ever sees generated inputs.  A stream is a pure
function of its seed.  Inputs come in shuffled blocks that hold each
stratum (scenario size, density band, Hardy share) equally often, so any
prefix of a stream has nearly the same op mix whatever the seed.
"""

from __future__ import annotations

import json
import random

# Hardy's scenario: 2 settings x 2 outcomes per party, both friends, read settings 1.
HARDY_SCENARIO = {
    "x_values": [1, 2], "y_values": [1, 2], "a_values": [0, 1], "b_values": [0, 1],
    "friend_a": True, "friend_b": True, "read_x": 1, "read_y": 1,
}
HARDY_DENSITY = (0.5, 0.95)    # about 34% of these behaviors are PLF-feasible
HARDY_BLOCK = 16               # one Hardy behavior in every 16 inputs
LADDER_DENSITY = (0.9, 0.97)   # about 90% feasible
LADDER_SIZES = ((3, 2), (2, 3), (3, 3))  # (settings, outcomes) per party
LADDER_BANDS = 3               # density bands per size in one ladder block
LABELS = range(1000)           # setting and outcome labels are drawn from here


def cells(scn):
    return [(a, b, x, y) for a in scn["a_values"] for b in scn["b_values"]
            for x in scn["x_values"] for y in scn["y_values"]]


def behavior_text(rng: random.Random, scn: dict, density: float) -> str:
    """Each cell possible with probability `density`; an empty context gets one cell."""
    all_cells = cells(scn)
    possible = {cell for cell in all_cells if rng.random() < density}
    for x in scn["x_values"]:
        for y in scn["y_values"]:
            context = [(a, b, x, y) for a in scn["a_values"] for b in scn["b_values"]]
            if not possible.intersection(context):
                possible.add(rng.choice(context))
    return json.dumps(dict(scn, possible=[list(c) for c in all_cells if c in possible]))


def all_possible_text(scn: dict) -> str:
    return json.dumps(dict(scn, possible=[list(c) for c in cells(scn)]))


def _band(rng, lo, hi, k, n):
    return lo + (hi - lo) * (k + rng.random()) / n


def hardy_stream(seed: int, hardy_text: str):
    """Yields (text, expected feasibility or None) on Hardy's scenario forever."""
    rng = random.Random(f"decide-hardy/{seed}")
    n = HARDY_BLOCK - 1
    while True:
        block = [(behavior_text(rng, HARDY_SCENARIO, _band(rng, *HARDY_DENSITY, k, n)), None)
                 for k in range(n)]
        block.append((hardy_text, False))
        rng.shuffle(block)
        yield from block


def ladder_scenario(rng: random.Random, settings: int, outcomes: int) -> dict:
    xs, ys = rng.sample(LABELS, settings), rng.sample(LABELS, settings)
    return {
        "x_values": xs, "y_values": ys,
        "a_values": rng.sample(LABELS, outcomes), "b_values": rng.sample(LABELS, outcomes),
        "friend_a": True, "friend_b": True,
        "read_x": rng.choice(xs), "read_y": rng.choice(ys),
    }


def ladder_stream(seed: int):
    """Yields (text, None) on scenarios larger than Hardy's, with fresh labels per input."""
    rng = random.Random(f"decide-ladder/{seed}")
    while True:
        block = [behavior_text(rng, ladder_scenario(rng, *size),
                               _band(rng, *LADDER_DENSITY, k, LADDER_BANDS))
                 for size in LADDER_SIZES for k in range(LADDER_BANDS)]
        rng.shuffle(block)
        for text in block:
            yield text, None
