import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from plfkit.quantum import hardy_behavior
from plfkit.scenario import Behavior, ScenarioConfig

DEFAULT_CONFIG = ScenarioConfig(friend_a=True, friend_b=True)


def random_behavior(rng: random.Random, config: ScenarioConfig = DEFAULT_CONFIG,
                    p: float = 0.5) -> Behavior:
    """Uniform random behavior; empty contexts get one cell forced on."""
    table = {cell: rng.random() < p for cell in config.cells()}
    for (x, y) in config.contexts():
        context = [(a, b, x, y) for a in config.a_values for b in config.b_values]
        if not any(table[c] for c in context):
            table[rng.choice(context)] = True
    return Behavior(config, table)


def names_reached(modules, *functions) -> set:
    """Every name the functions' code mentions, nested code objects included,
    following each function, method or property of `modules` whose name the
    code mentions."""
    follow: dict = {}
    for mod in modules:
        for name, value in vars(mod).items():
            if getattr(value, "__module__", None) != mod.__name__:
                continue
            members = vars(value).items() if isinstance(value, type) else [(name, value)]
            for attr, member in members:
                fn = getattr(member, "func", None) or getattr(member, "fget", None) or member
                if hasattr(fn, "__code__"):
                    follow.setdefault(attr, []).append(fn.__code__)
    names, seen = set(), set()
    todo = [fn.__code__ for fn in functions]
    while todo:
        code = todo.pop()
        if code in seen:
            continue
        seen.add(code)
        mentioned = code.co_names + code.co_varnames + code.co_freevars
        names.update(mentioned)
        todo += [c for c in code.co_consts if hasattr(c, "co_names")]
        for name in mentioned:
            todo += follow.get(name, [])
    return names


@pytest.fixture(scope="session")
def hardy_beh():
    return hardy_behavior()


@pytest.fixture
def rng():
    return random.Random(20260823)
