"""Two-superobserver Wigner's-friend scenario data model.

Alice intervenes with X, observing A; Bob with Y, observing B.  A friend
in Alice's wing records C (over A's outcome domain), and x = read_x is the
setting at which Alice opens the lab and copies C into A; symmetrically
for Bob, D, and read_y.  A Behavior records which superobserver outcome
combinations are possible in each measurement context.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from ._record import Record, json_object
from .formula import And, Atom, Implies, conj, disj

__all__ = [
    "ScenarioConfig",
    "Wing",
    "CellIndex",
    "Behavior",
    "PnsReport",
    "check_pns",
    "encode",
    "drop_impossibility",
    "behavior_from_json",
    "behavior_to_json",
]


class Wing(Record):
    """One party's labels and its marginal-event table.

    `events` maps each event (outcome, own setting) to one column of cells
    per setting of the other party: Alice's event (a, x) has the cells
    (a, b, x, y) over b for each y, and is possible at y iff one of them is.
    """

    index: int  # the outcome's position in a cell (a, b, x, y); the setting's is index + 2
    name: str  # "Alice", then the names of her outcome, setting and friend's record
    outcome: str
    setting: str
    record: str
    friend: bool
    read: object  # the setting at which the friend's record is read
    outcomes: tuple  # the outcome labels, which are also the record labels
    settings: tuple  # the party's setting labels
    events: dict


class CellIndex(Record):
    """The cells of a config as the bits of an int, for the table route.

    A set of cells is the sum of their bits; cell i of `cells` has the bit
    1 << i, so reading a mask's bits from the lowest gives config order
    (i = ((ia*nb + ib)*nx + ix)*ny + iy at the labels' positions).  `sweeps`
    holds what `plfcheck.maximal_subtable` shifts each wing's events by, and
    `off_record`, per friend and record, the cells its reading rule removes,
    so that no slice sums them again.
    """

    cells: tuple  # the cells in config order
    bit: dict  # cell -> its bit, in config order
    sweeps: tuple  # per wing, (fold shifts, spread shifts, base mask, base -> (event, columns))
    off_record: tuple  # per wing, record -> its read setting's cells of the other outcomes


class ScenarioConfig(Record):
    """The labels of a scenario and its friends; each field's default is the
    class attribute of its name."""

    x_values: tuple = (1, 2)
    y_values: tuple = (1, 2)
    a_values: tuple = (0, 1)
    b_values: tuple = (0, 1)
    friend_a: bool = False
    friend_b: bool = False
    read_x: int = 1
    read_y: int = 1

    def __post_init__(self):
        for name in ("x_values", "y_values", "a_values", "b_values"):
            vals = tuple(getattr(self, name))
            object.__setattr__(self, name, vals)
            if not vals:
                raise ValueError(f"{name} must be nonempty")
            for v in vals:
                _check_label(name, v)
            if len({str(v) for v in vals}) != len(vals):
                raise ValueError(f"{name} has labels that coincide as atom values: {list(vals)!r}")
        for name in ("read_x", "read_y"):
            _check_label(name, getattr(self, name))
        if self.friend_a and self.read_x not in self.x_values:
            raise ValueError("read_x must be one of x_values when friend_a is set")
        if self.friend_b and self.read_y not in self.y_values:
            raise ValueError("read_y must be one of y_values when friend_b is set")

    def cells(self):
        """All (a, b, x, y) keys in deterministic order."""
        return list(itertools.product(self.a_values, self.b_values, self.x_values, self.y_values))

    def contexts(self):
        return [(x, y) for x in self.x_values for y in self.y_values]

    @cached_property
    def wings(self) -> tuple:
        """(Alice's `Wing`, Bob's `Wing`), built once per config."""
        return (
            Wing(0, "Alice", "A", "X", "C", self.friend_a, self.read_x, self.a_values,
                 self.x_values,
                 {(a, x): {y: [(a, b, x, y) for b in self.b_values] for y in self.y_values}
                  for a in self.a_values for x in self.x_values}),
            Wing(1, "Bob", "B", "Y", "D", self.friend_b, self.read_y, self.b_values,
                 self.y_values,
                 {(b, y): {x: [(a, b, x, y) for a in self.a_values] for x in self.x_values}
                  for b in self.b_values for y in self.y_values}),
        )

    @cached_property
    def cell_index(self) -> CellIndex:
        """The `CellIndex` of this config, built once per config."""
        cells = tuple(self.cells())
        bit = {cell: 1 << i for i, cell in enumerate(cells)}
        nb, nx, ny = len(self.b_values), len(self.x_values), len(self.y_values)
        stride = (nb * nx * ny, nx * ny, ny, 1)  # of the entries a, b, x, y of a cell
        sweeps = []
        for wing, other in zip(self.wings, self.wings[::-1]):
            fold = tuple(k * stride[other.index] for k in range(1, len(other.outcomes)))
            spread = tuple(k * stride[other.index + 2] for k in range(1, len(other.settings)))
            column = sum(1 << k for k in (0, *fold))  # the cells of a column from bit 0
            events = {base: ((o, z), {s: column << (base + k)
                                      for s, k in zip(other.settings, (0, *spread))})
                      for i, o in enumerate(wing.outcomes) for j, z in enumerate(wing.settings)
                      for base in [i * stride[wing.index] + j * stride[wing.index + 2]]}
            sweeps.append((fold, spread, sum(1 << base for base in events), events))
        return CellIndex(cells, bit, tuple(sweeps), tuple(
            {r: sum(m for (o, z), cols in events.values() if z == wing.read and o != r
                    for m in cols.values()) for r in wing.outcomes} if wing.friend else {}
            for wing, (*_, events) in zip(self.wings, sweeps)))


class Behavior(Record):
    """Possibility table over (a, b, x, y), total over the domain product;
    immutable, since `cell_mask` is built once from `possible`, which must
    not be edited."""

    config: ScenarioConfig
    possible: dict[tuple, bool]

    def __post_init__(self):
        table = {}
        cells = self.config.cells()
        for cell in cells:
            if cell not in self.possible:
                raise ValueError(f"behavior table missing cell {cell}")
            table[cell] = bool(self.possible[cell])
        if len(self.possible) != len(cells):
            extra = set(self.possible) - set(cells)
            raise ValueError(f"behavior table has cells outside the domain: {sorted(extra)}")
        object.__setattr__(self, "possible", table)
        for (x, y) in self.config.contexts():
            if not any(table[(a, b, x, y)]
                       for a in self.config.a_values for b in self.config.b_values):
                raise ValueError(f"context (x={x}, y={y}) has no possible outcome")

    @cached_property
    def cell_mask(self) -> int:
        """The possible cells as a mask over the config's `cell_index`, built
        once per behavior."""
        bit = self.config.cell_index.bit
        return sum(itertools.compress(bit.values(), map(self.possible.__getitem__, bit)))

    @staticmethod
    def from_cells(config: ScenarioConfig, true_cells) -> "Behavior":
        """Behavior whose possible cells are exactly `true_cells`.

        Raises ValueError on a cell that is not one of `config.cells()`, entry
        by entry and of the same types (so `True` does not pass for `1`).
        """
        domain = {cell: cell for cell in config.cells()}
        true_cells = [tuple(c) for c in true_cells]
        outside = [c for c in true_cells if not _in_domain(domain, c)]
        if outside:
            raise ValueError(f"possible cells outside the domain: {outside}")
        true_cells = set(true_cells)
        return Behavior(config, {cell: cell in true_cells for cell in domain})


def _in_domain(domain: dict, cell: tuple) -> bool:
    """True iff `cell` is a key of `domain` with entries of the same types."""
    try:
        match = domain.get(cell)
    except TypeError:  # an unhashable entry, such as a list, labels nothing
        return False
    return match is not None and tuple(map(type, cell)) == tuple(map(type, match))


class PnsReport(Record):
    """Possibilistic no-signalling verdict; holds iff no violations."""

    holds: bool
    violations: tuple

    def __post_init__(self):
        object.__setattr__(self, "violations", tuple(self.violations))
        assert self.holds == (not self.violations)


def check_pns(beh: Behavior) -> PnsReport:
    """Each party's marginal possibilities must not depend on the other's setting.

    A violation (party, outcome, (x, y), (x', y')) names two contexts that
    disagree on whether one of the party's events is possible.
    """
    violations = []
    for wing in beh.config.wings:
        for (outcome, _), columns in wing.events.items():
            # the cells of one column share their context (x, y)
            possible = [(col[0][2:], any(beh.possible[cell] for cell in col))
                        for col in columns.values()]
            for (ctx1, p1), (ctx2, p2) in itertools.combinations(possible, 2):
                if p1 != p2:
                    violations.append((wing.outcome, outcome, ctx1, ctx2))
    return PnsReport(holds=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# Encoding to a depth-1 modal problem
# ---------------------------------------------------------------------------


def _check_label(name: str, value) -> None:
    """Raises ValueError unless `value` can label a setting or an outcome.

    Labels are ints or strings and enter the modal encoding as atom values
    `str(value)`; bools are refused because they compare equal to the
    integers 0 and 1, None because it marks an absent friend's record.
    """
    if isinstance(value, bool):
        raise ValueError(f"{name}: {value!r} is a bool, not a label")
    if not isinstance(value, (int, str)):
        raise ValueError(f"{name}: {value!r} is not a label (labels are ints or strings)")
    try:
        Atom("X", str(value))
    except ValueError:
        raise ValueError(f"{name}: {value!r} is not a label "
                         "(its text must be letters, digits or '_')") from None


def _chains(atom: dict, mask: dict, domains: dict, variables: list) -> list:
    """The right-nested conj of one atom per variable, with its grid mask, for
    every assignment to `variables`, in itertools.product order, built from
    the last variable up so equal tails are one node; `atom` and `mask` are
    keyed by (variable, atom text), as `domains` lists the values."""
    *head, last = variables
    chains = [(atom[last, v], mask[last, v]) for v in domains[last]]
    for var in reversed(head):
        chains = [(And(atom[var, v], f), mask[var, v] & m)
                  for v in domains[var] for f, m in chains]
    return chains


def encode(beh: Behavior) -> Depth1Problem:
    """The depth-1 modal problem whose satisfiability is PLF-compatibility.

    Emits, at the reference world:
      - Required / Forbidden for each possible / impossible behavior cell;
      - MustAll reading clauses: at the reading setting a superobserver's
        outcome copies the friend's record;
      - Conditional clauses: any possible assignment to the variables outside
        a setting's future light cone stays possible in conjunction with any
        value of that setting.  The cone holds only the party's own outcome,
        so a wing's pool is every variable but its outcome and its setting
        (B, C, D, Y for X with both friends).  Only finest assignments, which
        fix every pool variable, are emitted: the clauses for partial
        assignments follow from them.  Nor are the finest assignments that
        no point passing every reading clause satisfies (those that set
        another friend's wing to its read setting with an outcome off that
        friend's record): their clauses hold vacuously.  Nor, taking v as
        the first wing with a friend and two settings or more, those that
        set v to its read setting (Bob's events at X=read_x when Alice has
        a friend): their clauses follow from the others (docs/feasibility.md).
        Each clause is <>E -> <>(Z=z & E), its consequent built on E's own node.

    Exactly-one-value per variable is structural: every world of the search
    space is a total valuation point.

    atom_domains gives each variable's values as atom text, `str(label)`, in
    the order A, B, X, Y, then C and D for the friends present: a cell's
    variables come first, which `drop_impossibility` relies on.

    `_chains` builds each cell body and event and, over the atom masks, its
    mask; only the reading clauses are compiled, and `Depth1Problem._compiled`
    stores the fields as the constructor would compile them.
    """
    from .kripke import Conditional, Depth1Problem, Forbidden, MustAll, Required, _grid_masks, _sat
    cfg = beh.config
    # each variable's values as atom text, in atom_domains order
    domains = {w.outcome: w.outcomes for w in cfg.wings}
    domains |= {w.setting: w.settings for w in cfg.wings}
    domains |= {w.record: w.outcomes for w in cfg.wings if w.friend}
    domains = {var: tuple(map(str, vals)) for var, vals in domains.items()}
    atom = {(var, v): Atom(var, v) for var, vals in domains.items() for v in vals}
    grid, g = _grid_masks(domains)

    # the cell bodies in cell order: outcomes, then settings
    cell_vars = [w.outcome for w in cfg.wings] + [w.setting for w in cfg.wings]
    constraints, reqs, start = [], [], g.full
    for cell, (body, body_mask) in zip(cfg.cells(), _chains(atom, g.masks, domains, cell_vars)):
        if beh.possible[cell]:
            constraints.append(Required(body))
            reqs.append((constraints[-1], body_mask))
        else:
            constraints.append(Forbidden(body))
            start &= ~body_mask

    admitted, memo = g.full, {}  # the points that pass every reading clause
    for w in cfg.wings:
        if w.friend:
            constraints.append(MustAll(Implies(
                atom[w.setting, str(w.read)],
                disj([conj([atom[w.outcome, v], atom[w.record, v]]) for v in domains[w.outcome]]),
            )))
            admitted &= _sat(g, constraints[-1].body, memo)

    # an event no admitted point satisfies is vacuous, and one that sets v
    # to its read setting follows from the others: neither is emitted
    v = next((w for w in cfg.wings if w.friend and len(w.settings) > 1), None)
    live = admitted & ~g.masks[v.setting, str(v.read)] if v else admitted
    conds = []
    for w in cfg.wings:
        pool = sorted(domains.keys() - {w.outcome, w.setting})
        settings = [(atom[w.setting, z], g.masks[w.setting, z]) for z in domains[w.setting]]
        conds += [(Conditional(event, And(setting, event)), ant, setting_mask & ant)
                  for event, ant in _chains(atom, g.masks, domains, pool) if ant & live
                  for setting, setting_mask in settings]
    constraints += [c for c, _, _ in conds]

    return Depth1Problem._compiled(domains, tuple(constraints), grid, start & admitted,
                                   tuple(conds), tuple(reqs))


def drop_impossibility(problem: Depth1Problem, cell) -> Depth1Problem:
    """The problem with the Forbidden clause for one behavior cell removed.

    Used to show a single impossibility assumption is load-bearing.
    Raises if the cell is not forbidden in the problem.
    """
    from .kripke import Depth1Problem, Forbidden
    # the body as encode builds it; a cell's variables come first in atom_domains
    body = conj([Atom(var, str(v)) for var, v in zip(problem.atom_domains, cell)])
    kept = tuple(c for c in problem.constraints
                 if not (isinstance(c, Forbidden) and c.body == body))
    if len(kept) != len(problem.constraints) - 1:
        raise ValueError(f"cell {cell} is not forbidden exactly once")
    return Depth1Problem(problem.atom_domains, kept)


# ---------------------------------------------------------------------------
# JSON behavior files
# ---------------------------------------------------------------------------

_CONFIG_FIELDS = ScenarioConfig._fields

# the config of the last behavior read: a stream of behaviors over one
# scenario then shares one config, and so builds its `wings` once
_last_config = [None]


def behavior_from_json(data) -> Behavior:
    """Behavior from its JSON dict form; `possible` lists the true cells.

    A config equal to the previous call's is replaced by that one.
    """
    data = json_object(data, {*_CONFIG_FIELDS, "possible"}, "behavior file")
    for name in _CONFIG_FIELDS:
        # the value lists default to tuples, the friend flags to bools
        default = getattr(ScenarioConfig, name)
        if isinstance(default, tuple) and not isinstance(data[name], list):
            raise ValueError(f"{name} must be a list of labels")
        if isinstance(default, bool) and not isinstance(data[name], bool):
            raise ValueError(f"{name} must be true or false")
    cfg = ScenarioConfig(**{name: data[name] for name in _CONFIG_FIELDS})
    # the checks leave only bool flags and non-bool int or str labels, so
    # equal configs label alike
    if cfg == _last_config[0]:
        cfg = _last_config[0]
    else:
        _last_config[0] = cfg
    possible = data["possible"]
    if not isinstance(possible, list) or not all(isinstance(c, list) for c in possible):
        raise ValueError("possible must be a list of [a, b, x, y] cells")
    return Behavior.from_cells(cfg, [tuple(c) for c in possible])


def behavior_to_json(beh: Behavior) -> dict:
    cfg = beh.config
    doc = {}
    for name in _CONFIG_FIELDS:
        value = getattr(cfg, name)
        doc[name] = list(value) if isinstance(getattr(ScenarioConfig, name), tuple) else value
    doc["possible"] = [list(cell) for cell in cfg.cells() if beh.possible[cell]]
    return doc
