"""Finite Kripke models, the modal truth-condition evaluator, and an exact
satisfiability decision for depth-1 problems.

The evaluator is the labelling algorithm: it computes the extension of a
formula, the set of worlds where it holds, bottom-up as a bitmask over the
worlds, which each model numbers once.  The model also keeps each atom's
valuation as a mask and, for every world with successors, the mask of its
successors.  <>phi holds at the worlds whose successor mask meets
ext(phi); []phi at every world but those whose successor mask meets the
complement of ext(phi), so dead ends make every []phi true and every <>phi
false.  evaluate and valid read one extension; they share no code with the
depth-1 solver below, so recheck_model is an independent check of its
models.  A formula may hold one And node in many places (encode shares
event chains across clauses), so each distinct And node, told apart by
id(), is labelled once per model: once per call of evaluate or valid, once
per recheck_model over all its clauses.  recheck_model labels each clause's
bodies and applies the clause's <> or [] step at w0 through the helpers
the evaluator uses, so it builds no clause_formula; that function remains
the one spelling of a clause as a modal formula.  Nor does it build a
KripkeModel: it reads the masks those helpers use straight from the points.

A depth-1 problem is a conjunction of constraints evaluated at a single
reference world w0, each of one of the shapes

    MustAll(phi)           from  []phi
    Forbidden(phi)         from  ~<>phi
    Required(phi)          from  <>phi
    Conditional(phi, psi)  from  <>phi -> <>psi

with phi, psi propositional over finite-domain atoms.  Because every
constraint lives at w0 and has modal depth 1, only the *set* of worlds
accessible from w0 matters, and each accessible world is fully described
by a total assignment of values to variables: a point, the sorted tuple
of its (variable, value) pairs.  The family of satisfying world-sets is
closed under union, so the unique maximal candidate is found by
deflation: start from all points passing the MustAll/Forbidden filters,
and repeatedly delete the antecedent points of any Conditional whose
consequent has no remaining witness.

Building a Depth1Problem compiles it: the grid is its points, each built
once; one walk over each clause body yields the bitmask of the grid points
where the body holds, and that walk is also the fragment check (no modal
operator in a body, no variable outside atom_domains).  It too compiles
each distinct And node once per problem.  solve_depth1 only deflates the
stored masks, and its result selects the grid points of its bits.
scenario.encode compiles a shape's light-cone skeleton once and a behavior's
cell and reading clauses per call, through the private Depth1Problem._compiled;
copy, pickle and drop_impossibility build through the public constructor.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

from ._record import Record, json_object
from .formula import (
    And,
    Atom,
    Box,
    Diamond,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    parse,
    render,
)

__all__ = [
    "KripkeModel",
    "UnknownWorldError",
    "evaluate",
    "valid",
    "model_from_json",
    "model_to_json",
    "MustAll",
    "Forbidden",
    "Required",
    "Conditional",
    "Clause",
    "FragmentError",
    "Depth1Problem",
    "Model",
    "Unsat",
    "UnsatCore",
    "SatResult",
    "solve_depth1",
    "clause_formula",
    "points_to_model",
    "recheck_model",
]


class UnknownWorldError(KeyError):
    pass


class KripkeModel(Record):
    """Worlds W, accessibility relation R and valuation V.

    Atoms absent from the valuation are false at every world.  No frame
    conditions (reflexivity, seriality, ...) are imposed.
    """

    worlds: frozenset
    relation: frozenset
    valuation: dict[Atom, frozenset]

    def __post_init__(self):
        object.__setattr__(self, "worlds", frozenset(self.worlds))
        object.__setattr__(self, "relation", frozenset(map(tuple, self.relation)))
        object.__setattr__(
            self, "valuation",
            {atom: frozenset(ws) for atom, ws in self.valuation.items()},
        )
        if not self.worlds:
            raise ValueError("worlds must be nonempty")
        # the worlds numbered once, in any order: names need only be hashable
        bit = {w: 1 << i for i, w in enumerate(self.worlds)}
        succ: dict = {}
        for (u, v) in self.relation:
            if u not in bit or v not in bit:
                raise ValueError(f"relation pair ({u!r}, {v!r}) mentions unknown world")
            succ[u] = succ.get(u, 0) | bit[v]
        masks = {}
        for atom, ws in self.valuation.items():
            if not isinstance(atom, Atom):
                raise TypeError(f"valuation key is not an Atom: {atom!r}")
            if not ws <= self.worlds:
                bad = ws - self.worlds
                raise ValueError(f"valuation of {render(atom)} mentions unknown worlds {sorted(bad)}")
            # the bits are distinct, so their sum is their OR
            masks[atom.variable, atom.value] = sum(map(bit.__getitem__, ws))
        object.__setattr__(self, "_bit", bit)
        object.__setattr__(self, "_full", (1 << len(bit)) - 1)
        object.__setattr__(self, "_masks", masks)
        # (world bit, successor mask) for each world with successors only
        object.__setattr__(self, "_succ", tuple((bit[u], s) for u, s in succ.items()))


def _diamond(m: KripkeModel, inside: int) -> int:
    """The worlds of m with some successor in `inside`; dead ends have none."""
    ext = 0
    for b, succ in m._succ:
        if succ & inside:
            ext |= b
    return ext


def _box(m: KripkeModel, inside: int) -> int:
    """The worlds of m with no successor outside `inside`; dead ends qualify."""
    outside = m._full ^ inside
    ext = m._full
    for b, succ in m._succ:
        if succ & outside:
            ext ^= b
    return ext


def _extension(m: KripkeModel, f: Formula, memo: dict) -> int:
    """The bitmask of the worlds of m where f holds, labelled bottom-up.

    memo maps id() of each And node labelled so far to its extension, so a
    node shared by many formulas is labelled once; the caller keeps every
    node it holds alive for as long as the memo lives.  One frame per
    nesting level, so any formula parse accepts is labelled.
    """
    t = type(f)
    if t is Atom:
        return m._masks.get((f.variable, f.value), 0)
    if t is And:
        key = id(f)
        ext = memo.get(key)
        if ext is None:
            ext = memo[key] = _extension(m, f.left, memo) & _extension(m, f.right, memo)
        return ext
    if t is Diamond:
        return _diamond(m, _extension(m, f.child, memo))
    if t is Not:
        return m._full ^ _extension(m, f.child, memo)
    if t is Implies:
        return m._full ^ (_extension(m, f.left, memo) & ~_extension(m, f.right, memo))
    if t is Box:
        return _box(m, _extension(m, f.child, memo))
    if t is Or:
        return _extension(m, f.left, memo) | _extension(m, f.right, memo)
    if t is Iff:
        return m._full ^ _extension(m, f.left, memo) ^ _extension(m, f.right, memo)
    raise TypeError(f"not a Formula: {f!r}")


def evaluate(m: KripkeModel, w, f: Formula) -> bool:
    """Truth of f at world w of m."""
    if w not in m.worlds:
        raise UnknownWorldError(w)
    return bool(_extension(m, f, {}) & m._bit[w])


def valid(m: KripkeModel, f: Formula) -> bool:
    """True iff f holds at every world of m."""
    return _extension(m, f, {}) == m._full


# ---------------------------------------------------------------------------
# JSON model files
# ---------------------------------------------------------------------------


def model_from_json(data) -> KripkeModel:
    """Build a model from the JSON dict form; unknown keys are rejected."""
    data = json_object(data, {"worlds", "relation", "valuation"}, "model file")
    _check_names(data["worlds"], "worlds")
    if not isinstance(data["relation"], list):
        raise ValueError("relation must be a list of [world, world] pairs")
    for pair in data["relation"]:
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValueError(f"relation entry is not a [world, world] pair: {pair!r}")
        _check_names(pair, "relation pair")
    if not isinstance(data["valuation"], dict):
        raise ValueError("valuation must be an object from atoms to lists of worlds")
    valuation = {}
    for key, worlds in data["valuation"].items():
        atom = parse(key)
        if not isinstance(atom, Atom):
            raise ValueError(f"valuation key is not an atom: {key!r}")
        if atom in valuation:
            # "A" and "A=true" name one atom: neither may overwrite the other
            raise ValueError(f"valuation lists the atom {render(atom)} more than once")
        _check_names(worlds, f"valuation of {key}")
        valuation[atom] = worlds
    return KripkeModel(worlds=data["worlds"], relation=data["relation"], valuation=valuation)


def _check_names(names, what: str) -> None:
    if not isinstance(names, list) or not all(isinstance(w, str) for w in names):
        raise ValueError(f"{what} must be a list of world names (strings), got {names!r}")


def model_to_json(m: KripkeModel) -> dict:
    return {
        "worlds": sorted(m.worlds),
        "relation": sorted([u, v] for (u, v) in m.relation),
        "valuation": {render(a): sorted(ws) for a, ws in sorted(m.valuation.items(), key=lambda kv: render(kv[0]))},
    }


# ---------------------------------------------------------------------------
# Depth-1 fragment
# ---------------------------------------------------------------------------


class FragmentError(ValueError):
    """Constraint outside the MustAll/Forbidden/Required/Conditional fragment."""


class _BodyClause(Record):
    __slots__ = _fields = ("body",)

    def __init__(self, body: Formula):
        _set_body(self, body)


class MustAll(_BodyClause):
    __slots__ = ()


class Forbidden(_BodyClause):
    __slots__ = ()


class Required(_BodyClause):
    __slots__ = ()


class Conditional(Record):
    __slots__ = _fields = ("antecedent", "consequent")

    def __init__(self, antecedent: Formula, consequent: Formula):
        _set_antecedent(self, antecedent)
        _set_consequent(self, consequent)


# the slots' own setters, as for the formula nodes
_set_body = _BodyClause.body.__set__
_set_antecedent, _set_consequent = Conditional.antecedent.__set__, Conditional.consequent.__set__

Clause = MustAll | Forbidden | Required | Conditional


def clause_formula(c: Clause) -> Formula:
    """The modal formula a clause stands for, for evaluator-based rechecks."""
    if isinstance(c, MustAll):
        return Box(c.body)
    if isinstance(c, Forbidden):
        return Not(Diamond(c.body))
    if isinstance(c, Required):
        return Diamond(c.body)
    if isinstance(c, Conditional):
        return Implies(Diamond(c.antecedent), Diamond(c.consequent))
    raise TypeError(f"not a clause: {c!r}")


class Depth1Problem(Record):
    """A conjunction of depth-1 clauses over finite variable domains.

    Building a problem compiles it: every clause body becomes the bitmask of
    the grid points (total assignments, in itertools.product order over the
    sorted variables) where it holds, and the MustAll and Forbidden masks
    fold into one start mask.  That one walk over each body is also the
    fragment check.  It raises FragmentError on a constraint that is not
    a clause or a body with a modal operator, and ValueError on an empty
    domain, a domain value that is not a str or a variable missing from
    atom_domains.  An atom whose variable is known but whose value is
    outside its domain holds at no point.
    """

    atom_domains: dict[str, tuple]
    constraints: tuple
    _derived = ("_grid", "_start", "_conds", "_reqs")  # what _compile returns, in order

    def __post_init__(self):
        object.__setattr__(
            self, "atom_domains",
            {var: tuple(vals) for var, vals in self.atom_domains.items()},
        )
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for var, vals in self.atom_domains.items():
            if not vals:
                raise ValueError(f"empty domain for {var}")
            # the compile, the recheck and points_to_model take values as they are
            for val in vals:
                if not isinstance(val, str):
                    raise ValueError(f"domain of {var} holds {val!r}, not a str")
        for name, value in zip(self._derived, _compile(self.atom_domains, self.constraints)):
            object.__setattr__(self, name, value)

    @classmethod
    def _compiled(cls, *fields) -> "Depth1Problem":
        """The problem of atom_domains, constraints and what `_compile` gives
        them, stored unchecked: encode's path."""
        p = object.__new__(cls)
        for name, value in zip(cls._fields + cls._derived, fields, strict=True):
            object.__setattr__(p, name, value)
        return p


class UnsatCore(Record):
    """Why a Required clause cannot be covered.

    never_candidates: its witnesses excluded up front by MustAll/Forbidden,
    removals: the Conditional deflation steps that emptied the rest.
    Each point is a sorted tuple of (variable, value) pairs.
    """

    required: Required
    never_candidates: tuple  # points failing the MustAll/Forbidden filter, in grid order
    removals: tuple  # (Conditional, (removed candidate points...)) in firing order


class Model(Record):
    points: frozenset  # of points: sorted ((variable, value), ...) tuples


class Unsat(Record):
    core: UnsatCore


SatResult = Model | Unsat


def _compile(atom_domains, constraints) -> tuple[list, int, tuple, tuple]:
    """The grid, the mask of the points passing every MustAll and Forbidden,
    and the (Conditional, antecedent mask, consequent mask) and (Required,
    mask) lists in constraint order; checks the fragment on the way."""
    variables = sorted(atom_domains)
    # each grid entry is a point, built of pairs shared with the other points
    grid = list(itertools.product(*([(v, val) for val in atom_domains[v]] for v in variables)))
    full = (1 << len(grid)) - 1
    # in product order, value j of a variable holds on a run of `stride`
    # points starting at j * stride, repeated every `period` points
    atom_masks: dict = {}
    stride = len(grid)
    for var in variables:
        vals = atom_domains[var]
        period, stride = stride, stride // len(vals)
        repeat = full // ((1 << period) - 1)
        for j, val in enumerate(vals):
            run = ((1 << stride) - 1) << (j * stride)
            atom_masks[var, val] = atom_masks.get((var, val), 0) | run * repeat

    # the memo maps id() of each And node compiled so far to its mask:
    # encode shares chain tails and antecedents across clauses, so each is
    # compiled once; constraints keeps every node alive while the memo lives
    g, memo = SimpleNamespace(masks=atom_masks, domains=atom_domains, full=full), {}
    start = full
    conds, reqs = [], []
    for c in constraints:
        # the clause kinds are disjoint; Conditionals are the most numerous
        if isinstance(c, Conditional):
            conds.append((c, _sat(g, c.antecedent, memo), _sat(g, c.consequent, memo)))
        elif isinstance(c, Required):
            reqs.append((c, _sat(g, c.body, memo)))
        elif isinstance(c, Forbidden):
            start &= ~_sat(g, c.body, memo)
        elif isinstance(c, MustAll):
            start &= _sat(g, c.body, memo)
        else:
            raise FragmentError(f"constraint outside the depth-1 fragment: {c!r}")
    return grid, start, tuple(conds), tuple(reqs)


def _sat(g, f: Formula, memo: dict) -> int:
    """The mask of the grid points where the propositional body f holds;
    g holds _compile's atom masks, domains and full mask, memo its And masks."""
    t = type(f)
    if t is Atom:
        mask = g.masks.get((f.variable, f.value))
        if mask is not None:
            return mask
        if f.variable not in g.domains:
            raise ValueError(f"variable {f.variable} not in atom_domains")
        return 0
    if t is And:
        key = id(f)
        mask = memo.get(key)
        if mask is None:
            mask = memo[key] = _sat(g, f.left, memo) & _sat(g, f.right, memo)
        return mask
    if t is Not:
        return g.full & ~_sat(g, f.child, memo)
    if t is Or:
        return _sat(g, f.left, memo) | _sat(g, f.right, memo)
    if t is Implies:
        return (g.full & ~_sat(g, f.left, memo)) | _sat(g, f.right, memo)
    if t is Iff:
        return g.full & ~(_sat(g, f.left, memo) ^ _sat(g, f.right, memo))
    if t is Diamond or t is Box:
        raise FragmentError(f"modal operator inside clause body: {render(f)}")
    raise TypeError(f"not a propositional formula: {f!r}")


def solve_depth1(p: Depth1Problem) -> SatResult:
    """Decide the depth-1 problem exactly via greatest-fixpoint deflation."""
    start = p._start
    current = start
    removal_log: list[tuple[Conditional, int]] = []
    changed = True
    while changed:
        changed = False
        for c, ant, cons in p._conds:
            if (current & ant) and not (current & cons):
                removal_log.append((c, current & ant))
                current &= ~ant
                changed = True

    for c, mask in p._reqs:
        if not (current & mask):
            never = mask & ~start
            removals = []
            alive = mask & start
            for cond, removed in removal_log:
                hit = removed & alive
                if hit:
                    removals.append((cond, _points(p, hit)))
                    alive &= ~hit
            core = UnsatCore(
                required=c,
                never_candidates=_points(p, never),
                removals=tuple(removals),
            )
            return Unsat(core)

    return Model(frozenset(_points(p, current)))


def _points(p: Depth1Problem, mask: int) -> tuple:
    """The points of the grid bits set in mask, in grid order."""
    # bin() lists the bits high to low, so the reversed digits are bits 0, 1, ...
    return tuple(itertools.compress(p._grid, map("1".__eq__, bin(mask)[:1:-1])))


# ---------------------------------------------------------------------------
# Evaluator-based recheck of a returned model
# ---------------------------------------------------------------------------


def points_to_model(p: Depth1Problem, points) -> KripkeModel:
    """The Kripke model with w0 seeing exactly the given points, each a
    sorted tuple of (variable, value) pairs; the others are w1, w2, ... in
    sorted order.

    w0 itself carries the all-false valuation; no constraint of the fragment
    says anything about w0's own atoms.
    """
    names, valuation = [], {}
    for i, pt in enumerate(sorted(points), 1):
        name = f"w{i}"
        names.append(name)
        for var, val in pt:
            valuation.setdefault(Atom(var, val), []).append(name)
    return KripkeModel(["w0", *names], [("w0", name) for name in names], valuation)


def _clause_truths(m, constraints):
    """Each clause's truth at w0 of m, in order: the modal step of its
    clause_formula applied to the extensions of its bodies, without building
    that formula.  m is a KripkeModel or holds the same masks.  One And-node
    memo serves every clause, whose bodies the caller keeps alive."""
    w0, memo = m._bit["w0"], {}
    for c in constraints:
        # the clause kinds are disjoint; Conditionals are the most numerous
        if isinstance(c, Conditional):
            # <>antecedent -> <>consequent
            yield (not _diamond(m, _extension(m, c.antecedent, memo)) & w0
                   or _diamond(m, _extension(m, c.consequent, memo)) & w0 != 0)
        elif isinstance(c, Required):
            yield _diamond(m, _extension(m, c.body, memo)) & w0 != 0
        elif isinstance(c, Forbidden):
            yield not _diamond(m, _extension(m, c.body, memo)) & w0
        elif isinstance(c, MustAll):
            yield _box(m, _extension(m, c.body, memo)) & w0 != 0
        else:
            raise TypeError(f"not a clause: {c!r}")


def recheck_model(p: Depth1Problem, points) -> bool:
    """Independently verify a solve_depth1 model with the modal evaluator:
    every clause of p holds at w0 of points_to_model(p, points), whose masks
    are read off the points: w0 is bit 0, the points bits 1, 2, ... as given."""
    masks, bit = {}, 1
    for pt in points:
        bit <<= 1
        for pair in pt:
            masks[pair] = masks.get(pair, 0) | bit
    full = (bit << 1) - 1
    m = SimpleNamespace(_bit={"w0": 1}, _full=full, _masks=masks, _succ=((1, full ^ 1),))
    return all(_clause_truths(m, p.constraints))
