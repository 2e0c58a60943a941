"""Value semantics of the immutable records: equality by class and fields,
a hash that agrees with it, no assignment or deletion, and construction,
copy and pickle as a frozen dataclass has them."""

import ast
import copy
import inspect
import itertools
import pickle
import sys

import pytest

from plfkit._record import Record
from plfkit.formula import And, Atom, Box, Diamond, Iff, Implies, Not, Or
from plfkit.kripke import (Conditional, Forbidden, KripkeModel, MustAll, Required, UnsatCore,
                           solve_depth1)
from plfkit.plfcheck import plf_feasible
from plfkit.quantum import hardy_behavior
from plfkit.scenario import Behavior, CellIndex, ScenarioConfig, Wing, encode

A, B = Atom("A"), Atom("B", "1")
ONE_FIELD = [Not, Diamond, Box, MustAll, Forbidden, Required]
TWO_FIELDS = [And, Or, Implies, Iff, Conditional]


def triples():
    """(record, an equal record built apart, a record of the same class
    that differs in one field) for every formula node and clause class."""
    yield Atom("A"), Atom("A", "true"), Atom("A", "1")
    for cls in ONE_FIELD:
        yield cls(A), cls(Atom("A")), cls(B)
    for cls in TWO_FIELDS:
        yield cls(A, B), cls(Atom("A"), Atom("B", "1")), cls(B, A)


TRIPLES = list(triples())
IDS = [type(t[0]).__name__ for t in TRIPLES]


@pytest.mark.parametrize("rec, same, other", TRIPLES, ids=IDS)
def test_equal_iff_fields_match(rec, same, other):
    assert rec is not same and rec == same and not rec != same
    assert rec != other and not rec == other
    assert rec != rec._values()


@pytest.mark.parametrize("group", [ONE_FIELD, TWO_FIELDS], ids=["one-field", "two-fields"])
def test_unequal_across_classes_with_equal_fields(group):
    args = (A,) if group is ONE_FIELD else (A, B)
    for c1, c2 in itertools.permutations(group, 2):
        assert c1(*args) != c2(*args)
        assert c1(*args).__eq__(c2(*args)) is NotImplemented
    assert And(A, B) != Or(A, B) and MustAll(A) != Required(A)


@pytest.mark.parametrize("rec, same, other", TRIPLES, ids=IDS)
def test_hash_agrees_with_equality(rec, same, other):
    assert hash(rec) == hash(same)
    assert {rec: 1}[same] == 1
    assert len({rec, same, other}) == 2


@pytest.mark.parametrize("rec, same, other", TRIPLES, ids=IDS)
def test_assignment_and_deletion_raise(rec, same, other):
    for name in rec._fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(rec, name, B)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert rec == same


def test_generic_constructor_binds_like_a_dataclass():
    cfg = ScenarioConfig((1, 2), friend_a=True)
    assert cfg == ScenarioConfig(x_values=(1, 2), y_values=(1, 2), friend_a=True)
    assert (cfg.friend_a, cfg.friend_b, cfg.read_y) == (True, False, 1)
    for args, kwargs in [((), {"bogus": 1}), (((1, 2),), {"x_values": (1, 2)}),
                         (tuple(range(9)), {})]:
        with pytest.raises(TypeError):
            ScenarioConfig(*args, **kwargs)
    with pytest.raises(TypeError, match="removals"):
        UnsatCore(Required(A), ())


def _all_possible():
    cfg = ScenarioConfig(friend_a=True, friend_b=True)
    return Behavior.from_cells(cfg, cfg.cells())


@pytest.mark.parametrize("rec", [
    And(A, Not(B)),
    Conditional(A, B),
    hardy_behavior(),
    KripkeModel({"w"}, {("w", "w")}, {A: {"w"}}),
    plf_feasible(hardy_behavior()),
    plf_feasible(_all_possible()),
    solve_depth1(encode(hardy_behavior())),
    solve_depth1(encode(_all_possible())),
    encode(hardy_behavior()),
], ids=["formula", "clause", "behavior", "kripke-model", "infeasible-verdict",
        "feasible-verdict", "unsat", "model", "depth1-problem"])
def test_copy_and_pickle_rebuild_an_equal_record(rec):
    """Records nested in tuples, dicts and frozensets rebuild too; compared
    by equality, since a rebuilt frozenset may iterate in another order."""
    for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert twin == rec and type(twin) is type(rec)


class _Link(Record):
    """One link of a chain: records that nest as deep as the chain is long."""

    value: int
    rest: object


def _chain(n: int, end) -> _Link:
    for i in range(n):
        end = _Link(i, end)
    return end


def test_value_semantics_answer_at_any_depth():
    """Equality, hash, repr, copy and pickle keep a stack of their own, not
    a frame per nesting level."""
    n = 2 * sys.getrecursionlimit()
    rec, same, other = _chain(n, None), _chain(n, None), _chain(n, 0)
    try:
        assert rec == same and hash(rec) == hash(same) and rec != other
        assert repr(rec) == "".join(
            f"_Link(value={i}, rest=" for i in reversed(range(n))) + "None" + ")" * n
        for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert twin == rec and type(twin) is _Link
    except RecursionError:
        raise AssertionError("recursed once per nesting level") from None


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


RECORDS = [cls for cls in _subclasses(Record) if cls.__module__.startswith("plfkit.")]


@pytest.mark.parametrize("cls", RECORDS, ids=[cls.__qualname__ for cls in RECORDS])
def test_fields_are_named_once(cls):
    """A record's fields are its own `__slots__` when slotted, else its own
    annotations; a class that names neither keeps its base's.  Only a
    slotted class assigns `_fields`, as `__slots__ = _fields = (...)`."""
    body = ast.parse(inspect.getsource(cls)).body[0].body
    assigned = {target.id for stmt in body if isinstance(stmt, ast.Assign)
                for target in stmt.targets if isinstance(target, ast.Name)}
    if vars(cls).get("__slots__"):
        assert cls._fields == cls.__slots__ and not cls.__annotations__
    else:
        assert "_fields" not in assigned
        assert cls._fields == (tuple(cls.__annotations__) or cls.__base__._fields)


@pytest.mark.parametrize("cls", RECORDS, ids=[cls.__qualname__ for cls in RECORDS])
def test_only_record_defines_value_semantics(cls):
    """Equality, hash, repr, copy and pickle are Record's alone, so every
    record answers them at any nesting depth."""
    assert not {"__eq__", "__hash__", "__repr__", "__reduce__", "_preorder"} & set(vars(cls))


def test_wing_and_cell_index_are_records():
    wing = ScenarioConfig(friend_a=True).wings[0]
    assert isinstance(wing, Wing) and isinstance(ScenarioConfig().cell_index, CellIndex)
    assert {Wing, CellIndex} <= set(RECORDS)
    assert repr(wing).startswith("Wing(index=0, name='Alice', outcome='A', setting='X', "
                                 "record='C', friend=True, read=1, outcomes=(0, 1), ")
