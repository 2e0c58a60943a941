"""Value semantics of the immutable records: equality by class and fields,
a hash that agrees with it, no assignment or deletion, and construction,
copy and pickle as a frozen dataclass has them."""

import copy
import itertools
import pickle

import pytest

from plfkit.formula import And, Atom, Box, Diamond, Iff, Implies, Not, Or
from plfkit.kripke import Conditional, Forbidden, KripkeModel, MustAll, Required, UnsatCore
from plfkit.quantum import hardy_behavior
from plfkit.scenario import ScenarioConfig

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


@pytest.mark.parametrize("rec", [
    And(A, Not(B)),
    Conditional(A, B),
    hardy_behavior(),
    KripkeModel({"w"}, {("w", "w")}, {A: {"w"}}),
], ids=["formula", "clause", "behavior", "kripke-model"])
def test_copy_and_pickle_rebuild_an_equal_record(rec):
    for twin in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert twin == rec and type(twin) is type(rec)
