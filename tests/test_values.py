"""The immutable classes that are not named tuples (`pda._Value`) keep the
contract they had as frozen dataclasses: equality and hashing by value
over their fields (by identity for the two product states), no assignment
or deletion, the dataclass repr, and copy and pickle; `_replace`, copy and
pickle build a value through the constructor, which validates it again."""

import copy
import dataclasses
import pickle
from functools import cache

import pytest

from islab import corpus
from islab.arcs import Arc, SegmentDecomposition, analyze_pair
from islab.blocks import JointSpec
from islab.corpus import ExampleBundle
from islab.grammar import (
    Cfg,
    CnfGrammar,
    GnfGrammar,
    cyk_membership,
    gnf_to_pda,
    to_cnf,
    to_gnf,
)
from islab.pda import POP, PUSH, Pda, StackAction, Transition, _Value, accepts
from islab.products import (
    BufferedProduct,
    BufferedState,
    DisplacedState,
    DisplacementProduct,
)
from islab.pumping import Factorization

# What `ExampleBundle` compares; every other class compares all its fields.
COMPARED = {ExampleBundle: ("name", "description", "joint", "grammar")}

STATES = [DisplacedState, BufferedState]

# Searches that fill a value's cached tables, which a copy leaves behind.
SEARCHES = {
    Pda: lambda machine: accepts(machine, "aabb"),
    CnfGrammar: lambda cnf: cyk_membership(cnf, "abab"),
    JointSpec: lambda spec: spec.in_intersection("ab"),
}


def cases() -> dict:
    """A value of each class, and field changes that give an unequal one."""
    counter = corpus.get("counter").machine("counter")
    joint = corpus.get("nested-blocks").joint
    grammar = corpus.get("matched-pairs-grammar").grammar
    cnf = to_cnf(grammar)
    queue = ((PUSH, 1, "A"), (POP, 2, "B"))
    return {
        StackAction: (StackAction.push("A"), {"symbol": "B"}),
        Transition: (counter.transitions[0], {"auxiliary": True}),
        Pda: (counter, {"accept": {"p"}}),
        Arc: (Arc(1, 4, 2), {"owner": 1}),
        SegmentDecomposition: (SegmentDecomposition(8, 2, 4, 6), {"j": 7}),
        JointSpec: (joint, {"c2": ()}),
        Cfg: (grammar, {"productions": grammar.productions[1:]}),
        CnfGrammar: (cnf, {"productions": cnf.productions[1:]}),
        GnfGrammar: (to_gnf(cnf), {"productions": to_gnf(cnf).productions[1:]}),
        Factorization: (Factorization((1, 2, 3, 4)), {"cuts": (0, 2, 3, 4)}),
        ExampleBundle: (corpus.get("matched-pairs-grammar"), {"description": "other"}),
        DisplacedState: (DisplacedState("p", "q", queue, ((2, "B"),)), {"displaced": ()}),
        BufferedState: (BufferedState("p", "q", queue, (("1", "A", 2),), True), {"closing": False}),
    }


CLASSES = list(cases())
VALUES = [cls for cls in CLASSES if cls not in STATES]


def ids(classes) -> list:
    return [cls.__name__ for cls in classes]


def fields(value) -> tuple:
    return tuple(getattr(value, name) for name in value._fields)


@cache
def dataclass_of(cls) -> type:
    """The frozen dataclass that `cls` was: same name and fields, and the
    same comparison."""
    compared = COMPARED.get(cls, cls._fields)
    return dataclasses.make_dataclass(
        cls.__qualname__,
        [(name, object, dataclasses.field(compare=name in compared)) for name in cls._fields],
        frozen=True,
        eq=cls not in STATES,
    )


def test_every_value_class_is_covered():
    found, todo = set(), [_Value]
    while todo:
        subclasses = todo.pop().__subclasses__()
        found.update(subclasses)
        todo += subclasses
    assert found == set(CLASSES) and len(CLASSES) == 13


@pytest.mark.parametrize("cls", VALUES, ids=ids(VALUES))
def test_equal_and_hashed_by_value(cls):
    value, change = cases()[cls]
    same = value._replace()
    assert same is not value
    assert same == value and hash(same) == hash(value)
    assert value._replace(**change) != value
    assert value != fields(value)
    twin = dataclass_of(cls)(*fields(value))
    assert hash(value) == hash(twin)


def test_bundles_compare_by_name_description_joint_and_grammar_only():
    bundle = corpus.get("matched-pairs-grammar")
    other = bundle._replace(machines={"m": None}, family=len, expected={"x": 1})
    assert other == bundle and hash(other) == hash(bundle)
    assert bundle._replace(grammar=None) != bundle
    # the defaults are fresh dicts, one per bundle
    first, second = ExampleBundle("a", "b"), ExampleBundle("a", "b")
    assert first.machines == first.expected == {}
    assert first.machines is not second.machines


@pytest.mark.parametrize("cls", STATES, ids=ids(STATES))
def test_product_states_compared_by_identity(cls):
    state, change = cases()[cls]
    same = state._replace()
    assert state == state and same != state
    assert len({state, same}) == 2
    assert fields(same) == fields(state)
    ((name, new),) = change.items()
    assert getattr(state._replace(**change), name) == new


@pytest.mark.parametrize("cls", CLASSES, ids=ids(CLASSES))
def test_fields_cannot_be_assigned_or_deleted(cls):
    value, _ = cases()[cls]
    for name in value._fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(TypeError):
        value < value


REPRS = {
    StackAction: "StackAction(kind='push', symbol='A')",
    Transition: (
        "Transition(source='p', read='a', action=StackAction(kind='push', symbol='A'), "
        "target='p', auxiliary=False)"
    ),
    Arc: "Arc(push_pos=1, pop_pos=4, owner=2, push_ordinal=1)",
    SegmentDecomposition: "SegmentDecomposition(word_len=8, i=2, i_prime=4, j=6)",
    Factorization: "Factorization(cuts=(1, 2, 3, 4))",
    DisplacedState: (
        "DisplacedState(q1='p', q2='q', queue=(('push', 1, 'A'), ('pop', 2, 'B')), "
        "displaced=((2, 'B'),))"
    ),
    BufferedState: (
        "BufferedState(q1='p', q2='q', queue=(('push', 1, 'A'), ('pop', 2, 'B')), "
        "buffer=(('1', 'A', 2),), closing=True)"
    ),
}


@pytest.mark.parametrize("cls", list(REPRS), ids=ids(REPRS))
def test_repr_pinned(cls):
    assert repr(cases()[cls][0]) == REPRS[cls]


def corpus_values() -> list:
    """Every `_Value` reachable from the cases above and the corpus: the
    bundles, their block sides, their grammars' normal forms and machine,
    the analyses of each pair on its family's second word, and the first
    product states."""
    roots = [value for value, _ in cases().values()]
    for name in corpus.list_bundles():
        bundle = corpus.get(name)
        roots.append(bundle)
        if bundle.joint is not None:
            roots += [bundle.joint.side(1), bundle.joint.side(2)]
        if bundle.grammar is not None:
            gnf = to_gnf(to_cnf(bundle.grammar))
            roots += [to_cnf(bundle.grammar), gnf, gnf_to_pda(gnf)]
        if len(bundle.machines) == 2 and bundle.family is not None:
            roots += analyze_pair(*bundle.pair(), bundle.family(2))
            for make in (DisplacementProduct, BufferedProduct):
                product = make(*bundle.pair(), 1)
                states = [product.start]
                for state in states[:20]:
                    states += [t.target for t in product.transitions_from(state)]
                roots += states
    found, todo = {}, roots
    while todo:
        value = todo.pop()
        if isinstance(value, _Value):
            found.setdefault(id(value), value)
            todo += fields(value)
        elif isinstance(value, (tuple, list, frozenset)):
            todo += value
        elif isinstance(value, dict):
            todo += value.values()
    return list(found.values())


def test_corpus_reprs_and_hashes_are_those_of_the_dataclasses():
    values = corpus_values()
    assert {type(value) for value in values} == set(CLASSES)
    for value in values:
        twin = dataclass_of(type(value))(*fields(value))
        assert repr(value) == repr(twin)
        if type(value) not in STATES:
            assert hash(value) == hash(twin)


def test_replace_validates_and_normalises_again():
    counter, _ = cases()[Pda]
    with pytest.raises(ValueError, match="unknown acceptance mode 'bogus'"):
        counter._replace(acceptance_mode="bogus")
    with pytest.raises(ValueError, match=r"cuts \(5, 4, 6\) out of order for word length 8"):
        SegmentDecomposition(8, 2, 4, 6)._replace(i=5)
    with pytest.raises(ValueError, match=r"cuts \(2, 1, 3, 4\) out of order"):
        Factorization((1, 2, 3, 4))._replace(cuts=(2, 1, 3, 4))
    with pytest.raises(TypeError):
        counter._replace(colour="red")
    assert counter._replace(accept=["p"]).accept == frozenset({"p"})
    doubled = counter._replace(transitions=counter.transitions * 2)
    assert doubled.transitions == counter.transitions
    joint, _ = cases()[JointSpec]
    assert joint._replace(c1=[[1, 4]]).side(1).c1 == ((1, 4),)


@pytest.mark.parametrize("cls", VALUES, ids=ids(VALUES))
def test_copy_and_pickle_give_an_equal_value(cls):
    value, _ = cases()[cls]
    if cls in SEARCHES:
        SEARCHES[cls](value)
    for again in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert again is not value
        assert again == value and hash(again) == hash(value)
        assert vars(again).keys() == vars(cls(*fields(value))).keys()  # no cache travels


@pytest.mark.parametrize("cls", STATES, ids=ids(STATES))
def test_copy_and_pickle_give_a_new_unequal_state(cls):
    state, _ = cases()[cls]
    for again in (copy.copy(state), copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
        assert again != state
        assert fields(again) == fields(state)
