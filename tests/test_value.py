"""Value semantics of the twelve immutable value types: each is frozen, its
equality, hash and repr read its fields alone, its repr is the one a
dataclass of the same fields prints, and pickle and deepcopy rebuild it
through its constructor.  Each constructor sets every slot in one
`self._set(...)` call with one value per slot."""

import ast
import copy
import importlib
import pickle
from pathlib import Path

import pytest

from nestlab import (
    AbstractNest,
    AbstractSupportFn,
    ChainNode,
    DimensionMismatchError,
    Matrix,
    Nest,
    RankOne,
    Subspace,
    SupportFn,
    SupportPair,
    WorkbenchDoc,
    nest_algebra,
)
from nestlab.cli import Verdict
from nestlab.value import Value

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nestlab"


def _line():
    return Subspace(2, ((1, 2),))


def _nest():
    return Nest(2, (Subspace.zero(2), _line(), Subspace.full(2)))


def _phi():
    return SupportFn(_nest(), (0, 2, 2))


def _chain():
    return AbstractNest((
        ChainNode("0", above="attained"),
        ChainNode("N1", below="attained", gap=1, above="attained"),
        ChainNode("X", below="limit", cofinality="countable"),
    ))


def _map():
    return AbstractSupportFn(_chain(), (0, 1, 2), (None, None, 2))


# the reprs the dataclasses of these values printed
LINE = "Subspace(ambient_dim=2, rows=((1, 2),))"
NEST = (
    "Nest(ambient_dim=2, elements=(Subspace(ambient_dim=2, rows=()), "
    f"{LINE}, Subspace(ambient_dim=2, rows=((1, 0), (0, 1)))))"
)
PHI = f"SupportFn(nest={NEST}, values=(0, 2, 2))"
NODE = (
    "ChainNode(label='N1', below='attained', gap=1, cofinality=None, above=None, "
    "coinitiality=None)"
)
CHAIN = (
    "AbstractNest(nodes=("
    "ChainNode(label='0', below=None, gap=None, cofinality=None, above='attained', "
    "coinitiality=None), "
    "ChainNode(label='N1', below='attained', gap=1, cofinality=None, above='attained', "
    "coinitiality=None), "
    "ChainNode(label='X', below='limit', gap=None, cofinality='countable', above=None, "
    "coinitiality=None)))"
)
MAP = f"AbstractSupportFn(chain={CHAIN}, value=(0, 1, 2), left_limit=(None, None, 2))"

VALUES = {
    "Matrix": (
        lambda: Matrix.from_rows([[1, "1/2"]]),
        "Matrix(rows=1, cols=2, entries=((Fraction(1, 1), Fraction(1, 2)),))",
    ),
    "Subspace": (_line, LINE),
    "Nest": (_nest, NEST),
    "OperatorSpace": (
        lambda: nest_algebra(Nest(1, (Subspace.zero(1), Subspace.full(1)))),
        "OperatorSpace(ambient_dim=1, space=Subspace(ambient_dim=1, rows=((1,),)))",
    ),
    "SupportFn": (_phi, PHI),
    "RankOne": (
        lambda: RankOne.of([1, 0], ["-1/3", 2]),
        "RankOne(functional=(Fraction(1, 1), Fraction(0, 1)), "
        "vector=(Fraction(-1, 3), Fraction(2, 1)))",
    ),
    "ChainNode": (lambda: ChainNode("N1", below="attained", gap=1), NODE),
    "AbstractNest": (_chain, CHAIN),
    "AbstractSupportFn": (_map, MAP),
    "SupportPair": (lambda: SupportPair(_map(), _map()), f"SupportPair(phi={MAP}, psi={MAP})"),
    "WorkbenchDoc": (
        lambda: WorkbenchDoc(support_fn=_phi()),
        f"WorkbenchDoc(ambient_dim=2, nest={NEST}, operators={{}}, support_fn={PHI}, "
        "rank_one=None, chain=None, abstract_fn=None, abstract_pair=None)",
    ),
    "Verdict": (
        lambda: Verdict("chain-check", {"result": True}),
        "Verdict(command='chain-check', result={'result': True}, seed=None, cases=None)",
    ),
}
# a document's operators and a verdict's result are dicts
UNHASHABLE = {"WorkbenchDoc", "Verdict"}

each_value = pytest.mark.parametrize("name", VALUES)


def test_every_value_type_is_listed():
    assert len(VALUES) == 12
    for name, (build, _) in VALUES.items():
        assert type(build()).__name__ == name


@each_value
def test_repr_is_the_recorded_dataclass_repr(name):
    build, recorded = VALUES[name]
    assert repr(build()) == recorded


@each_value
def test_assignment_and_deletion_raise(name):
    value = VALUES[name][0]()
    before = repr(value)
    for attr in (*type(value).__slots__, "not_a_field"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{attr}'$"):
            setattr(value, attr, None)
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{attr}'$"):
            delattr(value, attr)
    assert not hasattr(value, "__dict__") and repr(value) == before


@each_value
def test_equality_and_hash_ignore_the_derived_slots(name):
    build = VALUES[name][0]
    a, b = build(), build()
    fields = type(a).FIELDS
    assert set(fields) <= set(type(a).__slots__)
    # overwrite every slot that is not a field
    for attr in set(type(a).__slots__) - set(fields):
        object.__setattr__(a, attr, "changed")
    assert a == b and not a != b and repr(a) == repr(b)
    assert a != object() and a != tuple(getattr(a, f) for f in fields)
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@each_value
def test_pickle_and_deepcopy_round_trip(name):
    build, recorded = VALUES[name]
    value = build()
    for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(back) is type(value) and back == value and repr(back) == recorded


class _Forged:
    """Pickles as a Subspace whose row is not primitive."""

    def __reduce__(self):
        return Subspace, (2, ((2, 4),))


def test_unpickling_runs_the_constructor_checks():
    with pytest.raises(DimensionMismatchError, match="primitive"):
        pickle.loads(pickle.dumps(_Forged()))
    # derived slots are built anew, not copied
    nest = _nest()
    nest_algebra(nest)
    back = pickle.loads(pickle.dumps(nest))
    assert nest.operator_spaces and back.operator_spaces == {}
    assert back.adapted_levels == nest.adapted_levels


def _set_calls(cls: ast.ClassDef):
    """(method, call) for every `self._set(...)` in the class's methods."""
    for item in cls.body:
        if isinstance(item, ast.FunctionDef):
            for node in ast.walk(item):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "_set" and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "self"):
                    yield item.name, node


def test_each_constructor_sets_every_slot_in_one_call():
    # `_set` zips the values with the slots, so a missing or extra value
    # would pass it unseen: the count is checked here, on the syntax tree
    seen, found = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"nestlab.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            cls = getattr(module, node.name, None) if isinstance(node, ast.ClassDef) else None
            if not (isinstance(cls, type) and issubclass(cls, Value)) or cls is Value:
                continue
            seen.add(cls.__name__)
            calls = list(_set_calls(node))
            methods = [method for method, _ in calls]
            if methods != ["__init__"]:
                found.append(f"{cls.__name__}: self._set in {methods}, not once in __init__")
            for _, call in calls:
                if (call.keywords or any(isinstance(a, ast.Starred) for a in call.args)
                        or len(call.args) != len(cls.__slots__)):
                    found.append(f"{path.name}:{call.lineno}: {len(call.args)} values for "
                                 f"the {len(cls.__slots__)} slots of {cls.__name__}")
    assert seen == set(VALUES)
    assert found == []
