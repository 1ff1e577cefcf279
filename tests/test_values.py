"""The contract of the immutable value classes: what a frozen dataclass
gave them, kept by the plain slots classes on ``words.Value``."""

import ast
import copy
import importlib
import inspect
import pickle
import pkgutil

import pytest

import bsrig
from bsrig import (
    BimoduleSum,
    CosetProfile,
    DoubleCoset,
    Elliptic,
    HeckeElement,
    Hyperbolic,
    Irreducible,
    NormalForm,
    RigidityVerdict,
    RootOfUnity,
    SignWitness,
    TreeVertex,
    bs,
    fusion,
    hecke,
    parse_word,
    rigidity,
    tree,
    words,
)

REP = NormalForm(((0, 1),), 0)
REP_TEXT = "NormalForm(prefix=((0, 1),), tail=0)"
COSET = DoubleCoset(REP, CosetProfile(2, 3, 2))
COSET_TEXT = f"DoubleCoset(representative={REP_TEXT}, profile=CosetProfile(l=2, r=3, L=2))"
W, MU = RootOfUnity(1, 12), RootOfUnity(1, 18)

# one value of each class with its dataclass-format repr; Irreducible and
# RigidityVerdict are built from their keyword defaults
VALUES = [
    (bs(2, -3), "BsPresentation(n=2, m=-3, k=1, n0=2, m0=-3, carries=((3, -2), (2, -3)))"),
    (parse_word("b a^2 B"), "GroupWord(syllables=(('b', 1), ('a', 2), ('b', -1)))"),
    (NormalForm(((0, 1), (1, -1)), 2), "NormalForm(prefix=((0, 1), (1, -1)), tail=2)"),
    (CosetProfile(4, 9, 4), "CosetProfile(l=4, r=9, L=4)"),
    (COSET, COSET_TEXT),
    (HeckeElement(((COSET, 2),)), f"HeckeElement(terms=(({COSET_TEXT}, 2),))"),
    (TreeVertex(REP), f"TreeVertex(rep={REP_TEXT})"),
    (Elliptic(REP), f"Elliptic(witness={REP_TEXT})"),
    (Hyperbolic(2), "Hyperbolic(translation_length=2)"),
    (Irreducible(), "Irreducible(char=None, coset=None)"),
    (
        BimoduleSum((Irreducible(char=W), Irreducible(coset=COSET))),
        "BimoduleSum(terms=(Irreducible(char=RootOfUnity(num=1, den=12), coset=None), "
        f"Irreducible(char=None, coset={COSET_TEXT})))",
    ),
    (
        SignWitness(1, W, MU),
        "SignWitness(t=1, omega=RootOfUnity(num=1, den=12), mu=RootOfUnity(num=1, den=18))",
    ),
    (RigidityVerdict("n_mismatch"), "RigidityVerdict(kind='n_mismatch', witness=None)"),
]


@pytest.mark.parametrize("value, text", VALUES, ids=[type(v).__name__ for v, _ in VALUES])
def test_value_contract(value, text):
    cls = type(value)
    names = cls.__slots__
    fields = tuple(getattr(value, name) for name in names)
    assert repr(value) == text
    # equal by fields, by position or keyword, and only within the class
    assert cls(*fields) == value and cls(**dict(zip(names, fields))) == value
    twin = type(f"Twin{cls.__name__}", (cls,), {"__slots__": ()})(*fields)
    assert value != fields and value != twin and twin != value
    assert value.__eq__(fields) is NotImplemented
    assert hash(value) == hash(fields) == hash(cls(*fields))
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in names) == fields
    assert pickle.loads(pickle.dumps(value)) == value and copy.copy(value) == value


def test_classes_with_equal_fields_stay_apart():
    assert TreeVertex(REP) != Elliptic(REP)
    assert len({TreeVertex(REP), Elliptic(REP), TreeVertex(NormalForm(((0, 1),), 0))}) == 2


@pytest.mark.parametrize(
    "build",
    [
        lambda: NormalForm(((0, 1),)),  # a missing field
        lambda: NormalForm((), 0, 1),  # an extra positional argument
        lambda: CosetProfile(1, 2, 3, M=4),  # an unknown keyword
        lambda: SignWitness(1, W, MU, omega=W),  # a field given twice
        lambda: RigidityVerdict(),  # only trailing fields have defaults
    ],
    ids=["missing", "extra", "unknown", "twice", "required"],
)
def test_constructor_refuses_bad_arguments(build):
    with pytest.raises(TypeError):
        build()


def test_constructor_defaults_and_names():
    assert (Irreducible().char, Irreducible().coset) == (None, None)
    assert Irreducible(coset=COSET) == Irreducible(None, COSET)
    assert RigidityVerdict("n_mismatch").witness is None
    assert NormalForm.__init__.__qualname__ == "NormalForm.__init__"
    assert DoubleCoset.__init__.__module__ == "bsrig.hecke"
    twin = type("TwinNormalForm", (NormalForm,), {"__slots__": ()})
    assert twin.__init__ is NormalForm.__init__ and twin((), 3).tail == 3


def test_adding_fields_below_a_class_with_fields_is_refused():
    # the derived constructor, equality and hash would see only the new
    # slots: X(5) would build X(extra=5) with no prefix or tail
    with pytest.raises(TypeError, match="adds fields below NormalForm's"):
        type("X", (NormalForm,), {"__slots__": ("extra",)})
    twin = type("TwinNormalForm", (NormalForm,), {"__slots__": ()})
    with pytest.raises(TypeError, match="adds fields below NormalForm's"):
        type("Y", (twin,), {"__slots__": ("extra",)})


def test_a_written_constructor_is_refused():
    # the constructor derived from the slots would silently replace it
    def __init__(self, x):
        raise AssertionError("never runs")

    with pytest.raises(TypeError, match="Single writes an __init__"):
        type("Single", (words.Value,), {"__slots__": ("x",), "__init__": __init__})


def test_every_value_class_is_covered():
    # the contract test above holds one value of every Value subclass that
    # the package defines, in any of its modules
    for info in pkgutil.walk_packages(bsrig.__path__, "bsrig."):
        importlib.import_module(info.name)
    todo, defined = [words.Value], set()
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("bsrig."):
                defined.add(cls)
    assert defined <= {type(value) for value, _ in VALUES}, defined


def test_layer_values_write_no_constructor():
    # every Value subclass of a layer module states its fields once, in
    # __slots__, and takes the constructor the base derives from them; no
    # layer module stores fields through object.__setattr__
    for module in (words, hecke, tree, fusion, rigidity):
        assert not hasattr(module, "_set"), module.__name__
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Attribute) and node.attr == "__setattr__":
                assert not (isinstance(node.value, ast.Name) and node.value.id == "object"), (
                    f"{module.__name__}:{node.lineno}"
                )
            if isinstance(node, ast.ClassDef) and issubclass(getattr(module, node.name), words.Value):
                defined = [f.name for f in node.body if isinstance(f, ast.FunctionDef)]
                assert "__init__" not in defined, f"{module.__name__}.{node.name}"
