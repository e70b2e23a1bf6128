"""Value classes: construction from the fields in __slots__, field-wise
equality and hash, immutability, repr, the caches keyed by them, and the
import footprint of a CLI query."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from agekit.ages import AmalgamationResult, BoundedClass
from agekit.canonical import Behaviour, ProbeReport
from agekit.core import CorePresentation
from agekit.decide import Caps, Verdict, Witness
from agekit.definability import DefinableVerdict
from agekit.ktypes import KType, enumerate_types
from agekit.parser import Catalog, parse_input
from agekit.reducts import FormulaDef, OrbitsDef, Reduct, Relation
from agekit.structures import And, Atom, Eq, FinStructure, Not, Or, Signature, structure
from conftest import catalog_path, catalog_text

SRC = Path(__file__).resolve().parent.parent / "src"


def gsig():
    return Signature((("E", 2),))


def edge():
    return structure(gsig(), 2, [("E", (0, 1)), ("E", (1, 0))])


def ktype():
    return KType(2, (0, 1), edge())


def formula():
    return And((Atom("E", (0, 1)), Not(Eq(0, 1))))


def linord():
    return parse_input(catalog_text("linord.cls")).bounded_class("linord")


def qlt():
    return parse_input(catalog_text("linord.cls")).reduct("Qlt")


def reversal():
    return Behaviour(linord(), linord(), 2, tuple([0, 2, 1]))


def caps():
    return Caps(3, 2, ap_cap=4)


def core():
    return CorePresentation(linord(), qlt(), reversal(), 0b111, 2, 3, None)


# class, its fields in declaration order, a factory that builds a fresh
# instance with equal fields on each call
CASES = [
    (Signature, ("symbols",), gsig),
    (FinStructure, ("signature", "size", "tables"), edge),
    (Atom, ("symbol", "vars"), lambda: Atom("E", (0, 1))),
    (Eq, ("left", "right"), lambda: Eq(0, 1)),
    (Not, ("inner",), lambda: Not(Eq(0, 1))),
    (And, ("parts",), formula),
    (Or, ("parts",), lambda: Or((Atom("E", (0, 1)), Eq(0, 1)))),
    (BoundedClass, ("name", "signature", "bounds", "homogeneous_asserted",
                    "ramsey_asserted"), linord),
    (AmalgamationResult, ("ok", "strong", "cap", "diagrams_checked", "counterexample"),
     lambda: AmalgamationResult(False, True, 2, 7, (edge(), edge(), edge()))),
    (KType, ("k", "blocks", "quotient"), ktype),
    (FormulaDef, ("formula",), lambda: FormulaDef(formula())),
    (OrbitsDef, ("members",), lambda: OrbitsDef((ktype(),))),
    (Relation, ("name", "arity", "definition"),
     lambda: Relation("R", 2, FormulaDef(formula()))),
    (Reduct, ("name", "base", "relations"), qlt),
    (Behaviour, ("source", "target", "k", "table", "arity"), reversal),
    (ProbeReport, ("trials", "max_size", "seed", "failures"),
     lambda: ProbeReport(10, 4, 1, ("a failure",))),
    (CorePresentation, ("base_out", "reduct_out", "witness", "image_types", "k",
                        "scan_cap", "realize_cap"), core),
    (DefinableVerdict, ("definable", "arity", "mask", "witness", "arity_cap",
                        "realize_cap"),
     lambda: DefinableVerdict(False, 2, 0b110, reversal(), 2, 3)),
    (Caps, ("k", "expand_arity", "realize_cap", "arity_cap", "ap_cap"), caps),
    (Witness, ("matching", "xi", "eta"),
     lambda: Witness((("lt", "lt"),), reversal(), reversal())),
    (Verdict, ("answer", "mode", "caps", "witness", "reason", "core_c", "core_d",
               "expanded_c", "expanded_d", "cap_relative"),
     lambda: Verdict("NO", "fo", caps(), reason="none", core_c=core())),
    (Catalog, ("classes", "reducts"),
     lambda: parse_input(catalog_text("linord.cls"))),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls,fields,make", CASES, ids=IDS)
class TestValueSemantics:
    def test_equal_fields_equal_objects(self, cls, fields, make):
        a, b = make(), make()
        assert type(a) is cls and a is not b
        assert a == b and not a != b
        if cls is Catalog:  # mutable contents: compared, never hashed
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1

    def test_other_class_same_fields_differs(self, cls, fields, make):
        twin = type(cls.__name__, (cls,), {"__slots__": ()})
        a = make()
        b = twin(*(getattr(a, f) for f in fields))
        assert a != b and b != a

    def test_assignment_raises(self, cls, fields, make):
        a = make()
        before = repr(a)
        for name in (fields[0], fields[-1], "extra"):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, fields[0])
        assert repr(a) == before

    def test_repr_lists_fields(self, cls, fields, make):
        a = make()
        body = ", ".join(f"{f}={getattr(a, f)!r}" for f in fields)
        assert repr(a) == f"{cls.__name__}({body})"

    def test_fields_and_key_follow_the_slots(self, cls, fields, make):
        a = make()
        assert cls._fields == fields
        assert a._key() == tuple(getattr(a, f) for f in fields)
        if cls is not Catalog:  # the hash every set and dict order rests on
            assert hash(a) == hash(a._key())

    def test_bad_arguments_raise_type_error(self, cls, fields, make):
        values = [getattr(make(), f) for f in fields]
        with pytest.raises(TypeError):
            cls(*values, None)  # one positional argument too many
        with pytest.raises(TypeError):
            cls(*values, extra=None)
        with pytest.raises(TypeError):
            cls(*values, **{fields[0]: values[0]})
        if cls is not Catalog:  # every field of a catalog is optional
            with pytest.raises(TypeError):
                cls(**dict(zip(fields[1:], values[1:])))

    def test_defaults_are_fields(self, cls, fields, make):
        assert set(cls._defaults) <= set(fields)


def test_every_value_class_has_a_case():
    # the classes an agekit query can build, each held to the tests above
    env = dict(os.environ, PYTHONPATH=str(SRC))
    r = subprocess.run(
        [sys.executable, "-S", "-c",
         "import agekit.cli\n"
         "from agekit.value import Value\n"
         "todo, seen = [Value], set()\n"
         "while todo:\n"
         "    for c in todo.pop().__subclasses__():\n"
         "        seen.add(c.__name__)\n"
         "        todo.append(c)\n"
         "print(' '.join(sorted(seen)))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == sorted(IDS)


def test_keywords_and_defaults_build_the_same_value():
    assert Caps(k=3, expand_arity=2, ap_cap=4) == caps()
    assert Atom(vars=(0, 1), symbol="E") == Atom("E", (0, 1))
    with pytest.raises(TypeError, match="missing field 'expand_arity'"):
        Caps(3)
    with pytest.raises(TypeError, match="no field '_hash'"):
        Eq(0, 1, _hash=0)


def test_and_or_with_equal_parts_differ():
    parts = (Atom("E", (0, 1)), Eq(0, 1))
    assert And(parts) != Or(parts) and hash(And(parts)) == hash(Or(parts))


def test_unequal_fields_unequal_objects():
    assert Caps(3, 2) != Caps(3, 3)
    assert KType(2, (0, 1), edge()) != KType(2, (0, 1), structure(gsig(), 2))
    assert reversal() != Behaviour(linord(), linord(), 2, (0, 0, 0))


def test_reprs_read_as_before():
    assert repr(gsig()) == "Signature(symbols=(('E', 2),))"
    assert repr(Not(Eq(0, 1))) == "Not(inner=Eq(left=0, right=1))"
    assert repr(caps()) == ("Caps(k=3, expand_arity=2, realize_cap=None, "
                            "arity_cap=None, ap_cap=4)")
    assert repr(Catalog()) == "Catalog(classes={}, reducts={})"
    assert repr(ProbeReport(0, 8, 1, ())) == (
        "ProbeReport(trials=0, max_size=8, seed=1, failures=())")


def test_defaults_kept():
    assert Caps(3, 2) == Caps(3, 2, None, None, None)
    v = Verdict("YES", "pp", caps())
    assert (v.witness, v.reason, v.core_c, v.expanded_d, v.cap_relative) == (
        None, "", None, None, False)
    assert reversal().arity == 1
    k = BoundedClass("x", gsig(), ())
    assert (k.homogeneous_asserted, k.ramsey_asserted) == (False, False)
    assert Catalog().classes == {} and Catalog().classes is not Catalog().classes


def test_separately_parsed_classes_share_type_cache():
    first, second = linord(), linord()
    assert first is not second and first == second
    types = enumerate_types(first, 3)
    hits = enumerate_types.cache_info().hits
    assert enumerate_types(second, 3) is types
    assert enumerate_types.cache_info().hits == hits + 1


def test_level_map_memo():
    k = linord()
    n3 = len(enumerate_types(k, 3))
    xi = Behaviour(k, k, 3, tuple(range(n3)))
    got = xi.level_map(2)
    assert got == (0, 1, 2)
    assert xi.level_map(2) is got
    assert xi.level_map(3) is xi.table


def test_cli_import_footprint():
    # a CLI query is a fresh interpreter: keep dataclasses (and the inspect,
    # ast, dis and tokenize it pulls in) out of its start-up, json, which
    # only a certificate or a --format json report needs, argparse (with
    # the gettext and locale it pulls in), which only help, --version and a
    # usage error need, and the certificate checker, which only verify needs
    env = dict(os.environ, PYTHONPATH=str(SRC))
    r = subprocess.run(
        [sys.executable, "-S", "-c",
         "import agekit.cli, sys; print(sorted(m for m in "
         "('dataclasses', 'inspect', 'json', 'argparse', 'gettext', 'locale', "
         "'agekit.verify') if m in sys.modules))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_well_formed_query_runs_without_argparse():
    # the strict reader reads a well-formed query from the declared flags,
    # so the query itself loads none of argparse, gettext and locale either
    env = dict(os.environ, PYTHONPATH=str(SRC))
    script = ("import sys\nfrom agekit.cli import main\n"
              f"code = main(['orbits', {catalog_path('linord.cls')!r}, '--k', '2'])\n"
              "print(code, sorted(m for m in ('argparse', 'gettext', 'locale') "
              "if m in sys.modules))\n")
    r = subprocess.run([sys.executable, "-S", "-c", script],
                       capture_output=True, text=True, env=env, timeout=60)
    assert r.returncode == 0, r.stderr
    assert "orbit count at level 2: 3" in r.stdout
    assert r.stdout.splitlines()[-1] == "0 []"
