"""Reducts: orbit-union compilation, literal definitions, preservation checks."""

from itertools import combinations

import pytest

from agekit.canonical import identity_behaviour
from agekit.errors import InputError
from agekit.ktypes import enumerate_types, serialize_type
from agekit.reducts import (
    FormulaDef,
    OrbitsDef,
    Reduct,
    Relation,
    behaviour_preserves_relation,
    compile_orbit_union,
    compiled_unions,
    mask_members,
    serialize_mask,
)
from agekit.structures import And, Atom, Eq, Not, Or
from conftest import apply_types, mask_types, realizable_behaviours, types_mask


def names_of(mask, cls):
    return sorted(mask_members(cls, 2, mask))


class TestCompile:
    def test_leq_is_eq_and_lt(self, catalog, linord):
        u = compile_orbit_union(catalog.reduct("Qleq"), "leq")
        assert names_of(u, linord) == [0, 1]  # {=, <}

    def test_atomic_edge(self, catalog, graphs):
        u = compile_orbit_union(catalog.reduct("Rg"), "E")
        types = enumerate_types(graphs, 2)
        assert mask_types(graphs, 2, u) == frozenset({types[2]})

    def test_neq_is_lt_and_gt(self, catalog, linord):
        u = compile_orbit_union(catalog.reduct("Qneq"), "neq")
        assert names_of(u, linord) == [1, 2]

    def test_undeclared_relation(self, catalog):
        with pytest.raises(InputError):
            compile_orbit_union(catalog.reduct("Qlt"), "nope")

    def test_equivalent_definitions_compile_alike(self, linord):
        # x0<x1 | x0=x1  versus  !(x1<x0)
        a = Reduct("a", linord, (Relation(
            "r", 2, FormulaDef(Or((Atom("lt", (0, 1)), Eq(0, 1))))),))
        b = Reduct("b", linord, (Relation(
            "r", 2, FormulaDef(Not(Atom("lt", (1, 0))))),))
        assert compile_orbit_union(a, "r") == compile_orbit_union(b, "r")
        # De Morgan pair
        c = Reduct("c", linord, (Relation(
            "r", 2, FormulaDef(Not(Or((Atom("lt", (1, 0)), Eq(0, 1)))))),))
        d = Reduct("d", linord, (Relation(
            "r", 2, FormulaDef(And((Not(Atom("lt", (1, 0))), Not(Eq(0, 1)))))),))
        assert compile_orbit_union(c, "r") == compile_orbit_union(d, "r")

    def test_orbit_literal_definition(self, linord):
        types = enumerate_types(linord, 2)
        r = Reduct("lit", linord, (Relation(
            "r", 2, OrbitsDef((types[1], types[2]))),))
        u = compile_orbit_union(r, "r")
        assert mask_types(linord, 2, u) == frozenset({types[1], types[2]})

    def test_orbit_literal_outside_age_rejected(self, linord, graphs):
        alien = enumerate_types(graphs, 2)[2]
        r = Reduct("bad", linord, (Relation("r", 2, OrbitsDef((alien,))),))
        with pytest.raises(InputError):
            compile_orbit_union(r, "r")

    def test_formula_variable_out_of_range_rejected(self, linord):
        with pytest.raises(InputError):
            Reduct("bad", linord, (Relation(
                "r", 2, FormulaDef(Atom("lt", (0, 2)))),))


class TestPreservation:
    def test_identity_preserves_everything(self, catalog, linord):
        ident = identity_behaviour(linord, 2)
        for rname, reduct in (("lt", "Qlt"), ("leq", "Qleq"), ("neq", "Qneq")):
            u = compile_orbit_union(catalog.reduct(reduct), rname)
            assert behaviour_preserves_relation(ident, 2, u, u)

    def test_reversal_breaks_lt(self, catalog, linord):
        behaviours = realizable_behaviours(linord, linord, 2)
        reversal = next(b for b in behaviours if b.table == (0, 2, 1))
        u = compile_orbit_union(catalog.reduct("Qlt"), "lt")
        assert not behaviour_preserves_relation(reversal, 2, u, u)

    def test_clique_collapse_preserves_edges(self, graphs):
        behaviours = realizable_behaviours(graphs, graphs, 2)
        cliqueify = next(b for b in behaviours if b.table == (0, 2, 2))
        types = enumerate_types(graphs, 2)
        edge = types_mask(graphs, 2, {types[2]})
        assert behaviour_preserves_relation(cliqueify, 2, edge, edge)

    def test_level_too_small_is_input_error(self, catalog, linord):
        ident = identity_behaviour(linord, 2)
        types3 = enumerate_types(linord, 3)
        u3 = types_mask(linord, 3, {types3[0]})
        with pytest.raises(InputError):
            behaviour_preserves_relation(ident, 3, u3, u3)


class TestPaddingConvention:
    def test_level_application_independent_of_padding_position(self, linord):
        # the padding convention repeats the last position; any other
        # expansion of an m-type must give the same image on the first m slots
        from agekit.ktypes import restrict_type
        for xi in realizable_behaviours(linord, linord, 2):
            for p in enumerate_types(linord, 1):
                pads = [(0, 0)]
                for sigma in pads:
                    expanded = restrict_type(p, sigma)
                    image = apply_types(xi, (expanded,))
                    assert restrict_type(image, (0,)) == apply_types(xi, (p,))

    def test_serialized_unions_deterministic(self, catalog, linord):
        u = compile_orbit_union(catalog.reduct("Qneq"), "neq")
        assert serialize_mask(linord, 2, u) == sorted(
            serialize_type(t) for t in mask_types(linord, 2, u))


class TestCompiledUnions:
    def test_equal_reducts_compared_once(self, linord, monkeypatch):
        # an equal reduct of another side hits the first one's cache entries;
        # looked up name by name, each hit compared all 91 relations (8,281
        # comparisons)
        types = enumerate_types(linord, 3)
        members = [(t,) for t in types] + list(combinations(types, 2))

        def reduct():
            return Reduct("R", linord, tuple(
                Relation(f"U{i}", 3, OrbitsDef(m)) for i, m in enumerate(members)))

        first, second = reduct(), reduct()
        want = compiled_unions(first)
        calls = [0]
        real = Relation.__eq__

        def counting(a, b):
            calls[0] += 1
            return real(a, b)

        monkeypatch.setattr(Relation, "__eq__", counting)
        assert compiled_unions(second) == want
        assert 0 < calls[0] <= 2 * len(members)
