"""Definability expansions: ep counting, pp verdicts with witnesses,
the pp-subset-of-ep property, witness verification."""

from itertools import product

import pytest

from agekit.canonical import (
    is_coherent,
    is_realizable,
    serialize_behaviour,
)
from agekit.certs import definable_certificate
from agekit.core import compute_core
from agekit.definability import definable, expand
from agekit.errors import InputError
from agekit.ktypes import enumerate_types
from agekit.reducts import behaviour_preserves_relation, compile_orbit_union, serialize_mask
from agekit.verify import verify_certificate
from conftest import (apply_types, is_compatible, mask_types, parse_behaviour,
                      realizable_behaviours)


def union_of(*indices):
    """The mask of the types of the given indices."""
    return sum(1 << i for i in indices)


def relation_types(reduct):
    """(arity, types) per relation of the reduct, read through mask_members."""
    return [(r.arity, mask_types(reduct.base, r.arity, compile_orbit_union(reduct, r.name)))
            for r in reduct.relations]


def oracle_expected_additions(p, n):
    """Combinatorial oracle: nonempty unions per arity minus declared duplicates."""
    declared = {}
    for arity, members in relation_types(p.reduct_out):
        declared.setdefault(arity, set()).add(members)
    total = 0
    for m in range(1, n + 1):
        count = (1 << len(enumerate_types(p.base_out, m))) - 1
        total += count - len(declared.get(m, set()))
    return total


class TestEpExpand:
    def test_qlt_adds_seven(self, catalog):
        p = compute_core(catalog.reduct("Qlt"))
        expanded = expand(p, 2, "ep")
        added = len(expanded.relations) - len(p.reduct_out.relations)
        assert added == oracle_expected_additions(p, 2) == 7

    def test_point_core(self, catalog):
        p = compute_core(catalog.reduct("Qleq"))
        expanded = expand(p, 2, "ep")
        added = len(expanded.relations) - len(p.reduct_out.relations)
        # one unary union; the single binary union duplicates <= on the point
        assert added == oracle_expected_additions(p, 2) == 1

    def test_clique_core(self, catalog):
        p = compute_core(catalog.reduct("Rg"))
        expanded = expand(p, 2, "ep")
        added = len(expanded.relations) - len(p.reduct_out.relations)
        # unions of {=, edge}: 3 nonempty, one ({edge}) duplicates E; plus unary
        assert added == oracle_expected_additions(p, 2) == 3

    def test_added_relations_compile_to_their_unions(self, catalog):
        p = compute_core(catalog.reduct("Qlt"))
        expanded = expand(p, 2, "ep")
        binary = [members for arity, members in relation_types(expanded) if arity == 2]
        assert len(set(binary)) == len(binary)  # pairwise distinct
        universe = set()
        for members in binary:
            universe |= members
        assert universe == set(enumerate_types(p.base_out, 2))

    def test_invariant_under_witness_choice(self, catalog):
        # expansion depends only on the carved age, not on which minimal
        # witness produced it: re-coring yields the same expansion
        p = compute_core(catalog.reduct("Kww"))
        p2 = compute_core(p.reduct_out, p.k)
        a = [r.arity for r in expand(p, 2, "ep").relations]
        b = [r.arity for r in expand(p2, 2, "ep").relations]
        assert a == b


class TestPolymorphismBehaviours:
    def test_unary_polys_match_behaviours(self, linord):
        # arity-1 polymorphism behaviours are plain behaviours
        got = realizable_behaviours(linord, linord, 2, arity=1)
        assert {tuple(xi.table) for xi in got} == \
            {b.table for b in realizable_behaviours(linord, linord, 2)}

    def test_projections_always_present(self, linord):
        types = enumerate_types(linord, 2)
        t = len(types)
        got = realizable_behaviours(linord, linord, 2, arity=2)
        proj0 = tuple(a for a, b in product(range(t), repeat=2))
        proj1 = tuple(b for a, b in product(range(t), repeat=2))
        tables = {xi.table for xi in got}
        assert proj0 in tables and proj1 in tables

    def test_compatibility_and_coherence_checks(self, linord):
        got = realizable_behaviours(linord, linord, 2, arity=2)
        for xi in got:
            assert is_compatible(xi) and is_coherent(xi)

    def test_serialization_round_trip(self, linord):
        for xi in realizable_behaviours(linord, linord, 2, arity=2)[:5]:
            assert parse_behaviour(serialize_behaviour(xi), linord, linord, 2, arity=2) == xi


class TestPpDefinable:
    def test_atomic_lt_definable(self, catalog):
        p = compute_core(catalog.reduct("Qlt"))
        verdict = definable(p, 2, union_of(1), "pp")
        assert verdict.definable

    def test_equality_definable(self, catalog):
        for name in ("Qlt", "Rg"):
            p = compute_core(catalog.reduct(name))
            verdict = definable(p, 2, union_of(0), "pp")
            assert verdict.definable

    def test_disequality_not_definable_with_min_witness(self, catalog):
        p = compute_core(catalog.reduct("Qlt"))
        types = enumerate_types(p.base_out, 2)
        neq = union_of(1, 2)
        verdict = definable(p, 2, neq, "pp", arity_cap=2)
        assert not verdict.definable
        w = verdict.witness
        assert w.arity == 2
        # the componentwise-minimum signature: ((<),(>)) collapses to (=)
        assert apply_types(w, (types[1], types[2])) == types[0]
        lt = union_of(1)
        assert behaviour_preserves_relation(w, 2, lt, lt)
        assert not behaviour_preserves_relation(w, 2, neq, neq)
        assert is_realizable(w, verdict.realize_cap)

    def test_leq_not_definable_in_qlt_core(self, catalog):
        p = compute_core(catalog.reduct("Qlt"))
        verdict = definable(p, 2, union_of(0, 1), "pp")
        assert not verdict.definable

    def test_caps_recorded(self, catalog):
        p = compute_core(catalog.reduct("Qlt"))
        verdict = definable(p, 2, union_of(1), "pp")
        assert verdict.arity_cap == 1 and verdict.realize_cap >= 2
        assert "up to arity" in verdict.label and "realize-cap" in verdict.label

    def test_empty_union_rejected(self, catalog):
        p = compute_core(catalog.reduct("Qlt"))
        with pytest.raises(InputError):
            definable(p, 2, 0, "pp")


class TestPpExpand:
    def test_qlt_core_adds_companions_but_not_disequality(self, catalog):
        p = compute_core(catalog.reduct("Qlt"))
        expanded = expand(p, 2, "pp", arity_cap=3)
        types = enumerate_types(p.base_out, 2)
        members_sets = {members for arity, members in relation_types(expanded)
                        if arity == 2}
        assert frozenset({types[1]}) in members_sets            # {<} declared
        assert frozenset({types[0]}) in members_sets            # {=}
        assert frozenset({types[2]}) in members_sets            # {>}
        assert frozenset(types) in members_sets                 # full
        assert frozenset({types[1], types[2]}) not in members_sets  # no !=
        assert frozenset({types[0], types[1]}) not in members_sets  # no <=

    def test_point_core_pp_equals_ep(self, catalog):
        p = compute_core(catalog.reduct("Qleq"))
        ep = expand(p, 2, "ep")
        pp = expand(p, 2, "pp")
        assert relation_types(ep) == relation_types(pp)

    def test_clique_core_all_binary_unions_definable(self, catalog):
        p = compute_core(catalog.reduct("Rg"))
        ep = expand(p, 2, "ep")
        pp = expand(p, 2, "pp")
        assert len(pp.relations) == len(ep.relations)

    def test_pp_subset_of_ep_on_catalog(self, catalog):
        for name in ("Qlt", "Qleq", "Rg", "Kww", "Pt"):
            p = compute_core(catalog.reduct(name))
            ep_unions = set(relation_types(expand(p, 2, "ep")))
            pp_unions = set(relation_types(expand(p, 2, "pp")))
            assert pp_unions <= ep_unions


class TestWitnessVerification:
    def test_not_definable_witness_verifies_independently(self, catalog):
        c = catalog.reduct("Qlt")
        p = compute_core(c)
        neq = union_of(1, 2)
        verdict = definable(p, 2, neq, "pp")
        cert = definable_certificate(c, p, verdict)
        notes = verify_certificate(cert)
        assert any("violates" in n for n in notes)

    def test_tampered_witness_fails_verification(self, catalog):
        from agekit.verify import VerificationFailure
        c = catalog.reduct("Qlt")
        p = compute_core(c)
        neq = union_of(1, 2)
        verdict = definable(p, 2, neq, "pp")
        cert = definable_certificate(c, p, verdict)
        # break the table: swap the queried relation to one it preserves
        cert["relation"]["members"] = serialize_mask(p.base_out, 2, union_of(1))
        with pytest.raises(VerificationFailure):
            verify_certificate(cert)

    @pytest.mark.parametrize("edit, message", [
        (lambda c: c.update(witness=c["witness"] + "\n" + c["witness"].splitlines()[0]),
         "duplicate row"),
        (lambda c: c["relation"]["members"].append("[{0}|size=1:]"),
         "types of different levels"),
    ])
    def test_malformed_witness_fails_verification(self, catalog, edit, message):
        from agekit.verify import VerificationFailure
        c = catalog.reduct("Qlt")
        p = compute_core(c)
        cert = definable_certificate(c, p, definable(p, 2, union_of(1, 2), "pp"))
        edit(cert)
        with pytest.raises(VerificationFailure, match=message):
            verify_certificate(cert)
