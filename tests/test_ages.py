"""Bounded classes: membership, age enumeration, bound normalization,
one-point amalgamation diagnostics."""

import pytest

from agekit import ages
from agekit.ages import (
    BoundedClass,
    check_amalgamation,
    default_ap_cap,
    enumerate_age,
    in_age,
)
from agekit.errors import InputError
from agekit.structures import (
    Signature,
    canonical_form,
    embeds,
    induced,
    render_literal,
    structure,
)
from conftest import enumerate_structures

SIG = Signature((("lt", 2),))
GSIG = Signature((("E", 2),))


def chain(n):
    return structure(SIG, n, [("lt", (i, j)) for i in range(n) for j in range(n) if i < j])


class TestMembership:
    def test_chain_is_a_linear_order(self, linord):
        assert in_age(linord, chain(3))

    def test_directed_three_cycle_is_not(self, linord):
        cyc = structure(SIG, 3, [("lt", (0, 1)), ("lt", (1, 2)), ("lt", (2, 0))])
        assert not in_age(linord, cyc)

    def test_triangle_is_not_triangle_free(self, trifree):
        k3 = structure(GSIG, 3, [("E", (a, b)) for a in range(3)
                                 for b in range(3) if a != b])
        assert not in_age(trifree, k3)

    def test_signature_mismatch(self, linord):
        with pytest.raises(InputError):
            in_age(linord, structure(GSIG, 1))

    def test_downward_closed(self, trifree):
        import random
        rng = random.Random(2)
        for n in range(1, 5):
            for s in enumerate_age(trifree, n):
                sub = rng.sample(range(n), rng.randint(1, n))
                assert in_age(trifree, induced(s, sub))


class TestEnumerateAge:
    def test_triangle_free_n3_has_3_classes(self, trifree):
        # oracle: filter the unconstrained enumeration by membership
        oracle = [s for s in enumerate_structures(GSIG, 3) if in_age(trifree, s)]
        got = enumerate_age(trifree, 3)
        assert len(got) == 3
        assert list(got) == oracle

    def test_linear_orders_single_class_per_size(self, linord):
        assert len(enumerate_age(linord, 2)) == 1
        assert len(enumerate_age(linord, 3)) == 1
        oracle = [s for s in enumerate_structures(SIG, 3) if in_age(linord, s)]
        assert list(enumerate_age(linord, 3)) == oracle

    def test_subsequence_of_unconstrained_enumeration(self, bipartite):
        for n in range(1, 5):
            allsized = list(enumerate_structures(GSIG, n))
            aged = list(enumerate_age(bipartite, n))
            assert aged == [s for s in allsized if in_age(bipartite, s)]

    def test_members_are_canonical(self, graphs):
        for s in enumerate_age(graphs, 4):
            assert canonical_form(s) == s


class TestNormalization:
    def test_redundant_bound_collapses(self, linord):
        # a 4-point pattern containing the 2-cycle adds nothing
        redundant = structure(SIG, 4, [("lt", (0, 1)), ("lt", (1, 0)),
                                       ("lt", (2, 3))])
        k = BoundedClass("x", SIG, linord.bounds + (redundant,), True, True)
        assert k.bounds == linord.bounds

    def test_isomorphic_duplicates_collapse(self):
        a = structure(GSIG, 2, [("E", (0, 1))])
        b = structure(GSIG, 2, [("E", (1, 0))])
        k = BoundedClass("x", GSIG, (a, b))
        assert len(k.bounds) == 1

    def test_bound_minimality_invariant(self, catalog):
        for k in catalog.classes.values():
            for b in k.bounds:
                assert not in_age(k, b)
                for drop in range(b.size):
                    sub = induced(b, [i for i in range(b.size) if i != drop])
                    assert in_age(k, sub)

    def test_empty_bound_rejected(self):
        with pytest.raises(InputError):
            BoundedClass("x", GSIG, (structure(GSIG, 0),))


class TestAmalgamation:
    def test_linear_orders_strong_pass(self, linord):
        assert check_amalgamation(linord, 6, strong=True).ok

    def test_simple_graphs_strong_pass(self, graphs):
        assert check_amalgamation(graphs, 5, strong=True).ok

    def test_maxdeg1_strong_fails_with_expected_diagram(self, maxdeg1):
        result = check_amalgamation(maxdeg1, 3, strong=True)
        assert not result.ok
        b0, b1, b2 = result.counterexample
        edge = structure(GSIG, 2, [("E", (0, 1)), ("E", (1, 0))])
        assert b0.size == 1 and b0 == structure(GSIG, 1)
        assert b1 == edge and b2 == edge

    def test_maxdeg1_weak_passes(self, maxdeg1):
        assert check_amalgamation(maxdeg1, 3, strong=False).ok

    def test_point_class_fails_strong(self, point):
        # two points cannot coexist: joint embedding fails
        result = check_amalgamation(point, 2, strong=True)
        assert not result.ok
        assert result.counterexample[0].size == 0

    def test_default_cap(self, linord, graphs):
        assert default_ap_cap(linord) == 6
        assert default_ap_cap(graphs) == 4

    def test_reports_diagram_count(self, linord):
        result = check_amalgamation(linord, 4, strong=True)
        assert result.ok and result.diagrams_checked > 0

    def test_work_guard_counts_every_amalgam_test(self, trifree, monkeypatch):
        # at cap 6: 5,295 diagrams, each with 2^2 candidate amalgams
        monkeypatch.setattr(ages, "AMALGAM_LIMIT", 5295 * 4)
        assert check_amalgamation(trifree, 6).ok
        monkeypatch.setattr(ages, "AMALGAM_LIMIT", 5295 * 4 - 1)
        with pytest.raises(InputError, match="lower --ap-cap"):
            check_amalgamation(trifree, 6)
