"""Model-complete cores: the four reference examples, optimal presentation,
idempotence, witness minimality and uniqueness."""

import pytest

from agekit.ages import enumerate_age
from agekit.canonical import serialize_behaviour
from agekit.core import compute_core, is_optimally_presented, qualifying_behaviours
from agekit.errors import InputError
from agekit.ktypes import enumerate_types
from agekit.reducts import compile_orbit_union
from agekit.structures import Signature, render_literal, structure
from conftest import age_equal_upto, is_identity, mask_types

GSIG = Signature((("E", 2),))


class TestReferenceCores:
    def test_qleq_core_is_the_point(self, catalog, linord):
        p = compute_core(catalog.reduct("Qleq"))
        ages = [len(enumerate_age(p.base_out, n)) for n in range(5)]
        assert ages == [1, 1, 0, 0, 0]
        # witness is the total collapse; <= becomes total on the point
        assert p.witness.table == (0, 0, 0)
        u = compile_orbit_union(p.reduct_out, "leq")
        assert mask_types(p.base_out, 2, u) == frozenset(enumerate_types(p.base_out, 2))
        assert len(enumerate_types(p.base_out, 2)) == 1

    def test_qlt_core_is_itself(self, catalog, linord):
        p = compute_core(catalog.reduct("Qlt"))
        assert is_identity(p.witness)
        assert age_equal_upto(p.base_out, linord, 4)

    def test_random_graph_core_is_the_clique_class(self, catalog, graphs):
        p = compute_core(catalog.reduct("Rg"))
        # bounds forbid the non-edge pair (plus graph hygiene)
        rendered = {render_literal(b) for b in p.base_out.bounds}
        assert rendered == {"size=1: E(0,0)", "size=2:", "size=2: E(1,0)"}
        for n in range(1, 5):
            assert len(enumerate_age(p.base_out, n)) == 1  # only the clique

    def test_kww_core_is_a_single_edge(self, catalog, bipartite):
        p = compute_core(catalog.reduct("Kww"))
        ages = [len(enumerate_age(p.base_out, n)) for n in range(5)]
        assert ages == [1, 1, 1, 0, 0]
        edge = structure(GSIG, 2, [("E", (0, 1)), ("E", (1, 0))])
        assert enumerate_age(p.base_out, 2) == (edge,)

    def test_trifree_and_maxdeg1_are_cores_already(self, catalog, trifree, maxdeg1):
        for name, cls in (("Tf", trifree), ("M1", maxdeg1)):
            p = compute_core(catalog.reduct(name))
            assert is_identity(p.witness)
            assert age_equal_upto(p.base_out, cls, 4)

    def test_flags_required(self, linord):
        from agekit.ages import BoundedClass
        from agekit.reducts import FormulaDef, Reduct, Relation
        from agekit.structures import Atom
        bare = BoundedClass("bare", linord.signature, linord.bounds, False, False)
        c = Reduct("c", bare, (Relation("lt", 2, FormulaDef(Atom("lt", (0, 1)))),))
        with pytest.raises(InputError):
            compute_core(c)

    def test_core_flags_inherited(self, catalog):
        p = compute_core(catalog.reduct("Qleq"))
        assert p.base_out.homogeneous_asserted and p.base_out.ramsey_asserted


class TestOptimalPresentation:
    def test_qlt_is_optimally_presented(self, catalog):
        ok, refutation = is_optimally_presented(catalog.reduct("Qlt"))
        assert ok and refutation is None

    def test_qleq_refuted_by_the_collapse(self, catalog):
        ok, refutation = is_optimally_presented(catalog.reduct("Qleq"))
        assert not ok
        assert refutation.table == (0, 0, 0)

    def test_qneq_is_optimally_presented(self, catalog):
        # both identity and reversal survive the filter; both are surjective
        ok, _ = is_optimally_presented(catalog.reduct("Qneq"))
        assert ok

    def test_every_core_output_is_optimally_presented(self, catalog):
        for name in ("Qlt", "Qleq", "QltRev", "Qneq", "Rg", "Tf", "Kww", "M1", "Pt"):
            p = compute_core(catalog.reduct(name))
            ok, _ = is_optimally_presented(p.reduct_out, p.k)
            assert ok, f"core of {name} not optimally presented"


class TestIdempotence:
    def test_recoring_gives_identity_witness_and_same_age(self, catalog):
        for name in ("Qlt", "Qleq", "QltRev", "Rg", "Tf", "Kww", "M1", "Pt"):
            p = compute_core(catalog.reduct(name))
            p2 = compute_core(p.reduct_out, p.k)
            assert is_identity(p2.witness), f"recore of {name}"
            assert age_equal_upto(p2.base_out, p.base_out, p.scan_cap)


class TestMinimality:
    def test_selected_image_set_is_inclusion_minimal(self, catalog):
        for name in ("Qlt", "Qleq", "Rg", "Kww", "Qneq"):
            c = catalog.reduct(name)
            p = compute_core(c)
            image_sets = [mask_types(c.base, p.k, xi.image_types())
                          for xi in qualifying_behaviours(c, p.k)]
            assert not any(s < mask_types(c.base, p.k, p.image_types) for s in image_sets)

    def test_tie_break_is_lexicographic(self, catalog):
        c = catalog.reduct("Qleq")
        p = compute_core(c)
        chosen = mask_types(c.base, p.k, p.image_types)
        minimal = [xi for xi in qualifying_behaviours(c, p.k)
                   if mask_types(c.base, p.k, xi.image_types()) == chosen]
        assert serialize_behaviour(p.witness) == min(
            serialize_behaviour(xi) for xi in minimal)


class TestUniqueness:
    def test_minimal_witnesses_give_bidefinable_bases(self, catalog, bipartite):
        """All inclusion-minimal witnesses carve fo-bi-definable presentations."""
        from agekit.decide import decide_bidef
        for name in ("Kww", "Qleq", "Rg"):
            c = catalog.reduct(name)
            p = compute_core(c)
            minimal = [
                xi for xi in qualifying_behaviours(c, p.k)
                if not any(
                    mask_types(c.base, p.k, o.image_types())
                    < mask_types(c.base, p.k, xi.image_types())
                    for o in qualifying_behaviours(c, p.k))
            ]
            # carve a presentation per minimal witness and compare pairwise
            from agekit.core import carve_bounds
            from agekit.ages import BoundedClass
            from agekit.reducts import Reduct
            presentations = []
            for i, xi in enumerate(minimal):
                bounds = carve_bounds(c.base, xi.image_types(), p.k)
                base = BoundedClass(f"{name}_alt{i}", c.base.signature, bounds,
                                    True, True)
                presentations.append(Reduct(f"{name}_alt{i}", base, c.relations))
            for a in presentations:
                for b in presentations:
                    assert decide_bidef(a, b, "fo").answer == "YES"
