"""Behaviours: enumeration against brute-force oracles, realizability,
image structures, composition, range-rigidity, the extension probe."""

import random
import sys
from itertools import permutations, product
from pathlib import Path

import pytest

from agekit.ages import enumerate_age, in_age
from agekit.canonical import (
    Behaviour,
    _image_failure,
    _value_row,
    default_realize_cap,
    enumerate_behaviours,
    greedy_extension_probe,
    identity_behaviour,
    inverse,
    is_coherent,
    is_range_rigid,
    is_realizable,
    local_realize_bound,
    random_age_member,
    serialize_behaviour,
)
from agekit.errors import InputError
from agekit.ktypes import KType, enumerate_types, read_type_indices, type_of_raw
from agekit.parser import Catalog, parse_input
from agekit.structures import Signature, canonical_form, induced, structure
from conftest import (IncoherentImage, compose, image_structure, is_compatible, is_identity,
                      parse_behaviour, random_classes, realizable_behaviours, reference_probe,
                      type_index)

SIG = Signature((("lt", 2),))
GSIG = Signature((("E", 2),))


def chain(n):
    return structure(SIG, n, [("lt", (i, j)) for i in range(n) for j in range(n) if i < j])


def brute_force_valid_tables(src_cls, tgt_cls, k, cap=None):
    """Oracle: try every raw table; keep those that are compatible, coherent
    and survive the bounded image check.  No pruning, no shared enumeration."""
    nsrc = len(enumerate_types(src_cls, k))
    ntgt = len(enumerate_types(tgt_cls, k))
    keep = []
    for table in product(range(ntgt), repeat=nsrc):
        xi = Behaviour(src_cls, tgt_cls, k, table)
        if not is_compatible(xi) or not is_coherent(xi):
            continue
        if is_realizable(xi, cap):
            keep.append(xi)
    return keep


class TestEnumerateBehaviours:
    def test_linear_orders_exactly_three(self, linord):
        got = realizable_behaviours(linord, linord, 2)
        oracle = brute_force_valid_tables(linord, linord, 2)
        assert len(got) == 3
        assert {b.table for b in got} == {b.table for b in oracle}
        assert {b.table for b in got} == {(0, 1, 2), (0, 2, 1), (0, 0, 0)}

    def test_point_class_exactly_one(self, point):
        got = realizable_behaviours(point, point, 2)
        assert len(got) == 1

    def test_linord_to_graphs_brute_force(self, linord, graphs):
        got = realizable_behaviours(linord, graphs, 2)
        oracle = brute_force_valid_tables(linord, graphs, 2)
        assert {b.table for b in got} == {b.table for b in oracle}
        # must include the comparability collapse: < and > both to edge
        types = enumerate_types(graphs, 2)
        edge = types.index(next(t for t in types
                                if t.quotient.table("E")))
        assert any(b.table[1] == edge and b.table[2] == edge for b in got)

    def test_k_below_arity_rejected(self, linord):
        with pytest.raises(InputError):
            enumerate_behaviours(linord, linord, 1)

    def test_level_1_refused(self, linord):
        # a behaviour reads collapsing off level-2 types, even on a unary class
        with pytest.raises(InputError, match="level must be >= 2, got 1"):
            Behaviour(linord, linord, 1, (0,))
        unary = parse_input("class unary\n  sig P/1\nend\n").sole_class()
        with pytest.raises(InputError, match="k must be >= 2"):
            enumerate_behaviours(unary, unary, 1)

    def test_deterministic_and_sorted(self, graphs):
        a = enumerate_behaviours(graphs, graphs, 2)
        b = enumerate_behaviours(graphs, graphs, 2)
        assert a == b
        keys = [serialize_behaviour(x) for x in a]
        assert keys == sorted(keys)

    def test_search_depth_does_not_grow_with_rows(self, graphs):
        # 127 rows at level 4, searched with 50 frames to spare: no frame
        # per row, and the behaviours of the k=4 golden report
        golden = (Path(__file__).parent / "golden" / "behaviours_graphs_k4.txt").read_text()
        want, block = [], None
        for line in golden.splitlines():
            if line.startswith("behaviour "):
                block = []
                want.append(block)
            elif block is not None:
                block.append(line[2:])
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            got = realizable_behaviours(graphs, graphs, 4)
        finally:
            sys.setrecursionlimit(limit)
        assert len(enumerate_types(graphs, 4)) == 127
        assert [serialize_behaviour(xi) for xi in got] == ["\n".join(b) for b in want]

    def test_filter_prunes_before_realizability(self, linord):
        only_id = [xi for xi in realizable_behaviours(linord, linord, 2)
                   if is_identity(xi)]
        assert [b.table for b in only_id] == [(0, 1, 2)]


class TestRealizability:
    def test_identity_realizable(self, linord):
        assert is_realizable(identity_behaviour(linord, 2))

    def test_cliqueify_realizable(self, graphs):
        cliq = Behaviour(graphs, graphs, 2, (0, 2, 2))
        assert is_realizable(cliq)

    def test_triangle_free_cliqueify_rejected_at_size_3(self, trifree):
        cliq = Behaviour(trifree, trifree, 2, (0, 2, 2))
        assert not is_realizable(cliq, 3)
        assert not is_realizable(cliq)

    def test_nonedge_collapse_on_graphs_needs_size_3(self, graphs):
        # collapse of non-adjacent points: intransitive on edge-plus-vertex
        bad = Behaviour(graphs, graphs, 2, (0, 0, 2))
        assert is_realizable(bad, 2)
        assert not is_realizable(bad, 3)
        assert default_realize_cap(graphs, 2) >= 3
        assert not is_realizable(bad)

    def test_part_collapse_on_bipartite_realizable(self, bipartite):
        part = Behaviour(bipartite, bipartite, 2, (0, 0, 2))
        assert is_realizable(part)


# Test-only classes for the local realizability bound max(3, r + 1, b).
# unary: one unary symbol, no bounds (r + 1 = 2, b = 0).  k4free: K4-free
# graphs (b = 4).  mutual: loopless digraphs whose mutual arcs form an
# equivalence.  ternary: a ternary symbol holding on injective tuples only,
# forced by bounds on at most 2 points (r + 1 = 4, b = 2).
LOCAL_CLASSES = """
class unary
  sig P/1
end

class k4free
  sig E/2
  bound size=1: E(0,0)
  bound size=2: E(0,1)
  bound size=4: E(0,1) E(0,2) E(0,3) E(1,0) E(1,2) E(1,3) E(2,0) E(2,1) E(2,3) E(3,0) E(3,1) E(3,2)
end

class mutual
  sig R/2
  bound size=1: R(0,0)
  bound size=3: R(0,1) R(1,0) R(1,2) R(2,1)
  bound size=3: R(0,1) R(1,0) R(1,2) R(2,1) R(0,2)
end
"""

MIXED_SLOTS = [t for t in product(range(2), repeat=3) if len(set(t)) == 2]


def _ternary_text():
    lines = ["class ternary", "  sig T/3", "  bound size=1: T(0,0,0)"]
    for mask in range(1, 1 << len(MIXED_SLOTS)):
        atoms = " ".join(f"T({a},{b},{c})" for g, (a, b, c) in enumerate(MIXED_SLOTS)
                         if mask >> g & 1)
        lines.append(f"  bound size=2: {atoms}")
    return "\n".join(lines + ["end", ""])


@pytest.fixture(scope="module")
def local_classes():
    # the ternary class has 27 atom slots on 3 points; its bounds leave 6 free
    cat = Catalog()
    parse_input(LOCAL_CLASSES + _ternary_text(), cat)
    return cat


def _table_by_types(source, target, k, value):
    """The arity-1 table sending each source k-type p to value(p)."""
    index = type_index(target, k)
    return Behaviour(source, target, k,
                     tuple(index[value(p)] for p in enumerate_types(source, k)))


def _rgs(keys):
    """Block labels in first-occurrence order for a list of class keys."""
    order = list(dict.fromkeys(keys))
    return tuple(order.index(c) for c in keys)


def _arcs_to_ternary(local_classes):
    """mutual -> ternary at k=3: mutual arcs collapse; T(a, b, c) holds on
    three classes when the representative of a has an arc to that of b.
    Two representatives of a with different arcs to b disagree only with a
    third class present: on 4 points, never on 3."""
    mutual = local_classes.bounded_class("mutual")
    ternary = local_classes.bounded_class("ternary")
    tsig = ternary.signature

    def value(p):
        arcs = p.quotient.table("R")
        cls = [min(q for q in range(3) if p.blocks[q] == p.blocks[i]
                   or ((p.blocks[i], p.blocks[q]) in arcs
                       and (p.blocks[q], p.blocks[i]) in arcs))
               for i in range(3)]
        blocks = _rgs(cls)
        atoms = []
        if max(blocks) == 2:
            atoms = [("T", (blocks[a], blocks[b], blocks[c]))
                     for a, b, c in permutations(range(3))
                     if (p.blocks[a], p.blocks[b]) in arcs]
        return KType(3, blocks, structure(tsig, max(blocks) + 1, atoms))

    return _table_by_types(mutual, ternary, 3, value)


class TestLocalRealizeBound:
    """One table per term of max(3, r + 1, b) that passes below the bound
    and fails at it, with that term strictly the largest: lowering any term
    makes is_realizable stop before the failure."""

    @staticmethod
    def check_tight(xi, bound):
        assert local_realize_bound(xi.target) == bound
        assert default_realize_cap(xi.target, xi.k) > bound
        assert is_compatible(xi) and is_coherent(xi)
        assert is_realizable(xi, bound - 1)
        assert not is_realizable(xi, bound)
        assert not is_realizable(xi)

    def test_three_term_intransitive_collapse(self, graphs, local_classes):
        # edges collapse, non-edges do not: intransitive on a path of 3
        unary = local_classes.bounded_class("unary")
        usig = unary.signature

        def value(p):
            collapsed = p.nblocks == 1 or (0, 1) in p.quotient.table("E")
            return (KType(2, (0, 0), structure(usig, 1)) if collapsed
                    else KType(2, (0, 1), structure(usig, 2)))

        self.check_tight(_table_by_types(graphs, unary, 2, value), 3)

    def test_bound_term_k4_free_target(self, graphs, local_classes):
        # graphs into K4-free graphs by the identity on types: every 3 points
        # map into the target age, K4 does not
        k4free = local_classes.bounded_class("k4free")
        self.check_tight(_table_by_types(graphs, k4free, 3, lambda p: p), 4)

    def test_arity_term_ternary_target(self, local_classes):
        self.check_tight(_arcs_to_ternary(local_classes), 4)


def image_failure(xi, s):
    """The engine's check of the image of one member (canonical._image_failure,
    grown point by point): the failure text, or None."""
    return _image_failure(xi.target, s.size, lambda m: _value_row(
        xi, m, (read_type_indices(xi.source, s, m),)))


class TestImageStructure:
    """The image of one member: the engine's point-by-point check, and the
    image built whole by the tests' reference (conftest.image_structure)."""

    def test_identity_gives_back_the_structure(self, linord):
        ident = identity_behaviour(linord, 2)
        for n in range(5):
            for s in enumerate_age(linord, n):
                assert image_failure(ident, s) is None
                assert canonical_form(image_structure(ident, s)) == canonical_form(s)

    def test_total_collapse_gives_a_point(self, linord):
        collapse = Behaviour(linord, linord, 2, (0, 0, 0))
        assert image_failure(collapse, chain(3)) is None
        img = image_structure(collapse, chain(3))
        assert img.size == 1 and not img.table("lt")

    def test_reversal_reverses_the_chain(self, linord):
        reversal = Behaviour(linord, linord, 2, (0, 2, 1))
        assert image_failure(reversal, chain(3)) is None
        img = image_structure(reversal, chain(3))
        assert img.table("lt") == frozenset({(1, 0), (2, 0), (2, 1)})

    def test_image_outside_the_target_age(self, linord, trifree):
        # every pair of a chain to an edge: three points give a triangle
        edges = Behaviour(linord, trifree, 2, (0, 2, 2))
        assert image_failure(edges, chain(2)) is None
        assert image_failure(edges, chain(3)) == "image outside target age at size 3"
        assert not in_age(trifree, image_structure(edges, chain(3)))

    def test_outside_age_is_input_error(self, linord):
        # the reference refuses a structure outside the source age
        cyc = structure(SIG, 3, [("lt", (0, 1)), ("lt", (1, 2)), ("lt", (2, 0))])
        with pytest.raises(InputError):
            image_structure(identity_behaviour(linord, 2), cyc)

    def test_incoherent_collapse_raises(self, graphs):
        # non-edges collapse, so on the path 0-1-2-3 the point 0 joins 2
        # and 3, and 3 joins 1, but the edge 0-1 does not collapse: first
        # seen on all four points
        bad = Behaviour(graphs, graphs, 2, (0, 0, 2))
        p4 = structure(GSIG, 4, [("E", (i, j)) for i, j in
                                 ((0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2))])
        assert image_failure(bad, p4) == (
            "incoherent image at size 4: collapse relation not transitive")
        with pytest.raises(IncoherentImage, match="collapse relation not transitive"):
            image_structure(bad, p4)

    def test_functorial_on_substructures(self, graphs):
        rng = random.Random(6)
        for xi in realizable_behaviours(graphs, graphs, 2):
            for _ in range(20):
                s = random_age_member(graphs, 5, rng)
                if s.size < 2:
                    continue
                sub = sorted(rng.sample(range(s.size), rng.randint(1, s.size)))
                img = image_structure(xi, s)
                # project the subset through the collapse classes
                classes = _collapse_classes(xi, s)
                proj = []
                for x in sub:
                    if classes[x] not in proj:
                        proj.append(classes[x])
                left = canonical_form(image_structure(xi, induced(s, sub)))
                right = canonical_form(induced(img, proj))
                assert left == right


def _collapse_classes(xi, s):
    lvl2 = xi.level_map(2)
    idx2 = type_index(xi.source, 2)
    t2 = enumerate_types(xi.target, 2)
    n = s.size
    classes = [-1] * n
    nxt = 0
    for x in range(n):
        if classes[x] == -1:
            for y in range(x, n):
                if t2[lvl2[idx2[type_of_raw(s, (x, y))]]].degenerate_pair:
                    classes[y] = nxt
            nxt += 1
    return classes


class TestCompose:
    def test_reversal_squared_is_identity(self, linord):
        reversal = Behaviour(linord, linord, 2, (0, 2, 1))
        assert is_identity(compose(reversal, reversal))

    def test_identity_is_neutral(self, linord):
        ident = identity_behaviour(linord, 2)
        for xi in realizable_behaviours(linord, linord, 2):
            assert compose(ident, xi) == xi
            assert compose(xi, ident) == xi

    def test_collapse_after_reversal_is_collapse(self, linord):
        reversal = Behaviour(linord, linord, 2, (0, 2, 1))
        collapse = Behaviour(linord, linord, 2, (0, 0, 0))
        assert compose(collapse, reversal) == collapse

    def test_class_mismatch_rejected(self, linord, graphs):
        with pytest.raises(InputError):
            compose(identity_behaviour(graphs, 2), identity_behaviour(linord, 2))

    def test_composition_of_realizable_is_realizable(self, catalog):
        for name in ("linord", "graphs", "trifree", "bipartite", "maxdeg1", "point"):
            cls = catalog.bounded_class(name)
            behaviours = realizable_behaviours(cls, cls, 2)
            for a in behaviours:
                for b in behaviours:
                    assert is_realizable(compose(a, b))

    def test_inverse_of_bijective(self, linord):
        reversal = Behaviour(linord, linord, 2, (0, 2, 1))
        assert is_identity(compose(inverse(reversal), reversal))
        with pytest.raises(InputError):
            inverse(Behaviour(linord, linord, 2, (0, 0, 0)))


class TestRangeRigidity:
    def test_idempotent_tables_only(self, linord, graphs):
        assert is_range_rigid(identity_behaviour(linord, 2))
        assert is_range_rigid(Behaviour(linord, linord, 2, (0, 0, 0)))
        assert not is_range_rigid(Behaviour(linord, linord, 2, (0, 2, 1)))
        assert is_range_rigid(Behaviour(graphs, graphs, 2, (0, 2, 2)))

    def test_matches_self_composition(self, catalog):
        for name in ("linord", "graphs", "bipartite"):
            cls = catalog.bounded_class(name)
            for xi in realizable_behaviours(cls, cls, 2):
                assert is_range_rigid(xi) == (compose(xi, xi) == xi)


class TestSerialization:
    def test_round_trip(self, linord, graphs):
        for xi in realizable_behaviours(linord, graphs, 2):
            text = serialize_behaviour(xi)
            assert parse_behaviour(text, linord, graphs, 2) == xi

    def test_partial_table_rejected(self, linord):
        text = serialize_behaviour(identity_behaviour(linord, 2))
        first_two = "\n".join(text.splitlines()[:2])
        with pytest.raises(InputError):
            parse_behaviour(first_two, linord, linord, 2)


class TestProbe:
    def test_identity_probe_clean(self, linord):
        report = greedy_extension_probe((identity_behaviour(linord, 2),), 6, 100, 1)[0]
        assert report.ok and report.trials == 100

    def test_cliqueify_probe_clean(self, graphs):
        cliq = Behaviour(graphs, graphs, 2, (0, 2, 2))
        report = greedy_extension_probe((cliq,), 8, 200, 2)[0]
        assert report.ok

    def test_probe_exposes_bogus_behaviour(self, graphs):
        # not realizable (rejected at cap 4); geometry fails on 4-point paths
        bad = Behaviour(graphs, graphs, 2, (0, 0, 2))
        assert not is_realizable(bad)
        report = greedy_extension_probe((bad,), 8, 200, 3)[0]
        assert not report.ok

    def test_probe_deterministic_for_fixed_seed(self, graphs):
        cliq = Behaviour(graphs, graphs, 2, (0, 2, 2))
        a = greedy_extension_probe((cliq,), 6, 50, 7)[0]
        b = greedy_extension_probe((cliq,), 6, 50, 7)[0]
        assert a == b

    def test_atoms_read_through_every_new_point(self, local_classes):
        # the disagreement shows once a prefix has 4 points or more, whether
        # its last point opens a class or joins one: its atoms are read either way
        xi = _arcs_to_ternary(local_classes)
        for seed in (1, 2):
            got = greedy_extension_probe((xi,), 6, 40, seed)[0]
            assert got == reference_probe(xi, 6, 40, seed)
            found = [f.split(" at size ")[1].split(": ") for f in got.failures]
            assert found and all(int(size) >= 4 for size, _ in found)
            assert {law for _, law in found} == {
                "relation atoms disagree across representatives"}

    def test_random_members_live_in_the_age(self, catalog, hyper3):
        # a draw skips its age test where every bound fits the widths its
        # patterns are drawn at and no symbol has arity 4 or more (the lemma
        # of canonical._random_extension): graphs, hyper3 and the random
        # classes with no 3-point bound; trifree's triangle, linord's
        # transitivity and the random 3-point bounds keep the test
        rng = random.Random(0)
        runs = [(catalog.bounded_class(name), 8)
                for name in ("linord", "graphs", "trifree", "bipartite", "maxdeg1")]
        runs += [(hyper3, 5)] + [(k, 5) for k in random_classes()]
        assert {k.max_bound_size for k, _ in runs} == {1, 2, 3}
        for cls, n in runs:
            for _ in range(25):
                s = random_age_member(cls, n, rng)
                assert in_age(cls, s)

    def test_random_members_reach_size_8(self, catalog):
        rng = random.Random(1)
        for name in ("linord", "graphs", "bipartite"):
            cls = catalog.bounded_class(name)
            sizes = {random_age_member(cls, 8, rng).size for _ in range(20)}
            assert max(sizes) == 8
