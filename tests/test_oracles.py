"""The pruned searches against the brute-force algorithms they replace.

canonical_form is checked against the lex-least relabelling over all n!
permutations, age_extensions against filtering every one-point extension,
and _labeled_age_structures against a scan of every atom mask.  A work
guard counts age-membership tests, so a silent fallback to the full filter
fails without any timing.
"""

import random
from itertools import permutations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from agekit.ages import _in_age, age_extensions, enumerate_age
from agekit.ktypes import _labeled_age_structures
from agekit.structures import (
    FinStructure,
    Signature,
    apply_perm,
    canonical_form,
    enumerate_structures,
    one_point_extensions,
    structure,
)
from conftest import CATALOG_FILES

CLASSES = [name[:-len(".cls")] for name in CATALOG_FILES]


def brute_canonical_form(s: FinStructure) -> FinStructure:
    """The relabelling with least encoding, over all n! permutations."""
    n = s.size
    if n <= 1:
        return s
    syms = [(n ** arity, [n ** (arity - 1 - j) for j in range(arity)], table)
            for (_, arity), table in zip(s.signature.symbols, s.tables)]
    best_key = best_perm = None
    for perm in permutations(range(n)):
        key = []
        for m, weights, table in syms:
            bits = 0
            for t in table:
                r = 0
                for v, w in zip(t, weights):
                    r += perm[v] * w
                bits |= 1 << (m - 1 - r)
            key.append(bits)
        if best_key is None or key < best_key:
            best_key, best_perm = key, perm
    return apply_perm(s, best_perm)


def full_mask_scan(k, n: int) -> list[FinStructure]:
    """Every labelled structure on n points into which no bound embeds, in mask order.

    Bit j of a mask is slot j (symbol-major, tuple-lex).  The masks into
    which bound b embeds by the injection f form a subcube: the slots over
    f's image are fixed to b's atoms and every other slot is free.  Their
    union, as a bitset over all masks, is complemented.
    """
    sig = k.signature
    slots = [(si, t) for si, (_, arity) in enumerate(sig.symbols)
             for t in product(range(n), repeat=arity)]
    bit = {slot: j for j, slot in enumerate(slots)}
    hit = 0
    for b in k.bounds:
        for f in permutations(range(n), b.size):
            care = value = 0
            for si, (_, arity) in enumerate(sig.symbols):
                for t in product(range(b.size), repeat=arity):
                    j = bit[si, tuple(f[v] for v in t)]
                    care |= 1 << j
                    if t in b.tables[si]:
                        value |= 1 << j
            cube = 1 << value
            for j in range(len(slots)):
                if not care >> j & 1:
                    cube |= cube << (1 << j)
            hit |= cube
    flags = format(hit, f"0{1 << len(slots)}b")[::-1]
    out = []
    for mask, flag in enumerate(flags):
        if flag == "0":
            tables = [set() for _ in sig.symbols]
            for j, (si, t) in enumerate(slots):
                if mask >> j & 1:
                    tables[si].add(t)
            out.append(FinStructure(sig, n, tuple(frozenset(t) for t in tables)))
    return out


class TestCanonicalForm:
    def test_every_binary_structure_up_to_three_points(self):
        sig = Signature((("E", 2),))
        for n in range(4):
            pairs = list(product(range(n), repeat=2))
            for mask in range(1 << len(pairs)):
                s = structure(sig, n, [("E", p) for j, p in enumerate(pairs)
                                       if mask >> j & 1])
                assert canonical_form(s) == brute_canonical_form(s)

    def test_catalog_members_under_random_relabellings(self, catalog):
        rng = random.Random(0)
        # most classes are graph classes, so their members repeat
        members = dict.fromkeys(s for name in CLASSES for n in range(7)
                                for s in enumerate_age(catalog.bounded_class(name), n))
        for s in members:
            want = brute_canonical_form(s)
            n = s.size
            for _ in range(2):
                perm = list(range(n))
                rng.shuffle(perm)
                assert canonical_form(apply_perm(s, perm)) == want


@st.composite
def drawn_structures(draw, sig: Signature) -> FinStructure:
    n = draw(st.integers(0, 6))
    atoms = []
    if n:
        point = st.integers(0, n - 1)
        for name, arity in sig.symbols:
            tuples = draw(st.sets(st.tuples(*[point] * arity), max_size=14))
            atoms += [(name, t) for t in tuples]
    return structure(sig, n, atoms)


@st.composite
def symmetric_structures(draw, sig: Signature) -> FinStructure:
    """Unions of tuple orbits of a drawn permutation, which is an automorphism."""
    n = draw(st.integers(2, 6))
    g = draw(st.permutations(range(n)))
    atoms, seen = [], set()
    for name, arity in sig.symbols:
        for t in product(range(n), repeat=arity):
            orbit = []
            while (name, t) not in seen:
                seen.add((name, t))
                orbit.append((name, t))
                t = tuple(g[v] for v in t)
            if orbit and draw(st.booleans()):
                atoms += orbit
    return structure(sig, n, atoms)


ORACLE_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True,
                           database=None)


@ORACLE_SETTINGS
@given(drawn_structures(Signature((("E", 2), ("F", 2)))))
def test_drawn_two_binary_symbols(s):
    assert canonical_form(s) == brute_canonical_form(s)


@ORACLE_SETTINGS
@given(drawn_structures(Signature((("R", 3),))))
def test_drawn_ternary(s):
    assert canonical_form(s) == brute_canonical_form(s)


@ORACLE_SETTINGS
@given(drawn_structures(Signature((("U", 1), ("E", 2)))))
def test_drawn_unary_and_binary(s):
    assert canonical_form(s) == brute_canonical_form(s)


@ORACLE_SETTINGS
@given(symmetric_structures(Signature((("U", 1), ("E", 2)))))
def test_drawn_with_automorphisms(s):
    assert canonical_form(s) == brute_canonical_form(s)


def test_automorphisms_fixing_the_labelled_points_only():
    # graphs whose least labelling is lost when the search skips a child by an
    # automorphism that moves an already labelled point
    sig = Signature((("E", 2),))
    for edges in (
        [(0, 1), (2, 1), (1, 5), (2, 0), (1, 4), (3, 0), (0, 2), (4, 5), (5, 0),
         (5, 3), (4, 1), (3, 5)],
        [(0, 1), (2, 4), (1, 2), (4, 0), (4, 1), (2, 0), (5, 1), (3, 0), (0, 5),
         (3, 2), (1, 3), (5, 2)],
        [(4, 0), (2, 1), (4, 1), (3, 1), (2, 0), (5, 1), (1, 4), (3, 0), (0, 2),
         (5, 0), (0, 5), (1, 3)],
    ):
        s = structure(sig, 6, [("E", e) for e in edges])
        assert canonical_form(s) == brute_canonical_form(s)


class TestAgeGeneration:
    def test_age_extensions_equal_filtered_extensions(self, catalog):
        for name in CLASSES:
            k = catalog.bounded_class(name)
            bases = [s for n in range(5) for s in enumerate_age(k, n)]
            bases += [s for n in range(3) for s in enumerate_structures(k.signature, n)]
            for base in bases:
                want = tuple(e for e in one_point_extensions(base) if _in_age(k, e))
                assert age_extensions(k, base) == want

    def test_labeled_age_structures_equal_full_mask_scan(self, catalog):
        for name in CLASSES:
            k = catalog.bounded_class(name)
            for n in range(5):
                assert list(_labeled_age_structures(k, n)) == full_mask_scan(k, n)

    def test_in_age_work_guard(self, graphs):
        # the full filter takes 75,850 membership tests here; point-by-point
        # pruning takes 2,614
        _in_age.cache_clear()
        enumerate_age.cache_clear()
        enumerate_age(graphs, 6)
        assert _in_age.cache_info().misses <= 5000
