"""Structure substrate: induced substructures, embeddings, canonical forms,
isomorphism-class enumeration, quantifier-free evaluation."""

import random
from itertools import permutations, product

import pytest

from agekit.errors import InputError
from agekit.structures import (
    And,
    Atom,
    Eq,
    FinStructure,
    Not,
    Or,
    Signature,
    canonical_form,
    embeds,
    empty_structure,
    encode_key,
    eval_qf,
    find_embedding,
    induced,
    parse_literal,
    render_literal,
    slot_mask,
    slot_readers,
    slots,
    structure,
)
from conftest import enumerate_structures

SIG = Signature((("lt", 2),))
GSIG = Signature((("E", 2),))


def chain(n):
    return structure(SIG, n, [("lt", (i, j)) for i in range(n) for j in range(n) if i < j])


def clique(n):
    return structure(GSIG, n, [("E", (i, j)) for i in range(n) for j in range(n) if i != j])


def path(n):
    atoms = []
    for i in range(n - 1):
        atoms += [("E", (i, i + 1)), ("E", (i + 1, i))]
    return structure(GSIG, n, atoms)


def brute_embeds(p, s):
    """Independent oracle: exhaustive search over all injective maps."""
    if p.size > s.size:
        return False
    for img in permutations(range(s.size), p.size):
        ok = True
        for si, (_, arity) in enumerate(p.signature.symbols):
            for t in product(range(p.size), repeat=arity):
                if (t in p.tables[si]) != (tuple(img[v] for v in t) in s.tables[si]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


class TestSignatureAndStructure:
    def test_duplicate_symbols_rejected(self):
        with pytest.raises(InputError):
            Signature((("E", 2), ("E", 1)))

    def test_zero_arity_rejected(self):
        with pytest.raises(InputError):
            Signature((("E", 0),))

    def test_out_of_range_tuple_rejected(self):
        with pytest.raises(InputError):
            structure(SIG, 2, [("lt", (0, 2))])

    def test_tuples_may_repeat_entries(self):
        s = structure(SIG, 1, [("lt", (0, 0))])
        assert s.table("lt") == frozenset({(0, 0)})


class TestInduced:
    def test_restriction_of_complete_graph(self):
        assert induced(clique(3), (0, 1)) == clique(2)

    def test_identity_case(self):
        s = chain(4)
        assert induced(s, tuple(range(4))) == s

    def test_reindexing(self):
        got = induced(chain(3), (2, 0))
        assert got == structure(SIG, 2, [("lt", (1, 0))])

    def test_out_of_range_is_input_error(self):
        with pytest.raises(InputError):
            induced(chain(2), (0, 5))

    def test_duplicates_rejected(self):
        with pytest.raises(InputError):
            induced(chain(2), (0, 0))

    def test_functorial(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randint(1, 6)
            atoms = [("lt", (i, j)) for i in range(n) for j in range(n)
                     if rng.random() < 0.4]
            s = structure(SIG, n, atoms)
            u = rng.sample(range(n), rng.randint(1, n))
            v = rng.sample(range(len(u)), rng.randint(1, len(u)))
            direct = induced(s, [u[i] for i in v])
            staged = induced(induced(s, u), v)
            assert direct == staged


class TestEmbeds:
    def test_edge_into_path(self):
        assert embeds(clique(2), path(3))

    def test_triangle_not_into_path(self):
        assert not embeds(clique(3), path(3))

    def test_two_cycle_not_into_chains(self):
        twocycle = structure(SIG, 2, [("lt", (0, 1)), ("lt", (1, 0))])
        for n in range(2, 6):
            assert embeds(twocycle, chain(n)) == brute_embeds(twocycle, chain(n))
            assert not embeds(twocycle, chain(n))

    def test_witness_is_an_embedding(self):
        g, s = clique(2), path(3)
        wit = find_embedding(g.signature, g.tables, g.size, s.tables, s.size)
        assert wit is not None
        a, b = wit
        assert (a, b) in path(3).table("E") and (b, a) in path(3).table("E")

    def test_signature_mismatch(self):
        with pytest.raises(InputError):
            embeds(chain(2), path(2))

    def test_agrees_with_oracle_randomized(self):
        rng = random.Random(3)
        for _ in range(60):
            np_, ns = rng.randint(1, 3), rng.randint(1, 4)
            p = structure(GSIG, np_, [("E", (i, j)) for i in range(np_)
                                      for j in range(np_) if rng.random() < 0.5])
            s = structure(GSIG, ns, [("E", (i, j)) for i in range(ns)
                                     for j in range(ns) if rng.random() < 0.5])
            assert embeds(p, s) == brute_embeds(p, s)


def atom_mask(sig, tables, points) -> int:
    """The mask of the pattern tables induce on the ordered points, by the
    loop slot_mask replaced: bit j for the j-th tuple over points,
    symbol-major and tuple-lex."""
    mask, bit = 0, 1
    for (_, arity), table in zip(sig.symbols, tables):
        for t in product(points, repeat=arity):
            if t in table:
                mask |= bit
            bit <<= 1
    return mask


class TestSlots:
    SIGS = (Signature((("U", 1), ("E", 2), ("T", 3))),
            Signature((("T", 3), ("U", 1), ("E", 2))))

    def test_slots_equal_product_filter(self):
        for sig in self.SIGS:
            for n in range(5):
                for m in range(min(n, 3) + 1):
                    for through in permutations(range(n), m):
                        assert slots(sig, n, through) == tuple(
                            (si, t) for si, (_, arity) in enumerate(sig.symbols)
                            for t in product(range(n), repeat=arity)
                            if set(through) <= set(t))

    def test_slot_mask_equals_atom_mask_loop(self):
        rng = random.Random(8)
        for sig in self.SIGS:
            for _ in range(100):
                n = rng.randint(1, 5)
                s = structure(sig, n, [(name, t) for name, arity in sig.symbols
                                       for t in product(range(n), repeat=arity)
                                       if rng.random() < 0.5])
                points = tuple(rng.sample(range(n), rng.randint(0, min(n, 4))))
                readers = slot_readers(slots(sig, len(points)))
                assert slot_mask(readers, s.tables, points) == \
                    atom_mask(sig, s.tables, points)


class TestCanonicalForm:
    def test_idempotent(self):
        s = chain(3)
        assert canonical_form(canonical_form(s)) == canonical_form(s)

    def test_relabelings_of_triangle_agree(self):
        base = clique(3)
        for perm in permutations(range(3)):
            relabeled = structure(
                GSIG, 3,
                [("E", (perm[a], perm[b])) for a, b in base.table("E")])
            assert canonical_form(relabeled) == canonical_form(base)

    def test_nine_points_relabelling_invariant(self):
        rng = random.Random(9)
        s = structure(GSIG, 9, [("E", (a, b)) for a in range(9) for b in range(9)
                                if a != b and rng.random() < 0.4])
        for _ in range(5):
            perm = list(range(9))
            rng.shuffle(perm)
            relabelled = structure(GSIG, 9, [("E", (perm[a], perm[b]))
                                             for a, b in s.table("E")])
            assert canonical_form(relabelled) == canonical_form(s)

    def test_single_edge_orientations_agree(self):
        e1 = structure(GSIG, 2, [("E", (0, 1)), ("E", (1, 0))])
        e2 = structure(GSIG, 2, [("E", (1, 0)), ("E", (0, 1))])
        assert canonical_form(e1) == canonical_form(e2)
        # brute-force isomorphism cross-check
        assert brute_embeds(e1, e2) and brute_embeds(e2, e1)

    def test_canonical_iff_isomorphic(self):
        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(1, 4)
            a = structure(SIG, n, [("lt", (i, j)) for i in range(n)
                                   for j in range(n) if rng.random() < 0.5])
            b = structure(SIG, n, [("lt", (i, j)) for i in range(n)
                                   for j in range(n) if rng.random() < 0.5])
            iso = brute_embeds(a, b) and brute_embeds(b, a)
            assert iso == (canonical_form(a) == canonical_form(b))


class TestEnumerateStructures:
    def test_one_binary_symbol_n2_is_10(self):
        # oracle: 16 labelled structures quotiented by the swap
        labelled = []
        for bits in range(16):
            atoms = [("lt", t) for i, t in enumerate(product(range(2), repeat=2))
                     if bits >> i & 1]
            labelled.append(structure(SIG, 2, atoms))
        classes = {canonical_form(s) for s in labelled}
        assert len(classes) == 10
        # Burnside cross-check: (fix(id) + fix(swap)) / 2
        fix_swap = sum(
            1 for s in labelled
            if structure(SIG, 2, [("lt", (1 - a, 1 - b)) for a, b in s.table("lt")]) == s
        )
        assert (16 + fix_swap) // 2 == 10
        assert len(enumerate_structures(SIG, 2)) == 10

    def test_n0_is_exactly_the_empty_structure(self):
        assert enumerate_structures(GSIG, 0) == (empty_structure(GSIG),)

    def test_one_binary_symbol_n1_is_2(self):
        assert len(enumerate_structures(SIG, 1)) == 2

    def test_n3_matches_explicit_orbit_count(self):
        labelled = []
        for bits in range(1 << 9):
            atoms = [("lt", t) for i, t in enumerate(product(range(3), repeat=2))
                     if bits >> i & 1]
            labelled.append(structure(SIG, 3, atoms))
        orbits = set()
        for s in labelled:
            orbits.add(canonical_form(s))
        assert len(enumerate_structures(SIG, 3)) == len(orbits)

    def test_outputs_are_canonical_and_sorted(self):
        out = enumerate_structures(SIG, 3)
        assert all(canonical_form(s) == s for s in out)
        keys = [encode_key(s) for s in out]
        assert keys == sorted(keys)


class TestEvalQf:
    def test_leq_formula_on_chain(self):
        phi = Or((Atom("lt", (0, 1)), Eq(0, 1)))
        two = chain(2)
        assert eval_qf(phi, two, (0, 1))
        assert not eval_qf(phi, two, (1, 0))
        assert eval_qf(Eq(0, 1), chain(3), (2, 2))

    def test_connectives(self):
        two = chain(2)
        assert eval_qf(Not(Atom("lt", (1, 0))), two, (0, 1))
        assert not eval_qf(And((Atom("lt", (0, 1)), Atom("lt", (1, 0)))), two, (0, 1))

    def test_arity_mismatch_is_input_error(self):
        with pytest.raises(InputError):
            eval_qf(Atom("lt", (0, 1)), chain(2), (0,))


class TestLiterals:
    def test_round_trip(self):
        for s in (chain(3), clique(3), empty_structure(SIG), path(4)):
            assert parse_literal(s.signature, render_literal(s)) == s

    def test_bad_literal(self):
        with pytest.raises(InputError):
            parse_literal(SIG, "3: lt(0,1)")
        with pytest.raises(InputError):
            parse_literal(SIG, "size=2: lt(0)")


class TestIsomorphismInvariant:
    def test_mutual_embedding_same_size_means_same_canonical_form(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(1, 4)
            a = structure(GSIG, n, [("E", (i, j)) for i in range(n)
                                    for j in range(n) if rng.random() < 0.5])
            b = structure(GSIG, n, [("E", (i, j)) for i in range(n)
                                    for j in range(n) if rng.random() < 0.5])
            if embeds(a, b) and embeds(b, a):
                assert canonical_form(a) == canonical_form(b)
