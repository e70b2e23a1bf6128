"""The fast paths against the brute-force algorithms they replace.

canonical_form is checked against the lex-least relabelling over all n!
permutations, enumerate_age and enumerate_structures against
canonicalizing every one-point extension, age_extensions against
filtering every one-point extension,
and _labeled_age_structures against a scan of every atom mask.  The
type-index tables, the whole-image reference and the engine's image
check, which grows each image point by point, are checked against a KType
built per tuple.  The anchored bound checks (_in_age_through, the amalgamation
scan without mirrored diagrams, random_age_member) are checked against the
full _in_age search, and _in_age_through's root index against searching
every rooted bound.  The extension probe, which grows each prefix image
by its new point, is checked against building every prefix image whole
(reference_probe).  decide_bidef's forced signature matching is checked
against the search over every arity-preserving matching.  The pinned
search for relation-preserving behaviours, and the definability expansions
built on it, are checked against filtering every realizable behaviour,
and is_realizable's verdict cache and its local bound against building
every image up to the full realize cap; its refuters-first order and its
packed rows against the plain ordered scan with rows built per tuple and
each image built whole (reference_is_realizable), in shuffled call orders
and at caps below a learned refuter.  carve_bounds, which grows the
carved age, is checked against testing every structure of the signature,
and the verifier's staged age scan against filtering every one-point
extension.  Work
guards count canonical forms and searches, age-membership tests, amalgam
tests, per-tuple KTypes and domain propagations, so a silent fallback to
the slow path fails without any timing.
"""

import random
import sys
from functools import lru_cache
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agekit import ages, canonical, core, decide, ktypes, structures, verify
from agekit.ages import (
    BoundedClass,
    _in_age,
    _in_age_through,
    age_extensions,
    check_amalgamation,
    default_ap_cap,
    enumerate_age,
)
from agekit.canonical import (
    Behaviour,
    inverse,
    _propagate_domains,
    default_realize_cap,
    enumerate_behaviours,
    greedy_extension_probe,
    is_coherent,
    is_range_rigid,
    is_realizable,
    local_realize_bound,
    random_age_member,
    serialize_behaviour,
)
from agekit.core import (
    carve_bounds,
    compute_core,
    is_optimally_presented,
    preserving_behaviours,
    preserving_domains,
    qualifying_behaviours,
    scan_cap_for,
    union_rows,
)
from agekit.definability import expand
from agekit.errors import InputError
from agekit.ktypes import (
    _labeled_age_structures,
    default_level,
    degenerate_pairs,
    enumerate_types,
    read_type_indices,
    restrict_type,
    serialize_type,
    type_index,
    type_of_raw,
)
from agekit.structures import (
    FinStructure,
    Signature,
    apply_perm,
    automorphism_generators,
    canonical_form,
    empty_structure,
    encode_key,
    find_embedding,
    one_point_extensions,
    render_literal,
    structure,
)
from agekit.parser import parse_input
from agekit.reducts import behaviour_preserves_relation, compiled_unions
from agekit.verify import _v_age
from conftest import (
    CATALOG_FILES,
    UNARY,
    IncoherentImage,
    _hypergraph3_text,
    apply_types,
    catalog_path,
    enumerate_structures,
    image_from_types,
    image_structure,
    mask_types,
    poly_image_structure,
    reference_carve_bounds,
    reference_expand,
    realizable_behaviours,
    reference_probe,
    reference_propagate_domains,
    reference_sigma_constraints,
    reference_v_age,
    types_mask,
    value_rows,
)

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


def reference_generation(bases, extensions) -> tuple[FinStructure, ...]:
    """The canonical forms of every extension of every base, without a gate."""
    seen = {canonical_form(e) for base in bases for e in extensions(base)}
    return tuple(sorted(seen, key=encode_key))


@lru_cache(maxsize=None)
def reference_structures(sig: Signature, n: int) -> tuple[FinStructure, ...]:
    if n == 0:
        return (empty_structure(sig),)
    return reference_generation(reference_structures(sig, n - 1), one_point_extensions)


@st.composite
def small_signatures(draw) -> tuple[Signature, int]:
    """One or two unary and binary symbols, the last perhaps ternary instead,
    and a size up to 4 with at most 2^16 labelled structures."""
    arities = draw(st.lists(st.sampled_from((1, 2)), min_size=1, max_size=2))
    if draw(st.booleans()):
        arities[-1] = 3
    sig = Signature(tuple((f"S{i}", a) for i, a in enumerate(arities)))
    top = max(n for n in range(5) if sum(n ** a for a in arities) <= 16)
    return sig, draw(st.integers(0, top))


class TestAgeGeneration:
    @pytest.mark.parametrize("name", CLASSES)
    def test_enumerate_age_equals_every_extension_canonicalized(self, catalog, name):
        k = catalog.bounded_class(name)
        top = 7 if name in ("linord", "maxdeg1", "point", "bipartite") else 6
        members = (empty_structure(k.signature),)
        for n in range(1, top + 1):
            members = reference_generation(members, lambda base: age_extensions(k, base))
            assert enumerate_age(k, n) == members

    @ORACLE_SETTINGS
    @given(small_signatures())
    def test_enumerate_structures_equal_every_extension_canonicalized(self, drawn):
        sig, n = drawn
        assert enumerate_structures(sig, n) == reference_structures(sig, n)

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

    def test_canonical_form_work_guard(self, graphs):
        # canonicalizing every extension takes 1,307 canonical forms here;
        # the profile gate lets 442 extensions through
        canonical_form.cache_clear()
        enumerate_age.cache_clear()
        enumerate_age(graphs, 6)
        assert canonical_form.cache_info().misses <= 500

    def test_canonical_search_work_guard(self, graphs):
        # searches, bases included: 444 with the profile gate alone, 255
        # with orbit pruning, which lets 241 extensions reach canonical_form
        structures._least_labelling.cache_clear()
        canonical_form.cache_clear()
        enumerate_age.cache_clear()
        enumerate_age(graphs, 6)
        assert structures._least_labelling.cache_info().misses <= 300

    def test_automorphism_generators_fix_every_member(self, catalog):
        moved = 0
        for name in CLASSES:
            k = catalog.bounded_class(name)
            for n in range(7):
                for s in enumerate_age(k, n):
                    for g in automorphism_generators(s):
                        assert sorted(g) == list(range(n))
                        assert apply_perm(s, g) == s
                        moved += g != tuple(range(n))
        assert moved > 0


# -- type-index tables and the image kernel -------------------------------------

def reference_image(sig: Signature, n: int, image_type, single_collapses: bool):
    """The image structure read off one KType per tuple, as the per-tuple code did.

    image_type(t) is the target type of the tuple t.  single_collapses says
    whether a one-point structure still checks its reflexive pair (the
    polymorphism path did, the behaviour path did not).
    """
    if n == 0:
        return empty_structure(sig)
    if n == 1 and not single_collapses:
        collapse = [[True]]
    else:
        collapse = [[image_type((x, y)).degenerate_pair for y in range(n)]
                    for x in range(n)]
        for x in range(n):
            if not collapse[x][x]:
                raise IncoherentImage("reflexive pair does not collapse")
            for y in range(n):
                if collapse[x][y] != collapse[y][x]:
                    raise IncoherentImage("collapse relation not symmetric")
                for z in range(n):
                    if collapse[x][y] and collapse[y][z] and not collapse[x][z]:
                        raise IncoherentImage("collapse relation not transitive")
    class_of = [-1] * n
    nclasses = 0
    for x in range(n):
        if class_of[x] == -1:
            for y in range(x, n):
                if collapse[x][y]:
                    class_of[y] = nclasses
            nclasses += 1
    tables = []
    for si, (_, arity) in enumerate(sig.symbols):
        seen = {}
        for t in product(range(n), repeat=arity):
            q = image_type(t)
            holds = tuple(q.blocks[j] for j in range(arity)) in q.quotient.tables[si]
            ct = tuple(class_of[v] for v in t)
            if ct in seen and seen[ct] != holds:
                raise IncoherentImage(
                    "relation atoms disagree across representatives")
            seen[ct] = holds
        tables.append(frozenset(ct for ct, h in seen.items() if h))
    return FinStructure(sig, nclasses, tuple(tables))


def outcome(fn):
    """The result, or the message of the IncoherentImage raised."""
    try:
        return fn()
    except IncoherentImage as exc:
        return f"incoherent: {exc}"


def source_types(k, s):
    """type_index[type_of_raw] of every tuple of s, at levels 1-3, per tuple."""
    out = {}
    for level in (1, 2, 3):
        idx = type_index(k, level)
        for t in product(range(s.size), repeat=level):
            out[t] = idx[type_of_raw(s, t)]
    return out


def compatible_tables(source, target, k):
    """Every table commuting with restriction, by a plain row-by-row search."""
    nrows = len(enumerate_types(source, k))
    nvals = len(enumerate_types(target, k))
    checks = reference_sigma_constraints(source, target, k)
    table, out = [-1] * nrows, []

    def rec(i):
        if i == nrows:
            out.append(tuple(table))
            return
        for v in range(nvals):
            table[i] = v
            if all(table[j] == rt[table[p]] for p, j, rt in checks[i]):
                rec(i + 1)
        table[i] = -1

    rec(0)
    return out


def compatible_poly_tables(k, level, arity):
    t = len(enumerate_types(k, level))
    checks = reference_sigma_constraints(k, k, level, arity)
    table, out = [-1] * t ** arity, []

    def rec(i):
        if i == len(table):
            out.append(tuple(table))
            return
        for v in range(t):
            table[i] = v
            if all(table[j] == r[table[p]] for p, j, r in checks[i]):
                rec(i + 1)
        table[i] = -1

    rec(0)
    return out


class TestTypeIndices:
    def test_equal_type_index_of_type_of_raw(self, catalog):
        for name in CLASSES:
            k = catalog.bounded_class(name)
            for level in (1, 2, 3):
                slots = sum(level ** arity for _, arity in k.signature.symbols)
                if slots > 20:
                    continue
                idx = type_index(k, level)
                for n in range(6):
                    for s in enumerate_age(k, n):
                        want = tuple(idx[type_of_raw(s, t)]
                                     for t in product(range(n), repeat=level))
                        assert read_type_indices(k, s, level) == want

    def test_outside_the_age_is_input_error(self, catalog, trifree, linord):
        triangle = structure(trifree.signature, 3, [
            ("E", (i, j)) for i in range(3) for j in range(3) if i != j])
        cycle = structure(linord.signature, 3, [
            ("lt", (0, 1)), ("lt", (1, 2)), ("lt", (2, 0))])
        for k, s in ((trifree, triangle), (linord, cycle)):
            xi = Behaviour(k, k, 2, tuple(range(len(enumerate_types(k, 2)))))
            with pytest.raises(InputError, match="structure outside the source age"):
                image_structure(xi, s)

    def test_serialized_tables_equal_per_type_serialization(self, linord, trifree):
        for xi in realizable_behaviours(trifree, trifree, 3):
            src = enumerate_types(xi.source, xi.k)
            tgt = enumerate_types(xi.target, xi.k)
            assert serialize_behaviour(xi) == "\n".join(sorted(
                f"{serialize_type(p)} -> {serialize_type(tgt[v])}"
                for p, v in zip(src, xi.table)))
        types = enumerate_types(linord, 2)
        for table in compatible_poly_tables(linord, 2, 2)[::50]:
            xi = Behaviour(linord, linord, 2, table, arity=2)
            lines = []
            for args in product(range(len(types)), repeat=2):
                left = " | ".join(serialize_type(types[a]) for a in args)
                lines.append(f"{left} -> {serialize_type(types[xi.value(args)])}")
            assert serialize_behaviour(xi) == "\n".join(sorted(lines))


class TestImageKernel:
    @pytest.mark.parametrize("name", ["graphs", "trifree"])
    def test_behaviour_images_at_k3(self, catalog, name):
        k = catalog.bounded_class(name)
        tables = compatible_tables(k, k, 3)
        assert tables
        cap = default_realize_cap(k, 3)
        self._check(k, [Behaviour(k, k, 3, t) for t in tables], cap)

    @pytest.mark.parametrize("name,second", [
        ("graphs", "transitive"), ("trifree", "transitive"), ("linord", "symmetric")])
    def test_behaviour_images_of_every_level_two_table(self, catalog, name, second):
        # every raw table, most of them incompatible or incoherent
        k = catalog.bounded_class(name)
        nt = len(enumerate_types(k, 2))
        xis = [Behaviour(k, k, 2, t) for t in product(range(nt), repeat=nt)]
        assert self._check(k, xis, 5) == {
            "incoherent: reflexive pair does not collapse",
            f"incoherent: collapse relation not {second}"}

    @staticmethod
    def member_types(k, s) -> dict:
        """read_type_indices of s at level 2 and each arity of k."""
        return {m: read_type_indices(k, s, m)
                for m in {2} | {a for _, a in k.signature.symbols}}

    @staticmethod
    def engine_passes(xi, n, type_rows) -> bool:
        """The engine's verdict (canonical._image_in_age, the image grown
        point by point) on a member tuple of size n, given each member's
        member_types."""
        rows = tuple((m, tuple(canonical._value_row(xi, m, [t[m] for t in type_rows])))
                     for m in sorted(type_rows[0]))
        return canonical._image_in_age(xi.target, n, xi.arity > 1, rows)

    def _check(self, k, xis, cap):
        types = {m: enumerate_types(k, m) for m in (1, 2, 3)}
        messages = set()
        for n in range(cap + 1):
            for s in enumerate_age(k, n):
                src = source_types(k, s)
                tidx = self.member_types(k, s)
                for xi in xis:
                    def image_type(t, xi=xi):
                        m = len(t)
                        return types[m][xi.level_map(m)[src[t]]]
                    want = outcome(lambda: reference_image(
                        k.signature, n, image_type, single_collapses=False))
                    got = outcome(lambda: image_structure(xi, s))
                    assert got == want, (xi.table, s)
                    if n:
                        assert self.engine_passes(xi, n, (tidx,)) == (
                            not isinstance(want, str) and _in_age(k, want)), (xi.table, s)
                    if isinstance(got, str):
                        messages.add(got)
        return messages

    @pytest.mark.parametrize("name,level,size", [
        ("graphs", 3, 3), ("trifree", 3, 4), ("graphs", 2, 4), ("trifree", 2, 4)])
    def test_poly_images(self, catalog, name, level, size):
        # argument pairs up to `size` points: at the realize cap (6) graphs
        # alone has 24,336 pairs per table.  At level 2 a share of the 6,561
        # compatible tables, and random raw ones to reach incoherent images.
        k = catalog.bounded_class(name)
        tables = compatible_poly_tables(k, level, 2)
        if level == 2:
            nt = len(enumerate_types(k, 2))
            rng = random.Random(2)
            tables = tables[::80] + [tuple(rng.randrange(nt) for _ in range(nt * nt))
                                     for _ in range(60)]
        xis = [Behaviour(k, k, level, t, arity=2) for t in tables]
        types = {m: enumerate_types(k, m) for m in (1, 2, 3)}
        messages = set()
        for n in range(size + 1):
            members = enumerate_age(k, n)
            src = {s: source_types(k, s) for s in members}
            tidx = {s: self.member_types(k, s) for s in members}
            for pair in product(members, repeat=2):
                for xi in xis:
                    def image_type(t, xi=xi, pair=pair):
                        m = len(t)
                        args = tuple(src[s][t] for s in pair)
                        return types[m][xi.value(args, m)]
                    want = outcome(lambda: reference_image(
                        k.signature, n, image_type, single_collapses=True))
                    got = outcome(lambda: poly_image_structure(xi, pair))
                    assert got == want, (xi.table, pair)
                    if n:
                        assert self.engine_passes(xi, n, [tidx[s] for s in pair]) == (
                            not isinstance(want, str) and _in_age(k, want)), (xi.table, pair)
                    if isinstance(got, str):
                        messages.add(got)
        if level == 2:
            assert "incoherent: relation atoms disagree across representatives" in messages


class TestNoTypePerTuple:
    """No KType is built per tuple on the realizability and probe paths,
    nor per type in the restriction maps.  The caches the paths read their
    type indices through are cleared first, so the guard holds when it runs
    alone as it does after other tests."""

    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]
        real = ktypes.type_of_raw

        def counting(*args):
            count[0] += 1
            return real(*args)

        for mod in list(sys.modules.values()):
            if mod is not None and mod.__name__.startswith("agekit") \
                    and getattr(mod, "type_of_raw", None) is real:
                monkeypatch.setattr(mod, "type_of_raw", counting)
        ktypes.restrict_index_map.cache_clear()
        canonical._arcs.cache_clear()
        canonical._member_types.cache_clear()
        canonical._member_columns.cache_clear()
        canonical._refuters.cache_clear()
        return count

    def test_counts_a_call(self, calls, graphs):
        ktypes.type_of_raw(enumerate_age(graphs, 2)[0], (0, 1))
        assert calls[0] == 1

    def test_enumerate_behaviours(self, calls, graphs):
        assert len(realizable_behaviours(graphs, graphs, 3)) == 5
        assert ktypes.restrict_index_map.cache_info().misses > 0
        assert canonical._member_columns.cache_info().misses > 0
        assert calls[0] == 0

    def test_probe(self, calls, graphs):
        for xi in realizable_behaviours(graphs, graphs, 2):
            assert greedy_extension_probe((xi,), 6, 20, 1)[0].ok
        assert calls[0] == 0

    def test_poly_is_realizable(self, calls, linord):
        # level 2 of linord at arity 2: 9 flat indices, the packed rows
        nt = len(enumerate_types(linord, 2))
        proj0 = tuple(a for a, b in product(range(nt), repeat=2))
        xi = Behaviour(linord, linord, 2, proj0, arity=2)
        assert is_realizable(xi)
        assert canonical._member_columns.cache_info().misses > 0
        assert TestRealizabilityKernel.row_kinds(xi, 3) == {2: bytes}
        assert calls[0] == 0

    def test_poly_is_realizable_past_a_byte(self, calls, graphs, hyper3):
        # level 3 of graphs at arity 3: 15 ** 3 flat indices, the list rows
        xi = TestRealizabilityKernel.lifted(
            enumerate_behaviours(graphs, hyper3, 3)[0], 3, 0)
        assert is_realizable(xi, 3)
        assert canonical._member_types.cache_info().misses > 0
        assert TestRealizabilityKernel.row_kinds(xi, 3) == {2: bytes, 3: tuple}
        assert calls[0] == 0


class TestBehaviourSearch:
    """enumerate_behaviours (arc-consistent domains), filtered by
    is_realizable, against the plain row-by-row search followed by a
    per-tuple KType coherence check and realizability: same tables, same
    sorted order."""

    @staticmethod
    def coherent_by_types(xi):
        src = enumerate_types(xi.source, xi.k)
        pair = {(p, i, j): restrict_type(p, (i, j))
                for p in src for i in range(xi.k) for j in range(xi.k)}
        for args in product(src, repeat=xi.arity):
            collapse = [[apply_types(xi, (pair[p, i, j] for p in args)).degenerate_pair
                         for j in range(xi.k)] for i in range(xi.k)]
            for x, y, z in product(range(xi.k), repeat=3):
                if not collapse[x][x] or collapse[x][y] != collapse[y][x]:
                    return False
                if collapse[x][y] and collapse[y][z] and not collapse[x][z]:
                    return False
        return True

    def reference(self, cls, k, arity):
        tables = (compatible_tables(cls, cls, k) if arity == 1
                  else compatible_poly_tables(cls, k, arity))
        xis = [Behaviour(cls, cls, k, t, arity) for t in tables]
        kept = [xi for xi in xis if self.coherent_by_types(xi) and is_realizable(xi)]
        return tuple(sorted(kept, key=serialize_behaviour))

    @pytest.mark.parametrize("name,k", [(name, 2) for name in CLASSES]
                             + [("graphs", 3), ("trifree", 3)])
    def test_arity_one(self, catalog, name, k):
        cls = catalog.bounded_class(name)
        want = self.reference(cls, k, 1)
        assert want
        assert realizable_behaviours(cls, cls, k) == want

    @staticmethod
    def realizable_image_by_image(xi, cap):
        """is_realizable through image_structure and poly_image_structure,
        one member tuple at a time, with no verdict cache."""
        for n in range(1, cap + 1):
            for members in product(enumerate_age(xi.source, n), repeat=xi.arity):
                try:
                    img = (image_structure(xi, members[0]) if xi.arity == 1
                           else poly_image_structure(xi, members))
                except IncoherentImage:
                    return False
                if not _in_age(xi.target, img):
                    return False
        return True

    @pytest.mark.parametrize("name,k,arity,step", [(name, 2, 1, 1) for name in CLASSES]
                             + [("graphs", 3, 1, 1), ("trifree", 3, 1, 1),
                                ("linord", 2, 2, 1), ("graphs", 2, 2, 40),
                                ("trifree", 2, 2, 40)])
    def test_is_realizable_equals_image_by_image(self, catalog, name, k, arity, step):
        # the verdict cache keyed by value rows against building every image;
        # every compatible table (every step-th of the larger polymorphism
        # lists), and random raw ones to reach incoherent images
        cls = catalog.bounded_class(name)
        tables = (compatible_tables(cls, cls, k) if arity == 1
                  else compatible_poly_tables(cls, k, arity))[::step]
        nt = len(enumerate_types(cls, k))
        rng = random.Random(3)
        tables += [tuple(rng.randrange(nt) for _ in range(nt ** arity)) for _ in range(20)]
        verdicts = set()
        for t in tables:
            xi = Behaviour(cls, cls, k, t, arity)
            for cap in (1, default_realize_cap(cls, k)):
                got = is_realizable(xi, cap)
                assert got == self.realizable_image_by_image(xi, cap), (t, cap)
                verdicts.add(got)
        assert verdicts == {False, True} or nt == 1  # point: one table

    def test_arity_two(self, linord):
        want = self.reference(linord, 2, 2)
        assert len(want) > 2  # more than the two projections
        assert realizable_behaviours(linord, linord, 2, arity=2) == want


    @pytest.mark.parametrize("k", [2, 3])
    def test_search_emits_serialization_order(self, catalog, k):
        # the search branches on rows in source-serialization order and
        # tries values in target-serialization order, so its tables come
        # out sorted with no sort after it: every catalog pair at arity 1,
        # the endo pairs at arity 2 for k = 2, and the reducts' preserving
        # tables (searched inside pinned domains) at arities 1 and 2
        searches = [(s, t, arity) for s, t in product(CLASSES, repeat=2)
                    for arity in ((1, 2) if k == 2 and s == t else (1,))]
        runs = [((s, t, arity), enumerate_behaviours(catalog.bounded_class(s),
                                                     catalog.bounded_class(t), k, arity=arity))
                for s, t, arity in searches]
        runs += [((c.name, arity), preserving_behaviours(c, arity, k))
                 for c in catalog.reducts.values() if default_level(c) <= k
                 for arity in (1, 2)]
        unsorted_by_index = 0
        for name, got in runs:
            assert list(got) == sorted(got, key=serialize_behaviour), name
            unsorted_by_index += list(got) != sorted(got, key=lambda xi: xi.table)
        # index order is not serialization order on many of them
        assert unsorted_by_index >= 10

    def test_every_searched_table_is_coherent(self, catalog):
        # the search judges no table's coherence: a compatible table is
        # coherent (the lemma of enumerate_behaviours), so every table it
        # returns, realizable or not, passes is_coherent
        count = 0
        searches = [(s, t, k, 1) for s, t in product(CLASSES, repeat=2) for k in (2, 3)]
        searches += [(s, s, 2, 2) for s in CLASSES]
        for s, t, k, arity in searches:
            for xi in enumerate_behaviours(catalog.bounded_class(s), catalog.bounded_class(t),
                                           k, arity=arity):
                assert is_coherent(xi), (s, t, k, arity, xi.table)
                count += 1
        for c in catalog.reducts.values():
            for xi in preserving_behaviours(c, 2, default_level(c)):
                assert is_coherent(xi), (c.name, xi.table)
                count += 1
        assert count > 10_000

    @pytest.mark.parametrize("name", ["linord", "trifree"])
    def test_coherence_of_perturbed_tables(self, catalog, name):
        # every compatible level-3 table is coherent here, so flip single
        # rows of them to reach incoherent ones, at arity 1 and 2
        cls = catalog.bounded_class(name)
        nt = len(enumerate_types(cls, 3))
        rng = random.Random(5)
        verdicts = set()
        for arity in (1, 2):
            tables = (compatible_tables(cls, cls, 3) if arity == 1
                      else compatible_poly_tables(cls, 3, arity))
            for table in tables:
                for _ in range(3):
                    row = list(table)
                    row[rng.randrange(len(row))] = rng.randrange(nt)
                    xi = Behaviour(cls, cls, 3, tuple(row), arity)
                    verdicts.add((arity, is_coherent(xi)))
                    assert is_coherent(xi) == self.coherent_by_types(xi), (arity, row)
        assert verdicts == {(1, True), (1, False), (2, True), (2, False)}


class TestLocalRealizability:
    """is_realizable stops arity-1 checks at local_realize_bound, below
    default_realize_cap; the verdict must equal building every image up to
    default_realize_cap.  Every compatible, coherent table is checked at
    k = 2 (where some fail) and k = 3 (where level-3 coherence leaves none
    that fails); at k = 4, pairs whose sources have few members up to 8
    points."""

    @staticmethod
    def verdicts(source, target, k):
        out = set()
        for xi in enumerate_behaviours(source, target, k):
            cap = default_realize_cap(target, k)
            assert local_realize_bound(target) < cap
            got = is_realizable(xi)
            assert got == TestBehaviourSearch.realizable_image_by_image(xi, cap), (
                source.name, target.name, xi.table)
            out.add(got)
        return out

    @pytest.mark.parametrize("k", [2, 3])
    def test_every_catalog_pair(self, catalog, k):
        verdicts = set()
        for s, t in product(CLASSES, repeat=2):
            verdicts |= self.verdicts(catalog.bounded_class(s),
                                      catalog.bounded_class(t), k)
        assert verdicts == ({False, True} if k == 2 else {True})

    @pytest.mark.parametrize("source,target", [("linord", "trifree"),
                                               ("maxdeg1", "graphs"),
                                               ("bipartite", "maxdeg1")])
    def test_sampled_pairs_at_k4(self, catalog, source, target):
        assert self.verdicts(catalog.bounded_class(source),
                             catalog.bounded_class(target), 4) == {True}


@lru_cache(maxsize=None)
def reference_image_in_age(target: BoundedClass, n: int, poly: bool, rows: tuple) -> bool:
    """Whether the image on n points with these (level, value row) pairs,
    built whole (image_from_types), is coherent and passes the full _in_age
    search; a polymorphism's one-point image also needs its reflexive pair
    to collapse.  Uses neither the cache nor the point-by-point routine of
    canonical._image_in_age."""
    images = dict(rows).__getitem__
    if poly and n == 1 and not degenerate_pairs(target)[images(2)[0]]:
        return False
    try:
        return _in_age(target, image_from_types(target, n, images))
    except IncoherentImage:
        return False


def reference_is_realizable(xi: Behaviour, cap: int | None = None) -> bool:
    """is_realizable as it read member tuples before the refuter list and
    the shared member columns: every member tuple in order, its value rows
    built per tuple by value_rows, its image built whole and searched by
    _in_age (reference_image_in_age)."""
    n_cap = cap if cap is not None else default_realize_cap(xi.target, xi.k)
    arities = {a for _, a in xi.target.signature.symbols}
    poly = xi.arity > 1
    if not poly:
        n_cap = min(n_cap, local_realize_bound(xi.target))
    for n in range(1, n_cap + 1):
        levels = sorted(arities | {2} if n > 1 or poly else arities)
        for members in product(enumerate_age(xi.source, n), repeat=xi.arity):
            images = value_rows(xi, members)
            rows = tuple((m, tuple(images(m))) for m in levels)
            if not reference_image_in_age(xi.target, n, poly, rows):
                return False
    return True


class TestRealizabilityKernel:
    """is_realizable tries the member tuples that refuted earlier tables
    first, and reads value rows off packed member columns shared by every
    table where they fit a byte; its rows and verdicts must equal the
    plain scan's (reference_is_realizable), in any call order and at any
    cap."""

    @pytest.fixture
    def refuters(self):
        canonical._refuters.cache_clear()
        return canonical._refuters

    @staticmethod
    def lifted(xi: Behaviour, arity: int, position: int) -> Behaviour:
        """The arity-`arity` table that applies xi to argument `position`."""
        nk = len(enumerate_types(xi.source, xi.k))
        return Behaviour(xi.source, xi.target, xi.k,
                         tuple(xi.table[args[position]]
                               for args in product(range(nk), repeat=arity)), arity)

    @staticmethod
    def row_kinds(xi: Behaviour, n: int) -> dict:
        """Per level read on n points: bytes on the packed path, tuple on
        the list path."""
        return {m: type(row) for m, row in canonical._member_rows(xi)(n, (0,) * xi.arity)}

    @staticmethod
    def assert_rows_equal_reference(xi: Behaviour, cap: int):
        rows = canonical._member_rows(xi)
        for n in range(1, cap + 1):
            members = enumerate_age(xi.source, n)
            for idx in product(range(len(members)), repeat=xi.arity):
                images = value_rows(xi, tuple(members[i] for i in idx))
                assert [(m, tuple(row)) for m, row in rows(n, idx)] == [
                    (m, tuple(images(m))) for m, _ in rows(n, idx)], (xi.table, n, idx)

    def check(self, xis_caps):
        verdicts = set()
        for xi, cap in xis_caps:
            got = is_realizable(xi, cap)
            assert got == reference_is_realizable(xi, cap), (xi.table, cap)
            verdicts.add(got)
        return verdicts

    @pytest.mark.parametrize("k", [2, 3])
    def test_catalog_pairs(self, catalog, refuters, k):
        xis = [xi for s, t in product(CLASSES, repeat=2)
               for xi in enumerate_behaviours(catalog.bounded_class(s),
                                              catalog.bounded_class(t), k)]
        assert self.check([(xi, cap) for xi in xis for cap in (None, 2)]) == (
            {False, True} if k == 2 else {True})

    @pytest.mark.parametrize("name", ["Tf", "Qlt"])
    def test_preserving_poly_tables(self, catalog, refuters, name):
        c = catalog.reduct(name)
        xis = preserving_behaviours(c, 2, default_level(c))
        verdicts = self.check([(xi, cap) for xi in xis for cap in (None, 2)])
        assert verdicts == ({False, True} if name == "Tf" else {True})

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_shuffled_call_orders(self, catalog, refuters, seed):
        # refuters learned in one order, at one cap, are tried on the
        # tables of every other order and cap
        tf = catalog.reduct("Tf")
        xis = list(preserving_behaviours(tf, 2, 2))
        xis += [xi for s, t in product(["graphs", "trifree", "maxdeg1"], repeat=2)
                for xi in enumerate_behaviours(catalog.bounded_class(s),
                                               catalog.bounded_class(t), 2)]
        calls = [(xi, cap) for xi in xis for cap in (None, 2, 3)]
        random.Random(seed).shuffle(calls)
        assert self.check(calls) == {False, True}
        assert refuters(tf.base, tf.base, 2)

    @pytest.mark.parametrize("arity", [1, 2])
    def test_refuter_above_the_cap_is_skipped(self, graphs, trifree, refuters, arity):
        # a table refuted first on 3 points is realizable at cap 2: the
        # refuter learned at the full cap is no term of the check at cap 2
        xis = (enumerate_behaviours(graphs, trifree, 2) if arity == 1
               else enumerate_behaviours(trifree, trifree, 2, arity=2))
        xi = next(xi for xi in xis
                  if not reference_is_realizable(xi) and reference_is_realizable(xi, 2))
        assert not is_realizable(xi)
        ((n, _), *_) = refuters(xi.source, xi.target, arity)
        assert n > 2
        assert is_realizable(xi, 2)
        assert not is_realizable(xi)

    def test_refuters_kept_are_bounded(self, trifree, refuters):
        # a full list that refutes nothing: the new refuter goes first and
        # the oldest is dropped
        xi = next(xi for xi in enumerate_behaviours(trifree, trifree, 2, arity=2)
                  if not reference_is_realizable(xi))
        kept = refuters(trifree, trifree, 2)
        cap = default_realize_cap(trifree, 2)
        stale = [(cap + 1, (i, i)) for i in range(canonical.REFUTERS_KEPT)]
        kept[:] = stale
        assert not is_realizable(xi)
        assert len(kept) == canonical.REFUTERS_KEPT
        assert kept[1:] == stale[:-1]
        assert kept[0][0] <= cap

    def test_flat_indices_past_a_byte(self, graphs, hyper3, refuters):
        # level 3 of graphs has 15 types: at arities 1 and 2 its 15 and 225
        # flat indices are packed, at arity 3 its 3,375 are read on the list
        # path; the same tables applied to one argument give the same
        # images on both
        rng = random.Random(5)
        nvals = len(enumerate_types(hyper3, 3))
        lifts = {2: [], 3: []}
        perturbed = set()
        for i, xi in enumerate(enumerate_behaviours(graphs, hyper3, 3)):
            assert self.row_kinds(xi, 3) == {2: bytes, 3: bytes}
            self.assert_rows_equal_reference(xi, 3)
            for arity in (2, 3):
                lift = self.lifted(xi, arity, i % arity)
                # a changed diagonal row is read by every tuple of one member
                table = list(lift.table)
                table[rng.randrange(15) * (15 ** arity - 1) // 14] = rng.randrange(nvals)
                changed = Behaviour(graphs, hyper3, 3, tuple(table), arity)
                assert self.row_kinds(lift, 3) == {2: bytes, 3: bytes if arity == 2 else tuple}
                for t in (lift, changed):
                    self.assert_rows_equal_reference(t, 3)
                lifts[arity].append(self.check([(lift, 3)]).pop())
                perturbed |= self.check([(changed, 3)])
        assert lifts[2] == lifts[3]
        assert perturbed == {False, True}

    def test_target_types_past_a_byte(self, linord, refuters):
        # two free binary symbols have 260 2-types, past a byte: rows of
        # linord polymorphisms into them take the list path, though the 9
        # flat indices of linord's 2-types at arity 2 would fit
        free2 = parse_input("class free2\n  sig E/2 F/2\nend\n").bounded_class("free2")
        assert len(enumerate_types(free2, 2)) > 256
        rng = random.Random(6)
        verdicts = set()
        for xi in enumerate_behaviours(linord, free2, 2):
            lift = self.lifted(xi, 2, 0)
            table = list(lift.table)
            table[rng.choice((0, 4, 8))] = rng.randrange(260)  # a diagonal row
            assert self.row_kinds(lift, 3) == {2: tuple}
            for t in (lift, Behaviour(linord, free2, 2, tuple(table), 2)):
                self.assert_rows_equal_reference(t, 4)
                verdicts |= self.check([(t, None)])
        assert verdicts == {False, True}


# -- anchored bound checks --------------------------------------------------------

def full_in_age(k, tables, size, through) -> bool:
    """_in_age_through by the full bound search over the whole structure."""
    return _in_age(k, FinStructure(k.signature, size, tuple(frozenset(t) for t in tables)))


def reference_amalgamation(k, cap: int, strong: bool):
    """(ok, diagrams checked, first failing diagram), testing every diagram
    and every candidate amalgam with the full _in_age."""
    sig = k.signature
    checked = 0
    for n in range(cap):
        for b0 in enumerate_age(k, n):
            exts = [e for e in one_point_extensions(b0) if _in_age(k, e)]
            for b1 in exts:
                for b2 in exts:
                    checked += 1
                    if not strong and b1.tables == b2.tables:
                        continue
                    # new points: n from b1, n + 1 from b2
                    tables = [set(t) for t in b1.tables]
                    for si, table in enumerate(b2.tables):
                        tables[si] |= {tuple(n + 1 if v == n else v for v in t)
                                       for t in table if n in t}
                    free = [(si, t) for si, (_, arity) in enumerate(sig.symbols)
                            for t in product(range(n + 2), repeat=arity)
                            if n in t and n + 1 in t]
                    for bits in range(1 << len(free)):
                        cand = [set(t) for t in tables]
                        for j, (si, t) in enumerate(free):
                            if bits >> j & 1:
                                cand[si].add(t)
                        if full_in_age(k, cand, n + 2, None):
                            break
                    else:
                        return False, checked, (b0, b1, b2)
    return True, checked, None


def unindexed_in_age_through(k, tables, size, through) -> bool:
    """_in_age_through searching every rooted bound, without the root index."""
    return not any(
        find_embedding(k.signature, b.tables, b.size, tables, size, through) is not None
        for b in ages._rooted_bounds(k, len(through)))


def random_structure(sig: Signature, n: int, rng) -> FinStructure:
    return structure(sig, n, [(name, t) for name, arity in sig.symbols
                              for t in product(range(n), repeat=arity)
                              if rng.random() < 0.5])


def random_class(sig: Signature, rng, name: str) -> BoundedClass:
    """1-4 bounds on at most 3 points.  Half the classes take uniform random
    bounds.  The other half take one random structure on 2 or 3 points in
    1-4 of the four ways of joining its last two points by E: with all four
    kept, amalgamating the two points over the others fails, which uniform
    bounds almost never bring about."""
    if rng.random() < 0.5:
        bounds = [random_structure(sig, rng.randint(1, 3), rng)
                  for _ in range(rng.randint(1, 4))]
    else:
        n = rng.randint(2, 3)
        e = sig.index("E")
        a, b = n - 2, n - 1
        base = [set(t) for t in random_structure(sig, n, rng).tables]
        base[e] -= {(a, b), (b, a)}
        bounds = []
        for joins in rng.sample(((), ((a, b),), ((b, a),), ((a, b), (b, a))),
                                rng.choice((1, 2, 3, 4, 4, 4))):
            tables = [set(t) for t in base]
            tables[e] |= set(joins)
            bounds.append(FinStructure(sig, n, tuple(frozenset(t) for t in tables)))
    return BoundedClass(name, sig, tuple(bounds))


def random_classes() -> list[BoundedClass]:
    """40 seeded classes, 20 over E/2 and 20 over E/2 and U/1."""
    rng = random.Random(4)
    return [random_class(sig, rng, f"r{i}")
            for sig in (Signature((("E", 2),)), Signature((("E", 2), ("U", 1))))
            for i in range(20)]


class TestAnchoredBoundChecks:
    def test_amalgamation_on_catalog_classes(self, catalog):
        for name in CLASSES:
            k = catalog.bounded_class(name)
            for strong in (False, True):
                got = check_amalgamation(k, None, strong)
                assert (got.ok, got.diagrams_checked, got.counterexample) == \
                    reference_amalgamation(k, default_ap_cap(k), strong)

    def test_amalgamation_on_random_classes(self):
        # cap 2: amalgams on up to 3 points, the size of the largest bound
        outcomes = set()
        for k in random_classes():
            for strong in (False, True):
                got = check_amalgamation(k, 2, strong)
                assert (got.ok, got.diagrams_checked, got.counterexample) == \
                    reference_amalgamation(k, 2, strong)
                outcomes.add((strong, got.ok))
        # weak and strong failures both occur, so counterexamples are compared
        assert outcomes == {(False, False), (False, True), (True, False), (True, True)}

    def test_in_age_through_equals_in_age(self, catalog):
        for name in CLASSES:
            k = catalog.bounded_class(name)
            for n in range(5):
                for base in enumerate_age(k, n):
                    for e in one_point_extensions(base):
                        assert _in_age_through(k, e.tables, e.size, (n,)) == _in_age(k, e)

    def test_in_age_through_equals_unindexed_search(self, catalog):
        # catalog classes, and seeded classes with a ternary symbol; random
        # structures on up to 5 points, 1 to 3 distinct points to go through
        rng = random.Random(9)
        classes = [catalog.bounded_class(name) for name in CLASSES]
        classes += [random_class(sig, rng, f"t{i}")
                    for sig in (Signature((("E", 2), ("T", 3))),
                                Signature((("T", 3), ("E", 2), ("U", 1))))
                    for i in range(15)]
        verdicts = set()
        for k in classes:
            for _ in range(40):
                n = rng.randint(1, 5)
                s = random_structure(k.signature, n, rng)
                for m in range(1, min(n, 3) + 1):
                    through = tuple(rng.sample(range(n), m))
                    got = _in_age_through(k, s.tables, n, through)
                    assert got == unindexed_in_age_through(k, s.tables, n, through)
                    verdicts.add((m, got))
        assert verdicts == {(m, v) for m in (1, 2, 3) for v in (False, True)}

    def test_one_point_larger_lookup_equals_unindexed_search(self):
        # classes whose bounds all have m + 1 points, so the root index
        # decides every pattern it lists without find_embedding; structures
        # on m + 1 to 6 points, each holding a bound planted at random
        # points, half of them with one slot over those points flipped,
        # checked through the images of m of the bound's points
        rng = random.Random(5)
        decided = set()
        for sig in (Signature((("E", 2), ("U", 1))), Signature((("E", 2), ("T", 3)))):
            for m in (1, 2, 3):
                for i in range(6):
                    k = BoundedClass(f"p{m}{i}", sig, tuple(
                        random_structure(sig, m + 1, rng) for _ in range(rng.randint(1, 3))))
                    whole, roots, _, one_more, larger = ages._root_index(k, m)
                    assert one_more and not larger
                    for _ in range(30):
                        n = rng.randint(m + 1, 6)
                        s = [set(t) for t in random_structure(sig, n, rng).tables]
                        b = rng.choice(k.bounds)
                        image = rng.sample(range(n), m + 1)
                        for si, (_, arity) in enumerate(sig.symbols):
                            for t in product(range(m + 1), repeat=arity):
                                mapped = tuple(image[v] for v in t)
                                s[si].discard(mapped)
                                if t in b.tables[si]:
                                    s[si].add(mapped)
                        if rng.random() < 0.5:
                            si = rng.randrange(len(sig.symbols))
                            s[si] ^= {tuple(rng.choice(image)
                                            for _ in range(sig.symbols[si][1]))}
                        through = tuple(image[v] for v in rng.sample(range(m + 1), m))
                        got = _in_age_through(k, s, n, through)
                        assert got == unindexed_in_age_through(k, s, n, through)
                        key = structures.slot_mask(roots, s, through)
                        if key not in whole and key in one_more:
                            decided.add((m, got))
        assert decided == {(m, v) for m in (1, 2, 3) for v in (False, True)}

    def test_probe_on_graphs_searches_no_embedding(self, monkeypatch, capsys):
        # every bound of graphs has at most 2 points: the probe, which checks
        # through one point, reads each off the root index
        from agekit import cli
        calls = [0, 0]  # all calls, calls within the probe
        probing = [False]
        real_find, real_probe = structures.find_embedding, cli.greedy_extension_probe

        def counting(*args):
            calls[0] += 1
            calls[1] += probing[0]
            return real_find(*args)

        def probe(*args):
            probing[0] = True
            try:
                return real_probe(*args)
            finally:
                probing[0] = False

        monkeypatch.setattr(structures, "find_embedding", counting)
        monkeypatch.setattr(ages, "find_embedding", counting)
        monkeypatch.setattr(cli, "greedy_extension_probe", probe)
        assert cli.main(["probe", catalog_path("graphs.cls"), "--trials", "200",
                         "--seed", "7"]) == 0
        assert "verdict: OK" in capsys.readouterr().out
        # the counter is live: bound normalization at least searches
        assert calls[0] > 0 and calls[1] == 0

    def test_random_age_member(self, catalog, monkeypatch):
        # the random classes include some without a one-point member
        runs = [(catalog.bounded_class(name), 8) for name in CLASSES]
        runs += [(k, 5) for k in random_classes()]
        got = [random_age_member(k, n, random.Random(seed))
               for k, n in runs for seed in range(20)]
        # reference: full bound search
        monkeypatch.setattr(canonical, "_in_age_through", full_in_age)
        assert got == [random_age_member(k, n, random.Random(seed))
                       for k, n in runs for seed in range(20)]

    def test_draws_match_golden(self, catalog):
        # the literal of each draw for seeds 0-9, written before the draws
        # were read off one pattern table per width: the reference test
        # above runs on the same tree, so only this sees a changed order of
        # rng calls
        runs = [(name, catalog.bounded_class(name), 8) for name in CLASSES]
        runs += [("hyper3", parse_input(_hypergraph3_text()).bounded_class("hyper3"), 5),
                 ("U", parse_input(UNARY).bounded_class("U"), 6)]
        runs += [(f"random{i}", k, 5) for i, k in enumerate(random_classes())]
        got = [f"{label} n={n} seed={seed}: "
               f"{render_literal(random_age_member(k, n, random.Random(seed)))}"
               for label, k, n in runs for seed in range(10)]
        want = (Path(__file__).parent / "golden" / "draws.txt").read_text().splitlines()
        assert len(got) == len(want)
        for line, expected in zip(got, want):
            assert line == expected

    def test_mirrored_diagrams_tested_once(self, trifree, monkeypatch):
        calls = [0]
        real = ages._one_point_amalgam_exists

        def counting(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(ages, "_one_point_amalgam_exists", counting)
        assert check_amalgamation(trifree, 6, strong=True).ok
        exts = [len(age_extensions(trifree, b0))
                for n in range(6) for b0 in enumerate_age(trifree, n)]
        # 2,815 here; 5,295 when both orders of every pair are tested
        assert calls[0] <= sum(e * (e + 1) // 2 for e in exts)

    def test_one_full_check_per_base(self, trifree, monkeypatch):
        calls = [0]
        real = ages._in_age

        def counting(k, s):
            calls[0] += 1
            return real(k, s)

        monkeypatch.setattr(ages, "_in_age", counting)
        enumerate_age.cache_clear()
        enumerate_age(trifree, 6)
        full_checks = calls[0]
        bases = sum(len(enumerate_age(trifree, n)) for n in range(6))
        assert 0 < full_checks <= bases


# -- one-pass extension probe ---------------------------------------------------

def count_calls(monkeypatch, module, name) -> list[int]:
    """Patch module.name to count its calls; the count is in the returned list."""
    calls = [0]
    real = getattr(module, name)

    def counting(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


def count_everywhere(monkeypatch, fn) -> list[int]:
    """Patch fn to count its calls in every agekit module that holds it, as
    its own or an imported name; the count is in the returned list."""
    calls = [0]

    def counting(*args):
        calls[0] += 1
        return fn(*args)

    for mod in list(sys.modules.values()):
        if mod is not None and mod.__name__.startswith("agekit"):
            for name, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, name, counting)
    return calls


class TestOnePassProbe:
    """greedy_extension_probe draws each member once for all behaviours,
    reads its type tables once per level and grows each prefix image from
    the previous one by its new point; reference_probe draws per behaviour,
    builds every prefix image whole and searches every embedding."""

    @pytest.mark.parametrize("name", CLASSES)
    def test_reports_equal_reference(self, catalog, name):
        k = catalog.bounded_class(name)
        bs = realizable_behaviours(k, k, 2)
        for seed in (1, 7, 12):
            assert greedy_extension_probe(bs, 8, 30, seed) == \
                tuple(reference_probe(xi, 8, 30, seed) for xi in bs)

    def test_failing_reports_equal_reference(self, catalog):
        kinds = set()
        for name in ("trifree", "bipartite", "maxdeg1"):
            k = catalog.bounded_class(name)
            bs = realizable_behaviours(k, k, 2, cap=2)
            for seed in (3, 11):
                got = greedy_extension_probe(bs, 8, 30, seed)
                assert got == tuple(reference_probe(xi, 8, 30, seed) for xi in bs)
                kinds |= {f.split(": ")[1].split(" at ")[0]
                          for r in got for f in r.failures}
        assert kinds == {"incoherent image", "image outside target age"}

    def test_probe_builds_no_image(self, catalog, monkeypatch):
        # each image, a probe's prefix image or the image of a member tuple
        # that is_realizable judges, is grown from the previous one by its
        # new point: no age test runs the full search or searches a whole
        # embedding.  The ages are built and the verdict cache and the
        # refuters cleared first, so every verdict reaches the routine
        runs = [realizable_behaviours(catalog.bounded_class(name),
                                      catalog.bounded_class(name), 2, cap=cap)
                for name in ("graphs", "trifree", "maxdeg1") for cap in (None, 2)]
        xis = [xi for s, t in product(CLASSES, repeat=2) for k in (2, 3)
               for xi in enumerate_behaviours(catalog.bounded_class(s),
                                              catalog.bounded_class(t), k)]
        xis += [xi for c in (catalog.reduct("Tf"), catalog.reduct("Qlt"))
                for xi in preserving_behaviours(c, 2, default_level(c))]
        for xi in xis:
            for n in range(default_realize_cap(xi.target, xi.k) + 1):
                enumerate_age(xi.source, n)
        canonical._image_in_age.cache_clear()
        canonical._refuters.cache_clear()
        full = count_everywhere(monkeypatch, ages._in_age)
        searches = count_everywhere(monkeypatch, structures.embeds)
        reports = [r for bs in runs for r in greedy_extension_probe(bs, 8, 30, 4)]
        assert any(r.failures for r in reports)
        assert {is_realizable(xi) for xi in xis} == {False, True}
        assert canonical._image_in_age.cache_info().misses > 0
        assert full[0] == searches[0] == 0

    def test_one_type_table_per_level_and_draw(self, catalog, monkeypatch):
        # one level (2, the only arity) per draw, shared by every behaviour
        calls = count_calls(monkeypatch, canonical, "read_type_indices")
        for name in ("graphs", "trifree", "maxdeg1"):
            k = catalog.bounded_class(name)
            for cap in (None, 2):
                bs = realizable_behaviours(k, k, 2, cap=cap)
                assert len(bs) > 1
                calls[0] = 0
                greedy_extension_probe(bs, 8, 30, 4)
                assert 0 < calls[0] <= 30

    def test_reflexive_pair_first_judged_at_size_2(self, graphs):
        # the pair (x, x) goes to a non-edge of two points: a one-point
        # image reads no pair, so only draws of two or more points fail
        xi = Behaviour(graphs, graphs, 2, (1, 1, 2))
        got = greedy_extension_probe((xi,), 3, 40, 0)
        assert got == (reference_probe(xi, 3, 40, 0),)
        assert 0 < len(got[0].failures) < 40
        assert {f.split(": ", 1)[1] for f in got[0].failures} == {
            "incoherent image at size 2: reflexive pair does not collapse"}

    def test_behaviours_share_one_source(self, trifree, graphs):
        # the graphs identity could run on trifree's draws, but its own
        # report would draw from graphs
        with pytest.raises(InputError, match="one source"):
            greedy_extension_probe(
                (canonical.identity_behaviour(trifree, 2),
                 canonical.identity_behaviour(graphs, 2)), 4, 3, 0)

    def test_one_draw_per_trial(self, graphs, monkeypatch):
        calls = count_calls(monkeypatch, canonical, "random_age_member")
        bs = realizable_behaviours(graphs, graphs, 2)
        assert len(bs) == 5
        reports = greedy_extension_probe(bs, 6, 40, 2)
        assert len(reports) == 5 and all(r.ok for r in reports)
        # 200 when each behaviour draws its own members
        assert calls[0] <= 40


# -- forced signature matching --------------------------------------------------

def reference_matchings(crels, drels):
    """Arity-preserving bijections, lexicographic by D-relation positions."""
    arities = sorted({r.arity for r in crels})
    by_c = {a: [r for r in crels if r.arity == a] for a in arities}
    by_d = {a: [r for r in drels if r.arity == a] for a in arities}
    if {r.arity for r in drels} != set(arities):
        return
    if any(len(by_c[a]) != len(by_d[a]) for a in arities):
        return
    pools = [permutations(by_d[a]) for a in arities]
    for combo in product(*pools):
        pairs = []
        for a, perm in zip(arities, combo):
            pairs.extend((c.name, d.name) for c, d in zip(by_c[a], perm))
        yield tuple(sorted(pairs))


def reference_bidef(c, d, mode, k=None):
    """decide_bidef searching every matching against every bijective candidate,
    as (answer, reason, matching, xi, eta)."""
    caps = decide.default_caps(c, d, k)
    pc = compute_core(c, caps.k, caps.realize_cap)
    pd = compute_core(d, caps.k, caps.realize_cap)
    cc = expand(pc, caps.expand_arity, mode, caps.arity_cap, caps.realize_cap)
    dd = expand(pd, caps.expand_arity, mode, caps.arity_cap, caps.realize_cap)
    n_src = len(enumerate_types(pc.base_out, caps.k))
    n_tgt = len(enumerate_types(pd.base_out, caps.k))
    if n_src != n_tgt:
        return ("NO", f"type counts at k={caps.k} differ: {n_src} vs {n_tgt}",
                None, None, None)
    # name: (arity, mask)
    c_unions = {name: rest for name, *rest in compiled_unions(cc)}
    d_unions = {name: rest for name, *rest in compiled_unions(dd)}
    matchings = list(reference_matchings(cc.relations, dd.relations))
    if not matchings:
        return ("NO", "no arity-preserving signature matching", None, None, None)
    candidates = [xi for xi in enumerate_behaviours(pc.base_out, pd.base_out, caps.k)
                  if xi.is_bijective() and is_realizable(xi, caps.realize_cap)]
    for tau in matchings:
        for xi in candidates:
            if not all(behaviour_preserves_relation(xi, *c_unions[cn], d_unions[dn][1])
                       for cn, dn in tau):
                continue
            eta = inverse(xi)
            if not is_realizable(eta, caps.realize_cap):
                continue
            if all(behaviour_preserves_relation(eta, *d_unions[dn], c_unions[cn][1])
                   for cn, dn in tau):
                return ("YES", "", tau, xi, eta)
    return ("NO", "no witness pair over any matching", None, None, None)


# duplicate declarations: the identity needs a second lt in Dup2, so only
# the reversal pairs them, each relation with the lowest unused position
DUPLICATES = """
reduct Dup1 over linord
  rel a/2 := lt(x0,x1)
  rel b/2 := lt(x1,x0)
  rel c/2 := lt(x0,x1)
end

reduct Dup2 over linord
  rel p/2 := lt(x1,x0)
  rel q/2 := lt(x0,x1)
  rel r/2 := lt(x1,x0)
end
"""


class TestForcedMatching:
    """decide_bidef pairs relations by the images each bijective xi forces;
    the search over every arity-preserving matching is the reference."""

    @staticmethod
    def outcomes(catalog, names, modes):
        cat = parse_input(DUPLICATES, catalog)
        got, want = [], []
        for mode in modes:
            for a, b in product(names, repeat=2):
                c, d = cat.reduct(a), cat.reduct(b)
                v = decide.decide_bidef(c, d, mode)
                w = v.witness
                got.append((a, b, mode, v.answer, v.reason, w and w.matching,
                            w and w.xi, w and w.eta))
                want.append((a, b, mode, *reference_bidef(c, d, mode)))
        return got, want

    def test_linord_and_point(self, catalog):
        got, want = self.outcomes(
            catalog, ("Qlt", "QltRev", "Qleq", "Qneq", "Pt", "Dup1", "Dup2"),
            ("fo", "ep", "pp"))
        assert got == want
        answers = {g[3] for g in got}
        assert answers == {"YES", "NO"}
        assert any(g[3] == "YES" and any(cn != dn for cn, dn in g[5]) for g in got)
        dup = [g for g in got if g[:2] == ("Dup1", "Dup2")]
        assert all(g[3] == "YES" and g[6].table == (0, 2, 1)
                   and {("a", "p"), ("b", "q"), ("c", "r")} <= set(g[5]) for g in dup)

    def test_graph_classes(self, catalog):
        got, want = self.outcomes(catalog, ("Rg", "Tf", "Kww", "M1"), ("fo", "pp"))
        assert got == want


# -- definability oracle ----------------------------------------------------------

# two of Thomas's reducts of (Q,<): betweenness and cyclic order
THOMAS = """
reduct Betw over linord
  rel btw/3 := (lt(x0,x1) & lt(x1,x2)) | (lt(x2,x1) & lt(x1,x0))
end

reduct Cyc over linord
  rel cyc/3 := (lt(x0,x1) & lt(x1,x2)) | (lt(x1,x2) & lt(x2,x0)) | (lt(x2,x0) & lt(x0,x1))
end
"""
REDUCTS = ("Qlt", "Qleq", "QltRev", "Qneq", "Rg", "Tf", "Kww", "M1", "Pt")


def preserves_all(xi, c) -> bool:
    return all(behaviour_preserves_relation(xi, arity, mask, mask)
               for _, arity, mask in compiled_unions(c))


def fresh_unions(p, n):
    """(name, arity, mask) of every nonempty orbit union of arity <= n
    that the core does not declare, named U<arity>_<mask>."""
    declared = {(arity, mask) for _, arity, mask in compiled_unions(p.reduct_out)}
    return [(f"U{m}_{mask}", m, mask) for m in range(1, n + 1)
            for mask in range(1, 1 << len(enumerate_types(p.base_out, m)))
            if (m, mask) not in declared]


def added(expanded, p):
    """(name, arity, types) of the relations the expansion adds to the core."""
    return [(name, arity, mask_types(expanded.base, arity, mask))
            for name, arity, mask in compiled_unions(expanded)[len(p.reduct_out.relations):]]


class TestDefinabilityOracle:
    """expand and the core search, over the pinned relation-preserving search,
    against filtering every realizable behaviour for the declared relations."""

    @staticmethod
    def cores(catalog):
        cat = parse_input(THOMAS, catalog)
        out = [compute_core(catalog.reduct(name)) for name in REDUCTS]
        return out + [compute_core(cat.reduct(name), 3) for name in ("Betw", "Cyc")]

    def test_ep_expand(self, catalog):
        kept_counts = {}
        for p in self.cores(catalog):
            n = p.reduct_out.max_arity
            endos = [xi for xi in realizable_behaviours(p.base_out, p.base_out, p.k)
                     if preserves_all(xi, p.reduct_out)]
            want = [(name, m, mask_types(p.base_out, m, u)) for name, m, u in fresh_unions(p, n)
                    if all(behaviour_preserves_relation(xi, m, u, u) for xi in endos)]
            expanded = expand(p, n, "ep")
            assert added(expanded, p) == want, p.reduct_out.name
            assert expand(p, n, "fo") == expanded
            kept_counts[p.reduct_out.name] = (len(want), len(fresh_unions(p, n)))
        # the reversal moves < and >; Betw keeps 130 of 8,198 fresh unions
        assert kept_counts["Qlt_core"] == (7, 7)
        assert kept_counts["Qneq_core"] == (3, 7)
        assert kept_counts["Betw_core"] == (130, 8198)
        assert kept_counts["Cyc_core"] == (8198, 8198)

    @pytest.mark.parametrize("name", ["Qlt", "Qleq", "Rg", "Kww", "Pt"])
    def test_pp_expand(self, catalog, name):
        p = compute_core(catalog.reduct(name))
        polys: dict[int, list] = {}

        def preserving(m):
            if m not in polys:
                polys[m] = [xi for xi in enumerate_behaviours(
                    p.base_out, p.base_out, p.k, arity=m)
                    if preserves_all(xi, p.reduct_out)]
            return polys[m]

        def violated(arity, u):
            if u.bit_count() == len(enumerate_types(p.base_out, arity)):
                return False  # every table keeps a union of every type
            return any(not behaviour_preserves_relation(xi, arity, u, u) and is_realizable(xi)
                       for m in range(1, u.bit_count() + 1) for xi in preserving(m))

        want = [(n, m, mask_types(p.base_out, m, u)) for n, m, u in fresh_unions(p, 2)
                if not violated(m, u)]
        assert added(expand(p, 2, "pp"), p) == want

    @pytest.mark.parametrize("name, k, n, mode", [("M1", 3, 3, "ep"), ("Tf", 2, 2, "pp"),
                                                  ("Qlt", 3, 2, "pp"), ("QltRev", 3, 2, "pp")])
    def test_expand_matches_ktype_reference(self, catalog, name, k, n, mode):
        # the row pins of expand against checking each union tuple by tuple,
        # on the expansions that `definable M1 --n 3` and the Tf and
        # Qlt/QltRev pp bidef queries make
        p = compute_core(catalog.reduct(name), k)
        assert expand(p, n, mode) == reference_expand(p, n, mode)

    @pytest.mark.parametrize("k", [2, 3])
    def test_core_search(self, catalog, k):
        cat = parse_input(THOMAS, catalog)
        names = REDUCTS + (("Betw", "Cyc") if k == 3 else ())
        for name in names:
            c = cat.reduct(name)
            realizable = [xi for xi in realizable_behaviours(c.base, c.base, k)
                          if preserves_all(xi, c)]
            want = tuple(xi for xi in realizable if is_range_rigid(xi))
            assert qualifying_behaviours(c, k) == want, name
            ntypes = len(enumerate_types(c.base, k))
            refuting = [xi for xi in realizable if len(set(xi.table)) != ntypes]
            want_optimal = (not refuting, refuting[0] if refuting else None)
            assert is_optimally_presented(c, k) == want_optimal, name
            p = compute_core(c, k)
            assert p.witness in want
            images = {xi: mask_types(c.base, k, xi.image_types()) for xi in want}
            minimal = [xi for xi in want
                       if not any(images[o] < images[xi] for o in want)]
            assert p.witness == min(minimal, key=serialize_behaviour)

    def test_one_propagation_per_reduct_arity_and_level(self, catalog, monkeypatch):
        # the domains are propagated once, not once per union (8,198 times)
        p = compute_core(parse_input(THOMAS, catalog).reduct("Betw"), 3)
        calls = []
        real = canonical._propagate_domains

        def counting(source, target, k, arity, pins):
            calls.append((source, k, arity))
            return real(source, target, k, arity, pins)

        monkeypatch.setattr(core, "_propagate_domains", counting)
        monkeypatch.setattr(canonical, "_propagate_domains", counting)
        core.preserving_domains.cache_clear()
        core.preserving_behaviours.cache_clear()
        expand(p, 3, "ep")
        expand(p, 3, "fo")
        assert calls == [(p.base_out, 3, 1)]


# -- σ-constraints ------------------------------------------------------------------

def mask_sets(domains):
    """Bitmask domains as sets of values, the form of the references."""
    if domains is None:
        return None
    return [{v for v in range(d.bit_length()) if d >> v & 1} for d in domains]


def reference_union_rows(base, union_arity, members, arity, k):
    """union_rows from KTypes: the sorted flat rows whose arguments are
    members padded to level k, and the level-k types whose first
    union_arity positions have a member's type."""
    idx = type_index(base, k)
    pad = tuple(min(i, union_arity - 1) for i in range(k))
    padded = [idx[restrict_type(t, pad)] for t in members]
    rows = []
    for args in product(padded, repeat=arity):
        flat = 0
        for a in args:
            flat = flat * len(idx) + a
        rows.append(flat)
    keep = {v for v, t in enumerate(enumerate_types(base, k))
            if restrict_type(t, range(union_arity)) in members}
    return sorted(rows), keep


# (arity, level) grid of the σ-layer comparisons
SIGMA_LEVELS = [(1, k) for k in (1, 2, 3, 4)] + [(2, k) for k in (1, 2, 3)]


class TestSigmaLayer:
    """Arc consistency over the generators' constraints, by a worklist,
    against full sweeps over the constraints of every sigma, each map built
    with one restrict_type per type and sigma."""

    @pytest.mark.parametrize("arity, k", SIGMA_LEVELS)
    def test_constraints_and_domains_match_reference(self, catalog, arity, k):
        # the generators' constraints narrow the domains as every sigma's do
        for name in CLASSES:
            c = catalog.bounded_class(name)
            if k < c.signature.max_arity:
                continue
            assert (mask_sets(_propagate_domains(c, c, k, arity, {}))
                    == reference_propagate_domains(c, c, k, arity, {})), (name, arity, k)

    @pytest.mark.parametrize("arity, k", SIGMA_LEVELS)
    def test_pinned_domains_match_reference(self, catalog, arity, k):
        cat = parse_input(THOMAS, catalog)
        for name in REDUCTS + ("Betw", "Cyc"):
            c = cat.reduct(name)
            if k < default_level(c):
                continue
            pins = {}
            for _, m, mask in compiled_unions(c):
                rows, keep = union_rows(c.base, m, mask, arity, k)
                assert (sorted(rows), mask_sets([keep])[0]) == reference_union_rows(
                    c.base, m, mask_types(c.base, m, mask), arity, k), (name, arity, k)
                for flat in rows:
                    pins[flat] = pins.get(flat, keep) & keep
            pins = dict(zip(pins, mask_sets(pins.values())))
            want = reference_propagate_domains(c.base, c.base, k, arity, pins)
            assert mask_sets(preserving_domains(c, arity, k)) == want, (name, arity, k)

    def test_one_restriction_per_generator(self, linord, monkeypatch):
        # propagation at level 5 restricts types along the three generators
        # only, once in the source and once in the target, not along all
        # 5**5 sigmas
        real = canonical.restrict_index_map
        calls = []

        def counting(k, level, sigma):
            calls.append((level, sigma))
            return real(k, level, sigma)

        monkeypatch.setattr(canonical, "restrict_index_map", counting)
        canonical._arcs.cache_clear()
        try:
            domains = _propagate_domains(linord, linord, 5, 1, {})
        finally:
            canonical._arcs.cache_clear()
        assert len(domains) == 541
        assert sorted(calls) == sorted((5, g) for g in ktypes.monoid_generators(5) * 2)


class TestCarveBounds:
    """The carve grown from the carved age against scanning every structure
    of the signature up to the cap."""

    @pytest.fixture(scope="class")
    def reducts(self, catalog):
        cat = parse_input(THOMAS, catalog)
        return [catalog.reduct(name) for name in REDUCTS] + \
            [cat.reduct(name) for name in ("Betw", "Cyc")]

    @pytest.mark.parametrize("k", (2, 3))
    def test_cores_carve_the_scanned_bounds(self, reducts, k):
        for c in reducts:
            if k < default_level(c):
                continue
            p = compute_core(c, k)
            cap = scan_cap_for(c, k)
            assert carve_bounds(c.base, p.image_types, k, cap) == \
                reference_carve_bounds(c.base, p.image_types, k, cap), (c.name, k)

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_drawn_type_sets(self, catalog, data):
        # any set of types carves a hereditary class, image of a behaviour or not
        for name in ("linord", "graphs"):
            base = catalog.bounded_class(name)
            image = types_mask(base, 3, data.draw(
                st.sets(st.sampled_from(enumerate_types(base, 3)))))
            cap = max(base.max_bound_size, base.signature.max_arity, 3)
            assert carve_bounds(base, image, 3, cap) == \
                reference_carve_bounds(base, image, 3, cap), (name, image)


# a unary and a binary symbol, and a ternary one; each class has a bound on
# one point and one on four
MIXED_CLASSES = """
class labelled_graphs
  sig P/1 E/2
  bound size=1: E(0,0)
  bound size=1: P(0) E(0,0)
  bound size=2: E(0,1)
  bound size=2: P(0) E(0,1)
  bound size=2: P(1) E(0,1)
  bound size=2: P(0) P(1) E(0,1)
  bound size=2: P(0) P(1)
  bound size=4: P(0) E(0,1) E(1,0) E(1,2) E(2,1) E(2,3) E(3,2)
end

class ternary
  sig R/3
  bound size=1: R(0,0,0)
  bound size=2: R(0,0,1) R(0,1,1)
  bound size=4: R(0,1,2) R(1,2,3)
end
"""


class TestVerifierAge:
    def test_rooted_scan_matches_whole_scan(self, catalog):
        # the verifier's age scan decides the new point's slots one old point
        # at a time; filtering every whole extension finds the same members
        for name in CLASSES:
            c = catalog.bounded_class(name)
            for n in range(6):
                assert _v_age(c.signature, c.bounds, n) == \
                    reference_v_age(c.signature, c.bounds, n), (name, n)

    def test_mixed_arities(self):
        cat = parse_input(MIXED_CLASSES)
        # a new point has 19 slots among two ternary old points, so the
        # reference builds 2^19 extensions per member, and 37 slots, past
        # EXTENSION_SLOT_LIMIT, among three
        for name, top in (("labelled_graphs", 5), ("ternary", 2)):
            c = cat.bounded_class(name)
            for n in range(top + 1):
                assert _v_age(c.signature, c.bounds, n) == \
                    reference_v_age(c.signature, c.bounds, n), (name, n)
        c = cat.bounded_class("ternary")
        with pytest.raises(InputError, match="relation space too large"):
            _v_age(c.signature, c.bounds, 4)

    def test_embedding_searches_pinned_to_the_decided_pair(self, linord, monkeypatch):
        # filtering every one-point extension made 4,543 embedding searches
        # for the linear orders up to 6 points
        real = verify.find_embedding
        calls = []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(verify, "find_embedding", counting)
        verify._v_age.cache_clear()
        try:
            members = _v_age(linord.signature, linord.bounds, 6)
        finally:
            verify._v_age.cache_clear()
        assert len(members) == 1
        assert len(calls) < 4543 // 10
