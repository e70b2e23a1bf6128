"""Shared fixtures: the shipped catalog, parsed once per session, and
helpers that only the tests need."""

import random
from functools import lru_cache
from importlib import resources
from itertools import combinations, permutations, product

import pytest

from agekit.ages import BoundedClass, _in_age, enumerate_age, in_age
from agekit.canonical import (
    Behaviour,
    ProbeReport,
    _equivalence_failure,
    _flat_rows,
    _value_row,
    default_realize_cap,
    enumerate_behaviours,
    is_coherent,
    is_realizable,
    random_age_member,
)
from agekit.core import CorePresentation, preserving_behaviours
from agekit.errors import InputError, InternalError
from agekit.ktypes import (
    KType,
    degenerate_pairs,
    enumerate_types,
    parse_type,
    read_type_indices,
    restrict_type,
    symbol_holds,
    type_of_raw,
)
from agekit.parser import Catalog, parse_input, split_type_columns
from agekit.reducts import (
    OrbitsDef,
    Reduct,
    Relation,
    behaviour_preserves_relation,
    compiled_unions,
    mask_members,
)
from agekit.structures import (
    FinStructure,
    Signature,
    augment,
    canonical_form,
    embeds,
    empty_structure,
    extension_slots,
    induced,
    sort_key,
    structure,
)

CATALOG_FILES = ("linord.cls", "graphs.cls", "trifree.cls", "bipartite.cls",
                 "maxdeg1.cls", "point.cls")


def one_point_extensions(s: FinStructure):
    """All labelled structures extending s by one new point (index s.size)."""
    sig = s.signature
    new = s.size
    added = extension_slots(sig, new)
    base = [set(t) for t in s.tables]
    for bits in range(1 << len(added)):
        tables = [set(t) for t in base]
        for j, (si, t) in enumerate(added):
            if bits >> j & 1:
                tables[si].add(t)
        yield FinStructure(sig, new + 1, tuple(frozenset(t) for t in tables))


@lru_cache(maxsize=None)
def enumerate_structures(sig: Signature, n: int) -> tuple[FinStructure, ...]:
    """One canonical representative per isomorphism class of size n, grown
    from size n-1 by one-point extension: the whole unbounded age, an
    oracle for the bounded scans."""
    if n == 0:
        return (empty_structure(sig),)
    return augment(enumerate_structures(sig, n - 1), one_point_extensions)


def catalog_text(name: str) -> str:
    return resources.files("agekit.catalog").joinpath(name).read_text()


def catalog_path(name: str) -> str:
    return str(resources.files("agekit.catalog").joinpath(name))


UNARY = """class U
  sig P/1
  assert homogeneous ramsey
end

reduct Up over U
  rel p/1 := P(x0)
end
"""


def _hypergraph3_text():
    """3-uniform hypergraphs: T holds on no tuple with a repeated point, and
    on every order of a triple or on none."""
    mixed = [t for t in product(range(2), repeat=3) if len(set(t)) == 2]
    orders = list(permutations(range(3)))
    lines = ["class hyper3", "  sig T/3", "  bound size=1: T(0,0,0)"]
    for size, slots, masks in ((2, mixed, range(1, 1 << 6)),
                               (3, orders, range(1, (1 << 6) - 1))):
        for mask in masks:
            atoms = " ".join(f"T({a},{b},{c})" for g, (a, b, c) in enumerate(slots)
                             if mask >> g & 1)
            lines.append(f"  bound size={size}: {atoms}")
    return "\n".join(lines + ["end", ""])


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


def age_equal_upto(a: BoundedClass, b: BoundedClass, n: int) -> bool:
    """Same age members at every size up to n (canonical representatives)."""
    if a.signature != b.signature:
        return False
    return all(enumerate_age(a, i) == enumerate_age(b, i) for i in range(n + 1))


@lru_cache(maxsize=None)
def type_index(k: BoundedClass, level: int) -> dict[KType, int]:
    """KType -> index at the level, from the enumeration: the reference
    for ktypes.index_of_type."""
    return {p: i for i, p in enumerate(enumerate_types(k, level))}


def type_of(k: BoundedClass, s, tup) -> KType:
    """The type of a tuple in an age member of k."""
    if not in_age(k, s):
        raise InputError("type_of: structure outside the age")
    return type_of_raw(s, tup)


def is_identity(xi: Behaviour) -> bool:
    return xi.source == xi.target and xi.table == tuple(range(len(xi.table)))


def apply_types(xi: Behaviour, ptypes) -> KType:
    """The target type xi assigns to argument types of one level."""
    ptypes = tuple(ptypes)
    level = ptypes[0].k
    if any(p.k != level for p in ptypes):
        raise InputError("argument types must share one level")
    idx = type_index(xi.source, level)
    v = xi.value([idx[p] for p in ptypes], level)
    return enumerate_types(xi.target, level)[v]


def mask_types(k: BoundedClass, arity: int, mask: int) -> frozenset[KType]:
    """The types of a mask over k's type indices at the arity, read
    through mask_members."""
    types = enumerate_types(k, arity)
    return frozenset(types[i] for i in mask_members(k, arity, mask))


def types_mask(k: BoundedClass, arity: int, types) -> int:
    """The mask over k's type indices at the arity that holds the types."""
    idx = type_index(k, arity)
    return sum(1 << idx[t] for t in set(types))


@lru_cache(maxsize=None)
def reference_sigma_constraints(source: BoundedClass, target: BoundedClass,
                                k: int, arity: int = 1):
    """The σ-constraints built one sigma at a time, with a restrict_type per
    type and sigma and duplicates kept: the reference for the compatibility
    that canonical enforces through the three generators' constraints.

    checks[i] holds triples (p, j, rt) meaning: once rows p and j = p∘sigma
    (sigma applied to every argument) are both assigned (max(p, j) == i),
    require table[j] == rt[table[p]].
    """
    def restrict_map(cls):
        idx = type_index(cls, k)
        return tuple(idx[restrict_type(p, sigma)] for p in enumerate_types(cls, k))

    nk = len(enumerate_types(source, k))
    checks: list[list] = [[] for _ in range(nk ** arity)]
    for sigma in product(range(k), repeat=k):
        if sigma == tuple(range(k)):
            continue
        rs = restrict_map(source)
        rt = restrict_map(target)
        for p, j in enumerate(_flat_rows(rs, nk, arity)):
            checks[max(p, j)].append((p, j, rt))
    return tuple(tuple(c) for c in checks)


def reference_propagate_domains(source: BoundedClass, target: BoundedClass, k: int,
                                arity: int, pins: dict[int, frozenset[int]]):
    """Arc consistency by full sweeps over every reference σ-constraint until
    nothing changes: the reference for the worklist of
    canonical._propagate_domains.  None when some domain empties."""
    nvals = len(enumerate_types(target, k))
    nrows = len(enumerate_types(source, k)) ** arity
    allowed = [set(range(nvals)) for _ in range(nrows)]
    for row, vals in pins.items():
        allowed[row] &= vals
    changed = True
    while changed:
        changed = False
        for checks in reference_sigma_constraints(source, target, k, arity):
            for p, j, r in checks:
                image = {r[v] for v in allowed[p]}
                if not allowed[j] <= image:
                    allowed[j] &= image
                    changed = True
                back = {v for v in allowed[p] if r[v] in allowed[j]}
                if len(back) != len(allowed[p]):
                    allowed[p] = back
                    changed = True
    if any(not a for a in allowed):
        return None
    return allowed


def realizable_behaviours(source: BoundedClass, target: BoundedClass, k: int,
                          arity: int = 1, cap: int | None = None) -> tuple[Behaviour, ...]:
    """The searched tables that pass is_realizable at the cap, in search
    order: the list the behaviours command prints."""
    return tuple(xi for xi in enumerate_behaviours(source, target, k, arity=arity)
                 if is_realizable(xi, cap))


def is_compatible(xi: Behaviour) -> bool:
    """Restricting every argument along a self-map of positions restricts the value."""
    table = xi.table
    return all(table[j] == rt[table[p]]
               for checks in reference_sigma_constraints(
                   xi.source, xi.target, xi.k, xi.arity)
               for p, j, rt in checks)


def compose(eta: Behaviour, xi: Behaviour) -> Behaviour:
    """eta after xi; classes and levels must chain."""
    if xi.target != eta.source:
        raise InputError("compose: xi.target must equal eta.source")
    if xi.k != eta.k:
        raise InputError("compose: levels differ")
    out = Behaviour(xi.source, eta.target, xi.k,
                    tuple(eta.table[v] for v in xi.table))
    if not is_compatible(out) or not is_coherent(out):
        raise InternalError("composition produced an invalid table")
    return out


class IncoherentImage(Exception):
    """A behaviour table induces an ill-defined image on a member: the
    collapse relation read off the table is not an equivalence, or relation
    atoms read off different representative tuples disagree."""


def value_rows(xi: Behaviour, members: tuple[FinStructure, ...]):
    """``images`` for image_from_types: the value on the m-types that each
    m-tuple of points has in the argument structures, members of the age."""
    return lambda m: _value_row(xi, m, [read_type_indices(xi.source, s, m) for s in members])


def image_from_types(target: BoundedClass, n: int, images) -> FinStructure:
    """The image structure on n > 0 points, built whole from target type
    indices: the reference for canonical._image_failure, which grows the
    image point by point and never builds it.

    ``images(m)`` lists the target m-type index of every m-tuple over
    range(n), in tuple-lex order; it is asked for level 2 (when n > 1) and
    for each symbol's arity.  Collapsing pairs are identified and relations
    read off the image types; raises IncoherentImage when they do not give
    a well-defined structure.
    """
    if n == 1:
        class_of, nclasses = [0], 1
    else:
        degenerate = degenerate_pairs(target)
        pairs = images(2)
        collapse = [[degenerate[pairs[x * n + y]] for y in range(n)]
                    for x in range(n)]
        failure = _equivalence_failure(collapse)
        if failure:
            raise IncoherentImage(failure)
        class_of = [-1] * n
        nclasses = 0
        for x in range(n):
            if class_of[x] == -1:
                for y in range(x, n):
                    if collapse[x][y]:
                        class_of[y] = nclasses
                nclasses += 1
    tables = []
    for si, (_, arity) in enumerate(target.signature.symbols):
        holds = symbol_holds(target, si)
        seen: dict[tuple[int, ...], bool] = {}
        for t, v in zip(product(range(n), repeat=arity), images(arity)):
            ct = tuple(class_of[x] for x in t)
            if ct in seen and seen[ct] != holds[v]:
                raise IncoherentImage("relation atoms disagree across representatives")
            seen[ct] = holds[v]
        tables.append(frozenset(ct for ct, h in seen.items() if h))
    return FinStructure(target.signature, nclasses, tuple(tables))


def image_structure(xi: Behaviour, s: FinStructure) -> FinStructure:
    """The finite trace of an arity-1 behaviour on one age member, built
    whole (image_from_types)."""
    if s.signature != xi.source.signature:
        raise InputError("image_structure: signature mismatch")
    if not in_age(xi.source, s):
        raise InputError("image_structure: structure outside the source age")
    if s.size == 0:
        return empty_structure(xi.target.signature)
    return image_from_types(xi.target, s.size, value_rows(xi, (s,)))


def poly_image_structure(xi: Behaviour,
                         members: tuple[FinStructure, ...]) -> FinStructure:
    """Image of m age members over a common index set under an arity-m
    behaviour, one member tuple at a time: the reference for the verdicts
    is_realizable caches by value rows."""
    if len(members) != xi.arity:
        raise InputError("need one argument structure per polymorphism argument")
    n = members[0].size
    if any(s.size != n for s in members):
        raise InputError("argument structures must share one index set")
    if n == 0:
        return empty_structure(xi.target.signature)
    images = value_rows(xi, members)
    if n == 1 and not degenerate_pairs(xi.target)[images(2)[0]]:
        raise IncoherentImage("reflexive pair does not collapse")
    return image_from_types(xi.target, n, images)


def reference_probe(xi: Behaviour, max_size: int, trials: int,
                    seed: int) -> ProbeReport:
    """The randomized extension probe of one behaviour on its own draws,
    with the full age test and an embedding search for every prefix image:
    the reference for the one pass over the draws that checks every
    behaviour and grows each prefix image by its new point."""
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        n = rng.randint(1, max_size)
        s = random_age_member(xi.source, n, rng)
        if s.size == 0:
            continue
        order = list(range(s.size))
        rng.shuffle(order)
        prev_img = None
        for i in range(1, s.size + 1):
            part = induced(s, order[:i])
            try:
                img = image_structure(xi, part)
            except IncoherentImage as exc:
                failures.append(f"trial {trial}: incoherent image at size {i}: {exc}")
                break
            if not _in_age(xi.target, img):
                failures.append(f"trial {trial}: image outside target age at size {i}")
                break
            if prev_img is not None and not embeds(prev_img, img):
                failures.append(f"trial {trial}: image does not extend at size {i}")
                break
            prev_img = img
    return ProbeReport(trials, max_size, seed, tuple(failures))


@lru_cache(maxsize=None)
def reference_v_age(sig: Signature, bounds, n: int) -> tuple[FinStructure, ...]:
    """The verifier's age scan with every labelled one-point extension built
    and every bound tested against the whole of it: the reference for
    verify._v_age, which decides the new point's slots one old point at a
    time and only searches embeddings through the new point and that old
    point."""
    if n == 0:
        return (empty_structure(sig),)
    seen = set()
    for base in reference_v_age(sig, bounds, n - 1):
        for ext in one_point_extensions(base):
            if not any(embeds(b, ext) for b in bounds):
                seen.add(canonical_form(ext))
    return tuple(sorted(seen, key=sort_key))


def reference_carve_bounds(base: BoundedClass, image_types, k: int,
                           cap: int) -> tuple[FinStructure, ...]:
    """The minimal structures outside the carved age up to the cap, found by
    testing each member of base's age up to the cap, and each bound of base,
    and each of its one-point-smaller induced substructures: the reference
    for core.carve_bounds, which reads a bound off its type row and grows
    the carved age only up to k points.  No other structure can be one: a
    structure outside base's age whose one-point deletions are all inside
    is a minimal non-member of it, so a bound of base."""
    hit = frozenset(mask_members(base, k, image_types))

    def member(s) -> bool:
        return in_age(base, s) and hit.issuperset(read_type_indices(base, s, k))

    candidates = [s for size in range(1, cap + 1) for s in enumerate_age(base, size)]
    candidates += [b for b in base.bounds if b.size <= cap]
    return tuple(sorted(
        (s for s in candidates
         if not member(s) and all(member(induced(s, sub))
                                  for sub in combinations(range(s.size), s.size - 1))),
        key=sort_key))


def reference_expand(p: CorePresentation, n: int, mode: str) -> Reduct:
    """expand with each union checked tuple by tuple: every union of arity
    <= n that the core does not declare, named U<arity>_<mask>, is added
    unless a realizable behaviour of core.preserving_behaviours, of arity 1
    (fo, ep) or 1 up to the union's size (pp), sends a tuple of its members
    outside it, as behaviour_preserves_relation reads the behaviour's values.
    The reference for the row pins of definability.expand; the preserving
    behaviours themselves are checked in test_oracles against filtering
    every table."""
    base = p.base_out
    declared = {(arity, mask) for _, arity, mask in compiled_unions(p.reduct_out)}
    cap = default_realize_cap(base, p.k)
    realizable: dict[Behaviour, bool] = {}

    def moves(xi: Behaviour, m: int, mask: int) -> bool:
        if behaviour_preserves_relation(xi, m, mask, mask):
            return False
        if xi not in realizable:
            realizable[xi] = is_realizable(xi, cap)
        return realizable[xi]

    relations = list(p.reduct_out.relations)
    for m in range(1, n + 1):
        types = enumerate_types(base, m)
        for mask in range(1, 1 << len(types)):
            if (m, mask) in declared:
                continue
            arities = range(1, (mask.bit_count() if mode == "pp" else 1) + 1)
            # a union of every type is kept by every behaviour
            if mask.bit_count() == len(types) or not any(
                    moves(xi, m, mask) for a in arities
                    for xi in preserving_behaviours(p.reduct_out, a, p.k)):
                members = tuple(types[i] for i in mask_members(base, m, mask))
                relations.append(Relation(f"U{m}_{mask}", m, OrbitsDef(members)))
    suffix = "pp" if mode == "pp" else "ep"
    return Reduct(f"{p.reduct_out.name}_{suffix}{n}", base, tuple(relations))


def parse_behaviour(text: str, source: BoundedClass, target: BoundedClass,
                    k: int, arity: int = 1) -> Behaviour:
    """A behaviour table from its serialization."""
    src_index = type_index(source, k)
    tgt_index = type_index(target, k)
    table = [-1] * len(src_index) ** arity
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        left, sep, right = line.partition("->")
        if not sep:
            raise InputError(f"bad behaviour line: {line!r}")
        parts = split_type_columns(left)
        if len(parts) != arity:
            raise InputError(f"expected {arity} argument columns: {line!r}")
        flat = 0
        for part in parts:
            p = parse_type(source.signature, part)
            if p not in src_index:
                raise InputError(f"unknown source type {part!r}")
            flat = flat * len(src_index) + src_index[p]
        q = parse_type(target.signature, right.strip())
        if q not in tgt_index:
            raise InputError(f"unknown target type {right.strip()!r}")
        if table[flat] != -1:
            raise InputError(f"duplicate row for {left.strip()!r}")
        table[flat] = tgt_index[q]
    if -1 in table:
        raise InputError("behaviour table is not total")
    return Behaviour(source, target, k, tuple(table), arity)


@pytest.fixture(scope="session")
def catalog() -> Catalog:
    cat = Catalog()
    for name in CATALOG_FILES:
        parse_input(catalog_text(name), cat)
    return cat


@pytest.fixture(scope="session")
def linord(catalog):
    return catalog.bounded_class("linord")


@pytest.fixture(scope="session")
def graphs(catalog):
    return catalog.bounded_class("graphs")


@pytest.fixture(scope="session")
def trifree(catalog):
    return catalog.bounded_class("trifree")


@pytest.fixture(scope="session")
def bipartite(catalog):
    return catalog.bounded_class("bipartite")


@pytest.fixture(scope="session")
def maxdeg1(catalog):
    return catalog.bounded_class("maxdeg1")


@pytest.fixture(scope="session")
def point(catalog):
    return catalog.bounded_class("point")


@pytest.fixture(scope="session")
def hyper3():
    return parse_input(_hypergraph3_text()).bounded_class("hyper3")
