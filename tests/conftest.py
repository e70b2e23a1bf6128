"""Shared fixtures: the shipped catalog, parsed once per session, and
helpers that only the tests need."""

import random
from functools import lru_cache
from importlib import resources
from itertools import product

import pytest

from agekit.ages import BoundedClass, _in_age, enumerate_age, in_age
from agekit.canonical import (
    Behaviour,
    ProbeReport,
    _flat_rows,
    _image_from_types,
    _value_rows,
    image_structure,
    is_coherent,
    random_age_member,
)
from agekit.errors import IncoherentBehaviourError, InputError
from agekit.ktypes import (
    KType,
    degenerate_pairs,
    enumerate_types,
    parse_type,
    restrict_type,
    type_index,
    type_of_raw,
)
from agekit.parser import Catalog, parse_input, split_type_columns
from agekit.structures import (
    FinStructure,
    Signature,
    canonical_form,
    embeds,
    empty_structure,
    induced,
    one_point_extensions,
    sort_key,
)

CATALOG_FILES = ("linord.cls", "graphs.cls", "trifree.cls", "bipartite.cls",
                 "maxdeg1.cls", "point.cls")


def catalog_text(name: str) -> str:
    return resources.files("agekit.catalog").joinpath(name).read_text()


def catalog_path(name: str) -> str:
    return str(resources.files("agekit.catalog").joinpath(name))


def age_equal_upto(a: BoundedClass, b: BoundedClass, n: int) -> bool:
    """Same age members at every size up to n (canonical representatives)."""
    if a.signature != b.signature:
        return False
    return all(enumerate_age(a, i) == enumerate_age(b, i) for i in range(n + 1))


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
        raise IncoherentBehaviourError("composition produced an invalid table")
    return out


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
    images = _value_rows(xi, members)
    if n == 1 and not degenerate_pairs(xi.target)[images(2)[0]]:
        raise IncoherentBehaviourError("reflexive pair does not collapse")
    return _image_from_types(xi.target, n, images)


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
            except IncoherentBehaviourError as exc:
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
    """The verifier's age scan with every bound tested against the whole
    extension: the reference for verify._v_age, which only searches
    embeddings through the new point."""
    if n == 0:
        return (empty_structure(sig),)
    seen = set()
    for base in reference_v_age(sig, bounds, n - 1):
        for ext in one_point_extensions(base):
            if not any(embeds(b, ext) for b in bounds):
                seen.add(canonical_form(ext))
    return tuple(sorted(seen, key=sort_key))


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
