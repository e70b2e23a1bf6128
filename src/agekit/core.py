"""Model-complete core computation and optimal-presentation checking.

The core of a reduct is found by searching the realizable relation-preserving
range-rigid endo-behaviours of its base class, selecting one whose set of hit
types is inclusion-minimal, and carving the sub-age of members all of whose
k-types are hit.  The new age is presented by its minimal bounds
(`carve_bounds`): the base's bounds whose one-point deletions are carved
members, and the base's age members on at most k points whose unhit
k-tuples each use every point, found by growing the carved age one point
at a time inside the base's age and reading each structure's type row.
`preserving_behaviours` is the one search for relation-preserving behaviours
of a reduct; the core search and the definability oracle both read it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product

from .ages import BoundedClass, age_extensions
from .canonical import (
    Behaviour,
    _flat_rows,
    _mask_values,
    _propagate_domains,
    enumerate_behaviours,
    is_range_rigid,
    is_realizable,
)
from .errors import InputError, InternalError
from .ktypes import (
    default_level,
    enumerate_types,
    first_m_index_map,
    pad_index_map,
    read_type_indices,
)
from .reducts import OrbitsDef, Reduct, Relation, compiled_unions
from .structures import augment, empty_structure, induced, sort_key
from .value import Value


class CorePresentation(Value):
    __slots__ = ("base_out", "reduct_out", "witness", "image_types", "k",
                 "scan_cap", "realize_cap")


def require_core_flags(c: Reduct) -> None:
    """Core search needs the base class to assert homogeneity and Ramsey."""
    if not (c.base.homogeneous_asserted and c.base.ramsey_asserted):
        raise InputError(
            f"class {c.base.name} must assert homogeneous and ramsey for core search")


@lru_cache(maxsize=None)
def _union_tables(base: BoundedClass, arity: int,
                  level: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per type index at the arity: its padding to the level, and the
    bitmask of the level types that restrict to it on the first positions."""
    fibres = [0] * len(enumerate_types(base, arity))
    for v, a in enumerate(first_m_index_map(base, level, arity)):
        fibres[a] |= 1 << v
    return pad_index_map(base, arity, level), tuple(fibres)


def union_rows(base: BoundedClass, union_arity: int, mask: int, arity: int,
               level: int) -> tuple[list[int], int]:
    """The table rows whose arguments all pad members of an orbit union,
    given as a bitmask over type indices, and the bitmask of the level
    values whose restriction to the union's arity is a member.

    A behaviour of the arity preserves the union iff every such row holds a
    value of the second mask.
    """
    pad, fibres = _union_tables(base, union_arity, level)
    members = _mask_values(mask, len(pad))
    keep = 0
    for a in members:
        keep |= fibres[a]
    rows = _flat_rows([pad[a] for a in members], len(enumerate_types(base, level)), arity)
    return rows, keep


@lru_cache(maxsize=None)
def preserving_domains(c: Reduct, arity: int, level: int) -> list[int]:
    """Arc-consistent per-row bitmask domains of the behaviours of the arity
    that preserve every relation of c.  No domain empties, so the result is
    never None: the table that sends each row to its first argument meets
    every union pin and commutes with every restriction."""
    pins: dict[int, int] = {}
    for _, union_arity, mask in compiled_unions(c):
        rows, keep = union_rows(c.base, union_arity, mask, arity, level)
        for flat in rows:
            pins[flat] = pins.get(flat, keep) & keep
    return _propagate_domains(c.base, c.base, level, arity, pins)


@lru_cache(maxsize=None)
def preserving_behaviours(c: Reduct, arity: int, level: int) -> tuple[Behaviour, ...]:
    """Compatible behaviours of the arity at the level that preserve every
    relation of c, sorted by serialization.

    Realizability is left to the caller, which often needs it on few of them.
    """
    return enumerate_behaviours(c.base, c.base, level, arity=arity,
                                domains=preserving_domains(c, arity, level))


def qualifying_behaviours(c: Reduct, k: int,
                          realize_cap: int | None = None) -> tuple[Behaviour, ...]:
    """Realizable relation-preserving range-rigid endo-behaviours of the base."""
    return tuple(xi for xi in preserving_behaviours(c, 1, k)
                 if is_range_rigid(xi) and is_realizable(xi, realize_cap))


def scan_cap_for(c: Reduct, k: int) -> int:
    """The size the verifier re-scans a core's bounds up to, recorded in
    reports and certificates; no bound of the core's base is larger."""
    return max(c.base.max_bound_size, c.base.signature.max_arity, k)


def carve_bounds(base: BoundedClass, image_types: int, k: int) -> tuple:
    """Minimal structures outside the carved age, sorted by sort_key.

    The carved age A' holds the members of base's age all of whose k-types
    are in image_types, a bitmask over type indices.  A' is hereditary (a
    substructure's k-types are some of the structure's), and its bounds are
    of two kinds.  One outside base's age is a minimal non-member of that
    age, so a bound of base, and is one of A' iff its one-point deletions
    are in A'.  One inside base's age has a k-tuple of a type outside the
    image, and each such tuple uses every point, or dropping a point it
    misses would leave a non-member; so it has at most k points.
    Conversely a member of base's age with such tuples, all using every
    point, is a bound.  So A' is grown inside base's age up to k points:
    the structures of size n are augment's age extensions of the members of
    size n - 1, which finds each member and each bound of the second kind,
    as dropping its point of greatest profile leaves a member; its type row
    makes each one a member, a bound or neither.
    """
    def carved(s) -> bool:
        return all(image_types >> i & 1 for i in read_type_indices(base, s, k))

    bounds = [b for b in base.bounds
              if all(carved(induced(b, sub)) for sub in combinations(range(b.size), b.size - 1))]
    members = (empty_structure(base.signature),)
    for size in range(1, k + 1):
        # per tuple of the type row: whether it uses every point
        full = [len(set(t)) == size for t in product(range(size), repeat=k)]
        grown = []
        for s in augment(members, lambda m: age_extensions(base, m)):
            missed = [f for f, i in zip(full, read_type_indices(base, s, k))
                      if not image_types >> i & 1]
            if not missed:
                grown.append(s)
            elif all(missed):
                bounds.append(s)
        members = tuple(grown)
    return tuple(sorted(bounds, key=sort_key))


@lru_cache(maxsize=None)
def compute_core(c: Reduct, k: int | None = None,
                 realize_cap: int | None = None) -> CorePresentation:
    """Model-complete core of a reduct, with an optimal presentation."""
    require_core_flags(c)
    if k is None:
        k = default_level(c)
    if k < default_level(c):
        raise InputError(f"core search needs k >= {default_level(c)}")
    qualifying = qualifying_behaviours(c, k, realize_cap)
    if not qualifying:
        raise InternalError("no qualifying behaviour; identity should qualify")
    image_sets = [xi.image_types() for xi in qualifying]
    minimal = [  # no other image is a proper subset
        xi for xi, s in zip(qualifying, image_sets)
        if not any(other != s and other & s == other for other in image_sets)
    ]
    witness = minimal[0]  # the first by serialization
    image_types = witness.image_types()

    base_out = BoundedClass(
        name=f"{c.name}_core_base",
        signature=c.base.signature,
        bounds=carve_bounds(c.base, image_types, k),
        homogeneous_asserted=True,
        ramsey_asserted=True,
    )
    out_types = {m: set(enumerate_types(base_out, m))
                 for m in {r.arity for r in c.relations}}
    relations = []
    for r in c.relations:
        if isinstance(r.definition, OrbitsDef):
            kept = tuple(t for t in r.definition.members if t in out_types[r.arity])
            relations.append(Relation(r.name, r.arity, OrbitsDef(kept)))
        else:
            relations.append(r)
    reduct_out = Reduct(f"{c.name}_core", base_out, tuple(relations))
    return CorePresentation(base_out, reduct_out, witness, image_types, k,
                            scan_cap_for(c, k), realize_cap)


def is_optimally_presented(c: Reduct, k: int | None = None,
                           realize_cap: int | None = None):
    """True iff every realizable relation-preserving endo-behaviour is surjective
    on k-types; otherwise returns a refuting (non-surjective) behaviour."""
    require_core_flags(c)
    if k is None:
        k = default_level(c)
    ntypes = len(enumerate_types(c.base, k))
    for xi in preserving_behaviours(c, 1, k):
        if len(set(xi.table)) != ntypes and is_realizable(xi, realize_cap):
            return False, xi
    return True, None
