"""Definable relations of model-complete cores, decided by one oracle.

On an ω-categorical model-complete core, a relation is fo- and
ep-definable iff every endomorphism preserves it, and pp-definable iff
every polymorphism preserves it.  `find_violation` searches the canonical
behaviours of the core's base that preserve the core's relations
(`core.preserving_behaviours`) for a realizable one that moves a member
tuple of an orbit union outside it: arity 1 (canonical self-maps) in fo
and ep mode, arities 1 up to the arity cap in pp mode.  A witness makes the
union NOT-DEFINABLE and re-verifies; without one the union is DEFINABLE
relative to the level k, the arity cap and the realizability cap.  The
self-maps searched carry no constants, so an fo/ep DEFINABLE can still be
wrong where such maps miss an endomorphism that breaks the union.

Unions are bitmasks over type indices (`reducts.compile_orbit_union`);
`expansion` builds types back only for the relations it adds.
"""

from __future__ import annotations

from functools import lru_cache

from .ages import BoundedClass
from .canonical import Behaviour, effective_realize_cap, is_realizable
from .core import CorePresentation, preserving_behaviours, preserving_domains, union_rows
from .errors import InputError
from .ktypes import enumerate_types
from .reducts import OrbitsDef, Reduct, Relation, compiled_unions, mask_members
from .value import Value


class DefinableVerdict(Value):
    __slots__ = ("definable", "arity", "mask", "witness", "arity_cap", "realize_cap")

    @property
    def label(self) -> str:
        if self.definable:
            return (f"DEFINABLE up to arity {self.arity_cap}, "
                    f"realize-cap {self.realize_cap}")
        return "NOT-DEFINABLE"


@lru_cache(maxsize=None)
def _realizable_cached(xi: Behaviour, cap: int) -> bool:
    return is_realizable(xi, cap)


def find_violation(p: CorePresentation, arity: int, mask: int, arities,
                   realize_cap: int) -> Behaviour | None:
    """The first realizable relation-preserving behaviour, by arity and then
    by serialization, that moves a member tuple of the orbit union of the
    arity given by its mask outside it, or None.

    An arity is skipped without any table search when the propagated
    domains keep every row of the union's member tuples inside it.
    """
    if mask == (1 << len(enumerate_types(p.base_out, arity))) - 1:
        return None  # the union holds every tuple: nothing can leave it
    for m in arities:
        domains = preserving_domains(p.reduct_out, m, p.k)
        rows, keep = union_rows(p.base_out, arity, mask, m, p.k)
        if not any(domains[flat] & ~keep for flat in rows):
            continue
        for xi in preserving_behaviours(p.reduct_out, m, p.k):
            table = xi.table
            if (any(not keep >> table[flat] & 1 for flat in rows)
                    and _realizable_cached(xi, realize_cap)):
                return xi
    return None


def _caps(p: CorePresentation, mode: str, arity_cap: int | None,
          realize_cap: int | None) -> tuple[int | None, int]:
    """The arity cap (None: the union's size) and the realizability cap."""
    if mode != "pp":
        arity_cap = 1
    if arity_cap is not None and arity_cap < 1:
        raise InputError("definable: arity cap must be >= 1")
    return arity_cap, effective_realize_cap(realize_cap, p.base_out, p.k)


def definable(p: CorePresentation, arity: int, mask: int, mode: str,
              arity_cap: int | None = None,
              realize_cap: int | None = None) -> DefinableVerdict:
    """Is the orbit union of the arity, a mask over the core base's type
    indices, fo/ep/pp-definable in the core?  NOT-DEFINABLE comes with a
    violating behaviour; DEFINABLE is relative to the caps."""
    if not mask:
        raise InputError("definable: empty orbit union")
    arity_cap, cap = _caps(p, mode, arity_cap, realize_cap)
    arity_cap = arity_cap or mask.bit_count()
    witness = find_violation(p, arity, mask, range(1, arity_cap + 1), cap)
    return DefinableVerdict(witness is None, arity, mask, witness, arity_cap, cap)


# the most orbit unions an expansion enumerates, each one a definability
# query: 2 ** (types at the arity) - 1 per arity, counted before any is made;
# the largest catalog expansion, graphs at --n 3, has 32,775
UNION_LIMIT = 1 << 16


def _fresh_unions(base: BoundedClass, existing: Reduct, max_arity: int):
    """(name, arity, mask) of every nonempty orbit union of arity <=
    max_arity not yet declared, with a deterministic fresh name."""
    unions = sum((1 << len(enumerate_types(base, m))) - 1 for m in range(1, max_arity + 1))
    if unions > UNION_LIMIT:
        raise InputError(f"expansion: {unions:,} orbit unions of arity <= {max_arity}, "
                         f"more than {UNION_LIMIT:,}; lower --n")
    declared = {(arity, mask) for _, arity, mask in compiled_unions(existing)}
    for m in range(1, max_arity + 1):
        for mask in range(1, 1 << len(enumerate_types(base, m))):
            if (m, mask) not in declared:
                yield f"U{m}_{mask}", m, mask


def definable_unions(p: CorePresentation, n: int, mode: str,
                     arity_cap: int | None = None,
                     realize_cap: int | None = None) -> tuple[tuple[str, int, int], ...]:
    """(name, arity, mask) of every fresh orbit union of arity <= n
    that is definable in the mode: the relations expand adds, in order."""
    if n < 1:
        raise InputError("expand: arity bound must be >= 1")
    arity_cap, cap = _caps(p, mode, arity_cap, realize_cap)
    return tuple(
        (name, arity, mask) for name, arity, mask in _fresh_unions(p.base_out, p.reduct_out, n)
        if find_violation(p, arity, mask, range(1, (arity_cap or mask.bit_count()) + 1),
                          cap) is None)


def expansion(p: CorePresentation, n: int, mode: str, unions) -> Reduct:
    """The core expanded by the given (name, arity, mask) relations;
    fo and ep share the `_ep{n}` name."""
    relations = list(p.reduct_out.relations)
    for name, arity, mask in unions:
        types = enumerate_types(p.base_out, arity)
        members = tuple(types[i] for i in mask_members(p.base_out, arity, mask))
        relations.append(Relation(name, arity, OrbitsDef(members)))
    suffix = "pp" if mode == "pp" else "ep"
    return Reduct(f"{p.reduct_out.name}_{suffix}{n}", p.base_out, tuple(relations))


def expand(p: CorePresentation, n: int, mode: str, arity_cap: int | None = None,
           realize_cap: int | None = None) -> Reduct:
    """The core expanded by every fresh orbit union of arity <= n that is
    definable in the mode."""
    return expansion(p, n, mode, definable_unions(p, n, mode, arity_cap, realize_cap))
