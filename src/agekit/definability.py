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
"""

from __future__ import annotations

from functools import lru_cache

from .ages import BoundedClass
from .canonical import Behaviour, default_realize_cap, identity_behaviour, is_realizable
from .core import CorePresentation, preserving_behaviours, preserving_domains, union_rows
from .errors import InputError
from .ktypes import enumerate_types
from .reducts import OrbitsDef, OrbitUnion, Reduct, Relation, compiled_unions
from .value import Value


class DefinableVerdict(Value):
    __slots__ = ("definable", "relation", "witness", "arity_cap", "realize_cap")

    def __init__(self, definable: bool, relation: OrbitUnion, witness: Behaviour | None,
                 arity_cap: int, realize_cap: int):
        init = object.__setattr__
        init(self, "definable", definable)
        init(self, "relation", relation)
        init(self, "witness", witness)
        init(self, "arity_cap", arity_cap)
        init(self, "realize_cap", realize_cap)

    def _key(self) -> tuple:
        return (self.definable, self.relation, self.witness, self.arity_cap,
                self.realize_cap)

    @property
    def label(self) -> str:
        if self.definable:
            return (f"DEFINABLE up to arity {self.arity_cap}, "
                    f"realize-cap {self.realize_cap}")
        return "NOT-DEFINABLE"


@lru_cache(maxsize=None)
def _realizable_cached(xi: Behaviour, cap: int) -> bool:
    return is_realizable(xi, cap)


def find_violation(p: CorePresentation, r: OrbitUnion, arities,
                   realize_cap: int) -> Behaviour | None:
    """The first realizable relation-preserving behaviour, by arity and then
    by serialization, that moves a member tuple of r outside r, or None.

    An arity is skipped without any table search when the propagated
    domains keep every row of r's member tuples inside r.
    """
    if len(r.members) == len(enumerate_types(p.base_out, r.arity)):
        return None  # r holds every tuple: nothing can leave it
    for m in arities:
        domains = preserving_domains(p.reduct_out, m, p.k)
        if domains is None:
            continue
        rows, keep = union_rows(p.base_out, r, m, p.k)
        if all(domains[flat] <= keep for flat in rows):
            continue
        for xi in preserving_behaviours(p.reduct_out, m, p.k):
            if (any(xi.table[flat] not in keep for flat in rows)
                    and _realizable_cached(xi, realize_cap)):
                return xi
    return None


def definable(p: CorePresentation, r: OrbitUnion, mode: str,
              arity_cap: int | None = None,
              realize_cap: int | None = None) -> DefinableVerdict:
    """Is the orbit union fo/ep/pp-definable in the core?  NOT-DEFINABLE comes
    with a violating behaviour; DEFINABLE is relative to the caps."""
    if not r.members:
        raise InputError("definable: empty orbit union")
    if mode != "pp":
        arity_cap = 1
    elif arity_cap is None:
        arity_cap = len(r.members)
    if arity_cap < 1:
        raise InputError("definable: arity cap must be >= 1")
    cap = realize_cap if realize_cap is not None else default_realize_cap(
        identity_behaviour(p.base_out, p.k))
    witness = find_violation(p, r, range(1, arity_cap + 1), cap)
    return DefinableVerdict(witness is None, r, witness, arity_cap, cap)


def _fresh_unions(base: BoundedClass, existing: Reduct, max_arity: int):
    """All nonempty orbit unions of arity <= max_arity not yet declared,
    paired with deterministic fresh names."""
    declared: dict[int, set[frozenset]] = {}
    for name, u in compiled_unions(existing):
        declared.setdefault(u.arity, set()).add(u.members)
    out = []
    for m in range(1, max_arity + 1):
        types = enumerate_types(base, m)
        counter = 0
        for mask in range(1, 1 << len(types)):
            members = frozenset(types[i] for i in range(len(types)) if mask >> i & 1)
            counter += 1
            if members in declared.get(m, set()):
                continue
            out.append((f"U{m}_{counter}", OrbitUnion(m, members)))
    return out


def expand(p: CorePresentation, n: int, mode: str, arity_cap: int | None = None,
           realize_cap: int | None = None) -> Reduct:
    """The core expanded by every fresh orbit union of arity <= n that is
    definable in the mode; fo and ep share the `_ep{n}` name."""
    if n < 1:
        raise InputError("expand: arity bound must be >= 1")
    relations = list(p.reduct_out.relations)
    for name, u in _fresh_unions(p.base_out, p.reduct_out, n):
        if definable(p, u, mode, arity_cap, realize_cap).definable:
            relations.append(Relation(name, u.arity, OrbitsDef(u.sorted_members())))
    suffix = "pp" if mode == "pp" else "ep"
    return Reduct(f"{p.reduct_out.name}_{suffix}{n}", p.base_out, tuple(relations))
