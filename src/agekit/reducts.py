"""First-order reducts given by quantifier-free formulas or orbit-union literals.

Each relation of a reduct compiles to an orbit union: the set of types of
the base class on which the defining formula holds.  Orbit unions are the
currency of relation preservation throughout the core and decision modules.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .ages import BoundedClass
from .errors import InputError
from .ktypes import KType, enumerate_types, serialization_order, serialize_type, type_index
from .structures import (
    Signature,
    eval_qf,
    render_formula,
    validate_formula,
)
from .value import Value


class FormulaDef(Value):
    __slots__ = ("formula",)


class OrbitsDef(Value):
    __slots__ = ("members",)


RelDef = FormulaDef | OrbitsDef


class Relation(Value):
    __slots__ = ("name", "arity", "definition")


def validate_relation(r: Relation, sig: Signature) -> None:
    """Raise InputError unless r is a well-formed relation over sig."""
    if r.arity < 1:
        raise InputError(f"relation {r.name}: arity must be >= 1")
    if isinstance(r.definition, FormulaDef):
        validate_formula(r.definition.formula, sig, r.arity)
    else:
        for t in r.definition.members:
            if t.k != r.arity:
                raise InputError(
                    f"relation {r.name}: orbit literal at wrong level {t.k}")


class Reduct(Value):
    __slots__ = ("name", "base", "relations", "_hash", "_by_name")

    def __init__(self, name: str, base: BoundedClass, relations: tuple[Relation, ...]):
        by_name = {r.name: r for r in relations}
        if len(by_name) != len(relations):
            raise InputError(f"reduct {name}: duplicate relation names")
        for r in relations:
            validate_relation(r, base.signature)
        init = object.__setattr__
        init(self, "name", name)
        init(self, "base", base)
        init(self, "relations", relations)
        init(self, "_by_name", by_name)
        # reducts key lru_caches; hashing every relation's types each lookup is costly
        init(self, "_hash", hash((name, base, relations)))

    def relation(self, name: str) -> Relation:
        if name not in self._by_name:
            raise InputError(f"reduct {self.name}: no relation named {name!r}")
        return self._by_name[name]

    @property
    def max_arity(self) -> int:
        return max((r.arity for r in self.relations), default=1)


class OrbitUnion(Value):
    __slots__ = ("arity", "members", "_hash")

    def __init__(self, arity: int, members: frozenset[KType]):
        init = object.__setattr__
        init(self, "arity", arity)
        init(self, "members", members)
        init(self, "_hash", hash((arity, members)))

    def sorted_members(self) -> tuple[KType, ...]:
        return tuple(sorted(self.members, key=serialize_type))


def compile_orbit_union(c: Reduct, name: str) -> OrbitUnion:
    """The set of base types on which the relation's definition holds."""
    rel = c.relation(name)
    all_types = enumerate_types(c.base, rel.arity)
    if isinstance(rel.definition, OrbitsDef):
        universe = set(all_types)
        for t in rel.definition.members:
            if t not in universe:
                raise InputError(
                    f"relation {name}: {serialize_type(t)} is not a type of {c.base.name}")
        return OrbitUnion(rel.arity, frozenset(rel.definition.members))
    phi = rel.definition.formula
    members = frozenset(
        p for p in all_types if eval_qf(phi, p.quotient, p.blocks)
    )
    return OrbitUnion(rel.arity, members)


# cached per reduct: an equal reduct from another side would otherwise be
# compared with the cached one relation by relation on every name's lookup
@lru_cache(maxsize=None)
def compiled_unions(c: Reduct) -> tuple[tuple[str, OrbitUnion], ...]:
    return tuple((r.name, compile_orbit_union(c, r.name)) for r in c.relations)


def union_mask(base: BoundedClass, u: OrbitUnion) -> int:
    """The orbit union as a bitmask over the base's type indices at its
    arity: bit i is set iff the i-th type (enumerate_types) is a member.

    The definability oracle and the decider search and compare unions in
    this form; mask_members turns one back into types for a report or a
    certificate.
    """
    idx = type_index(base, u.arity)
    mask = 0
    for p in u.members:
        mask |= 1 << idx[p]
    return mask


def mask_members(base: BoundedClass, arity: int, mask: int) -> tuple[int, ...]:
    """The type indices of a union_mask, sorted by serialization, the order
    of OrbitUnion.sorted_members."""
    return tuple(i for i in serialization_order(base, arity) if mask >> i & 1)


def behaviour_preserves_relation(xi, src: OrbitUnion, tgt: OrbitUnion) -> bool:
    """True iff xi's induced map at the unions' arity sends every tuple of
    src members (one per argument) into tgt."""
    if src.arity != tgt.arity:
        raise InputError("behaviour_preserves_relation: arity mismatch")
    if src.arity > xi.k:
        raise InputError("behaviour_preserves_relation: behaviour level too small")
    idx = type_index(xi.source, src.arity)
    types = enumerate_types(xi.target, src.arity)
    members = sorted(idx[p] for p in src.members)
    return all(types[xi.value(args, src.arity)] in tgt.members
               for args in product(members, repeat=xi.arity))


def render_reldef(base: BoundedClass, d: RelDef) -> str:
    if isinstance(d, FormulaDef):
        return render_formula(d.formula)
    body = ", ".join(serialize_type(t) for t in sorted(d.members, key=serialize_type))
    return f"orbits [ {body} ]"
