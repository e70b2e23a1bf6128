"""First-order reducts given by quantifier-free formulas or orbit-union literals.

Each relation of a reduct compiles to an orbit union: the set of types of
the base class on which the defining formula holds, as a bitmask over type
indices.  Such masks are the currency of relation preservation throughout
the core, definability and decision modules.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .ages import BoundedClass
from .errors import InputError
from .ktypes import (
    enumerate_types,
    index_of_type,
    serialization_order,
    serialize_type,
    serialized_types,
)
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


def compile_orbit_union(c: Reduct, name: str) -> int:
    """The relation's orbit union as a bitmask over the base's type indices
    at its arity: bit i is set iff the relation holds on the i-th type
    (enumerate_types).

    Every engine consumer reads a set of types in this form; mask_members
    and serialize_mask turn one back into types for a report or a
    certificate.
    """
    rel = c.relation(name)
    mask = 0
    if isinstance(rel.definition, OrbitsDef):
        for t in rel.definition.members:
            i = index_of_type(c.base, t)
            if i is None:
                raise InputError(
                    f"relation {name}: {serialize_type(t)} is not a type of {c.base.name}")
            mask |= 1 << i
        return mask
    phi = rel.definition.formula
    for i, p in enumerate(enumerate_types(c.base, rel.arity)):
        if eval_qf(phi, p.quotient, p.blocks):
            mask |= 1 << i
    return mask


# cached per reduct: an equal reduct from another side would otherwise be
# compared with the cached one relation by relation on every name's lookup
@lru_cache(maxsize=None)
def compiled_unions(c: Reduct) -> tuple[tuple[str, int, int], ...]:
    """(name, arity, compile_orbit_union mask) per relation, in declaration order."""
    return tuple((r.name, r.arity, compile_orbit_union(c, r.name)) for r in c.relations)


def mask_members(base: BoundedClass, arity: int, mask: int) -> tuple[int, ...]:
    """The type indices of a mask, sorted by serialization."""
    return tuple(i for i in serialization_order(base, arity) if mask >> i & 1)


def serialize_mask(base: BoundedClass, arity: int, mask: int) -> list[str]:
    """The serializations of a mask's types, sorted: how reports and
    certificates list a set of types."""
    serialized = serialized_types(base, arity)
    return [serialized[i] for i in mask_members(base, arity, mask)]


def behaviour_preserves_relation(xi, arity: int, src_mask: int, tgt_mask: int) -> bool:
    """True iff xi's induced map at the arity sends every tuple of src_mask
    members (one per argument) into tgt_mask, both masks over type indices
    at the arity, of xi's source and target."""
    if arity > xi.k:
        raise InputError("behaviour_preserves_relation: behaviour level too small")
    members = [i for i in range(len(enumerate_types(xi.source, arity)))
               if src_mask >> i & 1]
    return all(tgt_mask >> xi.value(args, arity) & 1
               for args in product(members, repeat=xi.arity))


def render_reldef(base: BoundedClass, d: RelDef) -> str:
    if isinstance(d, FormulaDef):
        return render_formula(d.formula)
    body = ", ".join(serialize_type(t) for t in sorted(d.members, key=serialize_type))
    return f"orbits [ {body} ]"
