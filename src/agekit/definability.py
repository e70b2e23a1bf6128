"""Definability expansions of model-complete cores.

The ep path is combinatorial: in a model-complete core every orbit union is
preserved by all endomorphisms, so the expansion adds one fresh relation per
nonempty orbit union of bounded arity.  The pp path searches canonical
polymorphism behaviours for a violation; a found witness makes the relation
NOT-DEFINABLE, otherwise the verdict is DEFINABLE relative to the caps used
(arity cap and realizability cap), and reports say so.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from .ages import BoundedClass
from .canonical import (
    Behaviour,
    _flat_rows,
    _propagate_domains,
    default_realize_cap,
    enumerate_behaviours,
    identity_behaviour,
    is_realizable,
)
from .core import CorePresentation
from .errors import InputError
from .ktypes import enumerate_types, first_m_index_map, pad_index_map, type_index
from .reducts import (
    OrbitsDef,
    OrbitUnion,
    Reduct,
    Relation,
    behaviour_preserves_relation,
    compiled_unions,
)


def _preservation_pins(k: BoundedClass, arity: int, level: int,
                       unions: tuple[OrbitUnion, ...]) -> dict[int, frozenset[int]]:
    """Row pins expressing that every listed union is preserved."""
    t = len(enumerate_types(k, level))
    pins: dict[int, set[int]] = {}
    for u in unions:
        idx = type_index(k, u.arity)
        pad = pad_index_map(k, u.arity, level)
        back = first_m_index_map(k, level, u.arity)
        member_idx = [idx[p] for p in u.sorted_members()]
        keep = frozenset(v for v in range(t) if back[v] in set(member_idx))
        for flat in _flat_rows([pad[a] for a in member_idx], t, arity):
            pins[flat] = pins.get(flat, set(range(t))) & keep
    return {row: frozenset(vals) for row, vals in pins.items()}


# -- expansions ----------------------------------------------------------------

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


def ep_expand(p: CorePresentation, n: int) -> Reduct:
    """Expansion of the core by every nonempty orbit union of arity <= n.

    On a model-complete core, fo-, ep- and orbit-union definability coincide,
    so no search is needed; fresh relations are deduplicated against the
    declared ones.
    """
    if n < 1:
        raise InputError("ep_expand: arity bound must be >= 1")
    relations = list(p.reduct_out.relations)
    for name, u in _fresh_unions(p.base_out, p.reduct_out, n):
        relations.append(Relation(name, u.arity, OrbitsDef(u.sorted_members())))
    return Reduct(f"{p.reduct_out.name}_ep{n}", p.base_out, tuple(relations))


@dataclass(frozen=True)
class PPVerdict:
    definable: bool
    relation: OrbitUnion
    witness: Behaviour | None
    arity_cap: int
    realize_cap: int

    @property
    def label(self) -> str:
        if self.definable:
            return (f"DEFINABLE up to arity {self.arity_cap}, "
                    f"realize-cap {self.realize_cap}")
        return "NOT-DEFINABLE"


@lru_cache(maxsize=None)
def _pp_candidates(reduct_out: Reduct, arity: int,
                   level: int) -> tuple[Behaviour, ...]:
    """Compatible, coherent candidates preserving the core's declared relations.

    Realizability is deferred to the caller (it only needs to run on
    candidates that actually violate the queried union).
    """
    base = reduct_out.base
    unions = tuple(u for _, u in compiled_unions(reduct_out))
    pins = _preservation_pins(base, arity, level, unions)
    cands = enumerate_behaviours(base, base, level, arity=arity, pins=pins,
                                 check_realizable=False)
    return tuple(xi for xi in cands
                 if all(behaviour_preserves_relation(xi, u, u) for u in unions))


@lru_cache(maxsize=None)
def _realizable_cached(xi: Behaviour, cap: int) -> bool:
    return is_realizable(xi, cap)


def _violation_impossible(base: BoundedClass, reduct_out: Reduct, r: OrbitUnion,
                          arity: int, level: int) -> bool:
    """Constraint propagation proves no compatible relation-preserving table
    can move a member tuple of r outside r."""
    t = len(enumerate_types(base, level))
    idx = type_index(base, r.arity)
    pad = pad_index_map(base, r.arity, level)
    back = first_m_index_map(base, level, r.arity)
    member_idx = set(idx[p] for p in r.members)
    keep = frozenset(v for v in range(t) if back[v] in member_idx)
    if len(keep) == t:
        return True  # r contains every value; nothing can leave it
    unions = tuple(u for _, u in compiled_unions(reduct_out))
    pins = _preservation_pins(base, arity, level, unions)
    domains = _propagate_domains(base, base, level, arity, pins)
    if domains is None:
        return True
    rows = _flat_rows([pad[a] for a in sorted(member_idx)], t, arity)
    return all(domains[flat] <= keep for flat in rows)


def pp_definable(p: CorePresentation, r: OrbitUnion,
                 arity_cap: int | None = None,
                 realize_cap: int | None = None) -> PPVerdict:
    """NOT-DEFINABLE with a violating canonical polymorphism behaviour if one
    exists up to the arity cap; DEFINABLE relative to the caps otherwise."""
    if not r.members:
        raise InputError("pp_definable: empty orbit union")
    if arity_cap is None:
        arity_cap = len(r.members)
    if arity_cap < 1:
        raise InputError("pp_definable: arity cap must be >= 1")
    cap = realize_cap if realize_cap is not None else default_realize_cap(
        identity_behaviour(p.base_out, p.k))
    for m in range(1, arity_cap + 1):
        if _violation_impossible(p.base_out, p.reduct_out, r, m, p.k):
            continue
        for xi in _pp_candidates(p.reduct_out, m, p.k):
            if not behaviour_preserves_relation(xi, r, r) and _realizable_cached(xi, cap):
                return PPVerdict(False, r, xi, arity_cap, cap)
    return PPVerdict(True, r, None, arity_cap, cap)


def pp_expand(p: CorePresentation, n: int, arity_cap: int | None = None,
              realize_cap: int | None = None) -> Reduct:
    """Expansion by every orbit union of arity <= n found DEFINABLE (cap-relative)."""
    if n < 1:
        raise InputError("pp_expand: arity bound must be >= 1")
    relations = list(p.reduct_out.relations)
    for name, u in _fresh_unions(p.base_out, p.reduct_out, n):
        verdict = pp_definable(p, u, arity_cap, realize_cap)
        if verdict.definable:
            relations.append(Relation(name, u.arity, OrbitsDef(u.sorted_members())))
    return Reduct(f"{p.reduct_out.name}_pp{n}", p.base_out, tuple(relations))
