"""Definability expansions of model-complete cores.

The ep path is combinatorial: in a model-complete core every orbit union is
preserved by all endomorphisms, so the expansion adds one fresh relation per
nonempty orbit union of bounded arity.  The pp path searches canonical
polymorphism behaviours for a violation; a found witness makes the relation
NOT-DEFINABLE, otherwise the verdict is DEFINABLE relative to the caps used
(arity cap and realizability cap), and reports say so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

from .ages import BoundedClass, _in_age, enumerate_age
from .canonical import _image_from_types
from .core import CorePresentation
from .errors import IncoherentBehaviourError, InputError
from .ktypes import (
    KType,
    degenerate_pairs,
    enumerate_types,
    first_m_index_map,
    pad_index_map,
    restrict_index_map,
    serialized_types,
    type_index,
    type_indices,
)
from .reducts import (
    OrbitsDef,
    OrbitUnion,
    Reduct,
    Relation,
    compiled_unions,
)
from .structures import FinStructure


@dataclass(frozen=True)
class PolymorphismBehaviour:
    """Arity-m table over k-types of one class, indexed by flattened argument
    tuples (first argument most significant)."""

    source: BoundedClass
    arity: int
    k: int
    table: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False, default=0)
    _ntypes: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self):
        t = len(enumerate_types(self.source, self.k))
        if len(self.table) != t ** self.arity:
            raise InputError(f"polymorphism table must have {t ** self.arity} rows")
        if any(not (0 <= v < t) for v in self.table):
            raise InputError("polymorphism table value out of range")
        object.__setattr__(self, "_ntypes", t)
        object.__setattr__(
            self, "_hash",
            hash((self.source, self.arity, self.k, self.table)))

    def __hash__(self) -> int:
        return self._hash

    def flat(self, args) -> int:
        idx = 0
        for a in args:
            idx = idx * self._ntypes + a
        return idx

    def value(self, args) -> int:
        return self.table[self.flat(args)]

    def level_maps(self, level: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(pad, back): level-type index -> k-type index and back (level <= k)."""
        if level > self.k:
            raise InputError("polymorphism level too small for this arity")
        return (pad_index_map(self.source, level, self.k),
                first_m_index_map(self.source, self.k, level))

    def level_value(self, args, level: int) -> int:
        """Value on a tuple of level-`level` type indices (level <= k)."""
        if level == self.k:
            return self.value(args)
        pad, back = self.level_maps(level)
        return back[self.value(tuple(pad[a] for a in args))]

    def apply_types(self, ptypes) -> KType:
        ptypes = tuple(ptypes)
        level = ptypes[0].k
        if any(p.k != level for p in ptypes):
            raise InputError("argument types must share one level")
        idx = type_index(self.source, level)
        v = self.level_value(tuple(idx[p] for p in ptypes), level)
        return enumerate_types(self.source, level)[v]


def serialize_poly(xi: PolymorphismBehaviour) -> str:
    names = serialized_types(xi.source, xi.k)
    lines = []
    for args, v in zip(product(range(len(names)), repeat=xi.arity), xi.table):
        left = " | ".join(names[a] for a in args)
        lines.append(f"{left} -> {names[v]}")
    return "\n".join(sorted(lines))


def split_type_columns(line: str) -> list[str]:
    """Split at pipes outside type brackets (types contain pipes internally)."""
    out, depth, cur = [], 0, []
    for ch in line:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "|" and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur).strip())
    return out


def parse_poly(text: str, source: BoundedClass, arity: int,
               k: int) -> PolymorphismBehaviour:
    from .ktypes import parse_type
    idx = type_index(source, k)
    t = len(idx)
    table = [-1] * (t ** arity)
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        left, sep, right = line.partition("->")
        if not sep:
            raise InputError(f"bad polymorphism line: {line!r}")
        parts = split_type_columns(left)
        if len(parts) != arity:
            raise InputError(f"expected {arity} argument columns: {line!r}")
        args = []
        for p in parts:
            pt = parse_type(source.signature, p)
            if pt not in idx:
                raise InputError(f"unknown type {p!r}")
            args.append(idx[pt])
        q = parse_type(source.signature, right.strip())
        if q not in idx:
            raise InputError(f"unknown type {right.strip()!r}")
        flat = 0
        for a in args:
            flat = flat * t + a
        if table[flat] != -1:
            raise InputError(f"duplicate row: {line!r}")
        table[flat] = idx[q]
    if -1 in table:
        raise InputError("polymorphism table is not total")
    return PolymorphismBehaviour(source, arity, k, tuple(table))


def poly_is_compatible(xi: PolymorphismBehaviour) -> bool:
    """Componentwise: restricting all arguments restricts the value."""
    k = xi.k
    t = len(enumerate_types(xi.source, k))
    for sigma in product(range(k), repeat=k):
        r = restrict_index_map(xi.source, k, sigma)
        for args in product(range(t), repeat=xi.arity):
            if xi.value(tuple(r[a] for a in args)) != r[xi.value(args)]:
                return False
    return True


def poly_is_coherent(xi: PolymorphismBehaviour) -> bool:
    if xi.k < 2:
        return True
    t = len(enumerate_types(xi.source, xi.k))
    tgt2 = enumerate_types(xi.source, 2)
    k = xi.k
    pair_maps = {
        (i, j): restrict_index_map(xi.source, k, (i, j))
        for i in range(k) for j in range(k)
    }
    pad = pad_index_map(xi.source, 2, k)
    back = first_m_index_map(xi.source, k, 2)
    for args in product(range(t), repeat=xi.arity):
        collapse = [[False] * k for _ in range(k)]
        for i in range(k):
            for j in range(k):
                v = xi.value(tuple(pad[pair_maps[i, j][a]] for a in args))
                collapse[i][j] = tgt2[back[v]].degenerate_pair
        for i in range(k):
            if not collapse[i][i]:
                return False
            for j in range(k):
                if collapse[i][j] != collapse[j][i]:
                    return False
                for l in range(k):
                    if collapse[i][j] and collapse[j][l] and not collapse[i][l]:
                        return False
    return True


def poly_image_structure(xi: PolymorphismBehaviour,
                         members: tuple[FinStructure, ...]) -> FinStructure:
    """Image of m age members over a common index set under the behaviour."""
    if len(members) != xi.arity:
        raise InputError("need one argument structure per polymorphism argument")
    n = members[0].size
    if any(s.size != n for s in members):
        raise InputError("argument structures must share one index set")
    sig = xi.source.signature
    if n == 0:
        return FinStructure(sig, 0, tuple(frozenset() for _ in sig.symbols))

    def images(m: int) -> list[int]:
        pad, back = xi.level_maps(m)
        t, table = xi._ntypes, xi.table
        out = []
        for args in zip(*(type_indices(xi.source, s, m) for s in members)):
            flat = 0
            for a in args:
                flat = flat * t + pad[a]
            out.append(back[table[flat]])
        return out

    if n == 1 and not degenerate_pairs(xi.source)[images(2)[0]]:
        raise IncoherentBehaviourError("reflexive pair does not collapse")
    return _image_from_types(xi.source, n, images)


def poly_realize_cap(k: BoundedClass, level: int) -> int:
    return max(2 * level, k.max_bound_size, k.signature.max_arity)


def poly_is_realizable(xi: PolymorphismBehaviour, cap: int | None = None) -> bool:
    """Bounded image check over argument tuples of canonical age members
    sharing a common index set."""
    n_cap = cap if cap is not None else poly_realize_cap(xi.source, xi.k)
    for n in range(1, n_cap + 1):
        for members in product(enumerate_age(xi.source, n), repeat=xi.arity):
            try:
                img = poly_image_structure(xi, members)
            except IncoherentBehaviourError:
                return False
            if not _in_age(xi.source, img):
                return False
    return True


def poly_preserves_union(xi: PolymorphismBehaviour, u: OrbitUnion) -> bool:
    if u.arity > xi.k:
        raise InputError("polymorphism level too small for this union")
    idx = type_index(xi.source, u.arity)
    types = enumerate_types(xi.source, u.arity)
    member_idx = sorted(idx[p] for p in u.members)
    for args in product(member_idx, repeat=xi.arity):
        if types[xi.level_value(args, u.arity)] not in u.members:
            return False
    return True


@lru_cache(maxsize=None)
def _poly_sigma_constraints(k: BoundedClass, level: int, arity: int):
    """σ-constraint triples (p, j, r): any valid table has table[j] == r[table[p]].

    Returned twice: grouped per DFS row (checkable once max(p, j) is
    assigned) and as a flat list for constraint propagation.
    """
    t = len(enumerate_types(k, level))
    nrows = t ** arity
    all_args = list(product(range(t), repeat=arity))
    flat = {args: i for i, args in enumerate(all_args)}
    checks: list[list] = [[] for _ in range(nrows)]
    triples = []
    for sigma in product(range(level), repeat=level):
        if sigma == tuple(range(level)):
            continue
        r = restrict_index_map(k, level, sigma)
        for args in all_args:
            p = flat[args]
            j = flat[tuple(r[a] for a in args)]
            checks[max(p, j)].append((p, j, r))
            triples.append((p, j, r))
    return tuple(tuple(c) for c in checks), tuple(triples)


def _propagate_domains(k: BoundedClass, arity: int, level: int,
                       pins: dict[int, frozenset[int]]):
    """Arc consistency over the σ-constraints, starting from per-row pins.

    Sound: every compatible table respecting the pins stays inside the
    returned per-row domains.  Returns None when some domain empties.
    """
    t = len(enumerate_types(k, level))
    nrows = t ** arity
    _, triples = _poly_sigma_constraints(k, level, arity)
    allowed = [set(range(t)) for _ in range(nrows)]
    for row, vals in pins.items():
        allowed[row] &= vals
    changed = True
    while changed:
        changed = False
        for p, j, r in triples:
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
        for args in product(member_idx, repeat=arity):
            flat = 0
            for a in args:
                flat = flat * t + pad[a]
            pins[flat] = pins.get(flat, set(range(t))) & keep
    return {row: frozenset(vals) for row, vals in pins.items()}


def enumerate_poly_behaviours(k: BoundedClass, arity: int, level: int,
                              table_filter=None,
                              realize_cap: int | None = None,
                              pins: dict[int, frozenset[int]] | None = None,
                              check_realizable: bool = True
                              ) -> tuple[PolymorphismBehaviour, ...]:
    """Compatible, coherent (and by default realizable) polymorphism
    behaviours, sorted by serialization; pins restrict per-row domains."""
    if level < k.signature.max_arity:
        raise InputError("enumerate_poly_behaviours: level below a signature arity")
    t = len(enumerate_types(k, level))
    nrows = t ** arity
    checks, _ = _poly_sigma_constraints(k, level, arity)
    domains = _propagate_domains(k, arity, level, pins or {})
    if domains is None:
        return ()
    table = [-1] * nrows
    out = []

    def rec(i: int):
        if i == nrows:
            xi = PolymorphismBehaviour(k, arity, level, tuple(table))
            if not poly_is_coherent(xi):
                return
            if table_filter is not None and not table_filter(xi):
                return
            if not check_realizable or poly_is_realizable(xi, realize_cap):
                out.append(xi)
            return
        for v in sorted(domains[i]):
            table[i] = v
            if all(table[j] == r[table[p]] for p, j, r in checks[i]):
                rec(i + 1)
        table[i] = -1

    rec(0)
    out.sort(key=serialize_poly)
    return tuple(out)


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
    witness: PolymorphismBehaviour | None
    arity_cap: int
    realize_cap: int

    @property
    def label(self) -> str:
        if self.definable:
            return (f"DEFINABLE up to arity {self.arity_cap}, "
                    f"realize-cap {self.realize_cap}")
        return "NOT-DEFINABLE"


def _core_relation_filter(p: CorePresentation):
    unions = [u for _, u in compiled_unions(p.reduct_out)]

    def keeps_all(xi: PolymorphismBehaviour) -> bool:
        return all(poly_preserves_union(xi, u) for u in unions)

    return keeps_all


@lru_cache(maxsize=None)
def _pp_candidates(reduct_out: Reduct, arity: int,
                   level: int) -> tuple[PolymorphismBehaviour, ...]:
    """Compatible, coherent candidates preserving the core's declared relations.

    Realizability is deferred to the caller (it only needs to run on
    candidates that actually violate the queried union).
    """
    unions = tuple(u for _, u in compiled_unions(reduct_out))
    pins = _preservation_pins(reduct_out.base, arity, level, unions)
    cands = enumerate_poly_behaviours(reduct_out.base, arity, level,
                                      pins=pins, check_realizable=False)
    out = []
    for xi in cands:
        if all(poly_preserves_union(xi, u) for u in unions):
            out.append(xi)
    return tuple(out)


@lru_cache(maxsize=None)
def _poly_realizable_cached(xi: PolymorphismBehaviour, cap: int) -> bool:
    return poly_is_realizable(xi, cap)


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
    domains = _propagate_domains(base, arity, level, pins)
    if domains is None:
        return True
    for args in product(sorted(member_idx), repeat=arity):
        flat = 0
        for a in args:
            flat = flat * t + pad[a]
        if not (domains[flat] <= keep):
            return False
    return True


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
    cap = realize_cap if realize_cap is not None else poly_realize_cap(
        p.base_out, p.k)
    for m in range(1, arity_cap + 1):
        if _violation_impossible(p.base_out, p.reduct_out, r, m, p.k):
            continue
        for xi in _pp_candidates(p.reduct_out, m, p.k):
            if not poly_preserves_union(xi, r) and _poly_realizable_cached(xi, cap):
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
