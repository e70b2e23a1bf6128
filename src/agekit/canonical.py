"""Behaviours of canonical functions between two bounded classes.

A behaviour is a total map from the k-types of the source class to the
k-types of the target class.  It stands in for a canonical function: the
function itself lives on an infinite domain and is never materialized.
Candidate tables are generated with incremental compatibility pruning and
kept only if they pass a bounded realizability check; the randomized
extension probe cross-checks that bound on concrete age members.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

from .ages import BoundedClass, _in_age, _in_age_through, enumerate_age, in_age
from .errors import IncoherentBehaviourError, InputError
from .ktypes import (
    KType,
    degenerate_pairs,
    enumerate_types,
    first_m_index_map,
    pad_index_map,
    restrict_index_map,
    serialized_types,
    symbol_holds,
    type_index,
    type_indices,
)
from .structures import FinStructure, embeds, empty_structure, induced


@dataclass(frozen=True)
class Behaviour:
    """table[i] is the target-type index assigned to the i-th source k-type."""

    source: BoundedClass
    target: BoundedClass
    k: int
    table: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self):
        ntypes = len(enumerate_types(self.source, self.k))
        if len(self.table) != ntypes:
            raise InputError(f"behaviour table must have {ntypes} rows")
        nt = len(enumerate_types(self.target, self.k))
        if any(not (0 <= v < nt) for v in self.table):
            raise InputError("behaviour table value out of range")
        object.__setattr__(
            self, "_hash",
            hash((self.source, self.target, self.k, self.table)))

    def __hash__(self) -> int:
        return self._hash

    def mapping(self) -> dict[KType, KType]:
        src = enumerate_types(self.source, self.k)
        tgt = enumerate_types(self.target, self.k)
        return {p: tgt[v] for p, v in zip(src, self.table)}

    def level_map(self, m: int) -> tuple[int, ...]:
        """Induced map on m-type indices (m <= k), via the padding convention."""
        if m > self.k:
            raise InputError("behaviour level too small for this arity")
        if m == self.k:
            return self.table
        return _cached_level_map(self, m)

    def apply_type(self, p: KType) -> KType:
        idx = type_index(self.source, p.k)[p]
        return enumerate_types(self.target, p.k)[self.level_map(p.k)[idx]]

    def is_identity(self) -> bool:
        return (self.source == self.target
                and self.table == tuple(range(len(self.table))))

    def is_bijective(self) -> bool:
        tgt = enumerate_types(self.target, self.k)
        return len(set(self.table)) == len(self.table) == len(tgt)

    def is_injective_behaviour(self) -> bool:
        """No two distinct blocks ever collapse: image partitions equal sources'."""
        src = enumerate_types(self.source, self.k)
        tgt = enumerate_types(self.target, self.k)
        return all(p.blocks == tgt[v].blocks for p, v in zip(src, self.table))

    def image_types(self) -> frozenset[KType]:
        tgt = enumerate_types(self.target, self.k)
        return frozenset(tgt[v] for v in set(self.table))


@lru_cache(maxsize=None)
def _cached_level_map(xi: Behaviour, m: int) -> tuple[int, ...]:
    pad = pad_index_map(xi.source, m, xi.k)
    back = first_m_index_map(xi.target, xi.k, m)
    return tuple(back[xi.table[pad[i]]] for i in range(len(pad)))


def serialize_behaviour(xi: Behaviour) -> str:
    src = serialized_types(xi.source, xi.k)
    tgt = serialized_types(xi.target, xi.k)
    return "\n".join(sorted(f"{p} -> {tgt[v]}" for p, v in zip(src, xi.table)))


def parse_behaviour(text: str, source: BoundedClass, target: BoundedClass,
                    k: int) -> Behaviour:
    from .ktypes import parse_type
    src_index = type_index(source, k)
    tgt_index = type_index(target, k)
    table = [-1] * len(src_index)
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        left, sep, right = line.partition("->")
        if not sep:
            raise InputError(f"bad behaviour line: {line!r}")
        p = parse_type(source.signature, left.strip())
        q = parse_type(target.signature, right.strip())
        if p not in src_index:
            raise InputError(f"unknown source type {left.strip()!r}")
        if q not in tgt_index:
            raise InputError(f"unknown target type {right.strip()!r}")
        if table[src_index[p]] != -1:
            raise InputError(f"duplicate row for {left.strip()!r}")
        table[src_index[p]] = tgt_index[q]
    if -1 in table:
        raise InputError("behaviour table is not total")
    return Behaviour(source, target, k, tuple(table))


def identity_behaviour(k: BoundedClass, level: int) -> Behaviour:
    n = len(enumerate_types(k, level))
    return Behaviour(k, k, level, tuple(range(n)))


def is_compatible(xi: Behaviour) -> bool:
    """The table commutes with restriction along every self-map of positions."""
    k = xi.k
    for sigma in product(range(k), repeat=k):
        rs = restrict_index_map(xi.source, k, sigma)
        rt = restrict_index_map(xi.target, k, sigma)
        for i, v in enumerate(xi.table):
            if xi.table[rs[i]] != rt[v]:
                return False
    return True


def is_coherent(xi: Behaviour) -> bool:
    """Pairwise collapsing inside every type is an equivalence on its positions."""
    if xi.k < 2:
        return True
    lvl2 = xi.level_map(2)
    tgt2 = enumerate_types(xi.target, 2)
    k = xi.k
    nrows = len(xi.table)
    pair_maps = {
        (i, j): restrict_index_map(xi.source, k, (i, j))
        for i in range(k) for j in range(k)
    }
    for row in range(nrows):
        collapse = [
            [tgt2[lvl2[pair_maps[i, j][row]]].degenerate_pair for j in range(k)]
            for i in range(k)
        ]
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


def inverse(xi: Behaviour) -> Behaviour:
    if not xi.is_bijective():
        raise InputError("inverse: behaviour is not bijective on types")
    inv = [0] * len(xi.table)
    for i, v in enumerate(xi.table):
        inv[v] = i
    return Behaviour(xi.target, xi.source, xi.k, tuple(inv))


def is_range_rigid(xi: Behaviour) -> bool:
    """Idempotent on types: composing the behaviour with itself changes nothing."""
    if xi.source != xi.target:
        raise InputError("range-rigidity only applies to endo-behaviours")
    return all(xi.table[v] == v for v in xi.table)


def image_structure(xi: Behaviour, s: FinStructure) -> FinStructure:
    """The finite trace of the behaviour on one age member.

    Points collapsing under the behaviour are identified; relations are read
    off the images of tuple types.  Raises IncoherentBehaviourError when the
    table does not induce a well-defined structure on s.
    """
    if s.signature != xi.source.signature:
        raise InputError("image_structure: signature mismatch")
    if not in_age(xi.source, s):
        raise InputError("image_structure: structure outside the source age")
    n = s.size
    if n == 0:
        return empty_structure(xi.target.signature)
    if xi.k < 2 and n > 1:
        raise InputError("image_structure needs level >= 2 to resolve collapsing")

    def images(m: int) -> list[int]:
        lvl = xi.level_map(m)
        return [lvl[i] for i in type_indices(xi.source, s, m)]

    return _image_from_types(xi.target, n, images)


def _image_from_types(target: BoundedClass, n: int, images) -> FinStructure:
    """The image structure on n > 0 points, given target type indices.

    ``images(m)`` lists the target m-type index of every m-tuple over
    range(n), in tuple-lex order; it is asked for level 2 (when n > 1) and
    for each symbol's arity, in that order, once per level.  Collapsing
    pairs are identified and relations read off the image types.
    """
    rows: dict[int, list[int]] = {}

    def row(m: int) -> list[int]:
        if m not in rows:
            rows[m] = images(m)
        return rows[m]

    if n == 1:
        class_of, nclasses = [0], 1
    else:
        degenerate = degenerate_pairs(target)
        pairs = row(2)
        collapse = [[degenerate[pairs[x * n + y]] for y in range(n)]
                    for x in range(n)]
        if sum(map(sum, collapse)) != n or not all(collapse[x][x] for x in range(n)):
            _check_equivalence(collapse)
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
        tuples = product(range(n), repeat=arity)
        if nclasses == n:  # no collapse: class_of is the identity
            tables.append(frozenset(
                t for t, v in zip(tuples, row(arity)) if holds[v]))
            continue
        seen: dict[tuple[int, ...], bool] = {}
        for t, v in zip(tuples, row(arity)):
            ct = tuple(class_of[x] for x in t)
            if ct in seen and seen[ct] != holds[v]:
                raise IncoherentBehaviourError(
                    "relation atoms disagree across representatives")
            seen[ct] = holds[v]
        tables.append(frozenset(ct for ct, h in seen.items() if h))
    return FinStructure(target.signature, nclasses, tuple(tables))


def _check_equivalence(collapse: list[list[bool]]) -> None:
    """Raise IncoherentBehaviourError, naming the first failing law, unless
    the collapse matrix is an equivalence relation."""
    n = len(collapse)
    for x in range(n):
        if not collapse[x][x]:
            raise IncoherentBehaviourError("reflexive pair does not collapse")
        for y in range(n):
            if collapse[x][y] != collapse[y][x]:
                raise IncoherentBehaviourError("collapse relation not symmetric")
            for z in range(n):
                if collapse[x][y] and collapse[y][z] and not collapse[x][z]:
                    raise IncoherentBehaviourError("collapse relation not transitive")


def default_realize_cap(xi: Behaviour) -> int:
    """Bounded realizability cap: 2k to expose pairwise-collapse interaction,
    plus the target's bound sizes and arities."""
    return max(2 * xi.k, xi.target.max_bound_size, xi.target.signature.max_arity)


def is_realizable(xi: Behaviour, cap: int | None = None) -> bool:
    """Bounded check: every small source age member must map into the target age."""
    n_cap = cap if cap is not None else default_realize_cap(xi)
    for n in range(1, n_cap + 1):
        for s in enumerate_age(xi.source, n):
            try:
                img = image_structure(xi, s)
            except IncoherentBehaviourError:
                return False
            if not _in_age(xi.target, img):
                return False
    return True


@lru_cache(maxsize=None)
def _sigma_constraints(source: BoundedClass, target: BoundedClass, k: int):
    """Per-row constraint lists for incremental compatibility pruning.

    checks[i] holds triples (p, j, rt) meaning: once rows p and j = p∘sigma
    are both assigned (max(p, j) == i), require table[j] == rt[table[p]].
    """
    nrows = len(enumerate_types(source, k))
    checks: list[list] = [[] for _ in range(nrows)]
    for sigma in product(range(k), repeat=k):
        if sigma == tuple(range(k)):
            continue
        rs = restrict_index_map(source, k, sigma)
        rt = restrict_index_map(target, k, sigma)
        for p in range(nrows):
            j = rs[p]
            checks[max(p, j)].append((p, j, rt))
    return tuple(tuple(c) for c in checks)


def enumerate_behaviours(source: BoundedClass, target: BoundedClass, k: int,
                         table_filter=None, realize_cap: int | None = None,
                         jobs: int = 1) -> tuple[Behaviour, ...]:
    """Every compatible, coherent, realizable behaviour at level k.

    Candidates are generated row by row with fail-fast compatibility pruning;
    the optional table_filter prunes full candidates before the (more
    expensive) realizability check.  Output is sorted by serialization.
    ``jobs`` is accepted and ignored: the search runs in one thread.
    """
    if k < max(source.signature.max_arity, target.signature.max_arity):
        raise InputError("enumerate_behaviours: k below a signature arity")
    nrows = len(enumerate_types(source, k))
    nvals = len(enumerate_types(target, k))
    checks = _sigma_constraints(source, target, k)
    table = [-1] * nrows
    candidates: list[tuple[int, ...]] = []

    def rec(i: int):
        if i == nrows:
            candidates.append(tuple(table))
            return
        for v in range(nvals):
            table[i] = v
            ok = True
            for p, j, rt in checks[i]:
                if table[j] != rt[table[p]]:
                    ok = False
                    break
            if ok:
                rec(i + 1)
        table[i] = -1

    rec(0)

    def qualifies(tab):
        xi = Behaviour(source, target, k, tab)
        if not is_coherent(xi):
            return None
        if table_filter is not None and not table_filter(xi):
            return None
        if not is_realizable(xi, realize_cap):
            return None
        return xi

    out = [xi for xi in map(qualifies, candidates) if xi is not None]
    out.sort(key=serialize_behaviour)
    return tuple(out)


# -- randomized extension probe ------------------------------------------------

@dataclass(frozen=True)
class ProbeReport:
    trials: int
    max_size: int
    seed: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


@lru_cache(maxsize=None)
def _local_pair_options(k: BoundedClass):
    """Valid 2-point patterns, keyed by (old point 1-type, new point 1-type)."""
    from .ktypes import _labeled_age_structures
    singles = _labeled_age_structures(k, 1)
    pairs = _labeled_age_structures(k, 2)
    options: dict[tuple, list] = {}
    for two in pairs:
        old_part = induced(two, (0,))
        new_part = induced(two, (1,))
        cross = []
        for si, (_, arity) in enumerate(k.signature.symbols):
            for t in two.tables[si]:
                if 0 in t and 1 in t:
                    cross.append((si, t))
        options.setdefault((old_part, new_part), []).append(tuple(cross))
    return singles, options


def random_age_member(k: BoundedClass, n: int, rng: random.Random) -> FinStructure:
    """Grow a random age member of size <= n, locally filtering pair patterns."""
    singles, options = _local_pair_options(k)
    s = empty_structure(k.signature)
    while s.size < n:
        grown = _random_extension(k, s, singles, options, rng)
        if grown is None:
            break
        s = grown
    return s


def _random_extension(k, s, singles, options, rng):
    if not singles:  # no one-point member: the age is {empty structure}
        return None
    size = s.size
    retries = 64 * (size + 2)
    old_parts = [induced(s, (x,)) for x in range(size)]
    for _ in range(retries):
        new_part = rng.choice(singles)
        atoms = []
        for si in range(len(k.signature.symbols)):
            for t in new_part.tables[si]:
                atoms.append((si, tuple(size if v == 0 else v for v in t)))
        ok = True
        for x in range(size):
            opts = options.get((old_parts[x], new_part))
            if not opts:
                ok = False
                break
            for si, t in rng.choice(opts):
                atoms.append((si, tuple(x if v == 0 else size for v in t)))
        if not ok:
            continue
        # slots touching >= 3 points (arity >= 3 symbols): sample uniformly
        for si, (_, arity) in enumerate(k.signature.symbols):
            if arity >= 3:
                for t in product(range(size + 1), repeat=arity):
                    if size in t and len(set(t)) >= 3 and rng.random() < 0.5:
                        atoms.append((si, t))
        tables = [set(tb) for tb in s.tables]
        for si, t in atoms:
            tables[si].add(t)
        # s lies in the age, so only bound embeddings through the new point count
        if _in_age_through(k, tables, size + 1, (size,)):
            return FinStructure(k.signature, size + 1, tuple(frozenset(tb) for tb in tables))
    return None


def greedy_extension_probe(xi: Behaviour, max_size: int, trials: int,
                           seed: int) -> ProbeReport:
    """Randomized cross-check of the bounded realizability decision.

    Draws random source age members of size <= max_size, checks their images
    land in the target age, and that images of prefixes extend point by
    point.  Any failure falsifies the bounded check's completeness on this
    behaviour and is reported verbatim.
    """
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
