"""Quantifier-free k-types: orbits of k-tuples of the infinite base structure.

A k-type is an equality partition of the positions {0..k-1} plus the
structure induced on the blocks; blocks are ordered by least position, so
the partition is stored as a restricted-growth string.  Two tuples lie in
the same orbit of a homogeneous structure iff they have the same k-type.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .ages import BoundedClass, _in_age, age_extensions
from .errors import InputError
from .structures import (
    FinStructure,
    induced,
    parse_literal,
    render_literal,
    slot_mask,
    slot_readers,
    slots,
    structure,
)
from .value import Value


class KType(Value):
    """k positions, partition as a restricted-growth string, quotient on blocks.

    Built unchecked: the engine derives blocks and quotient from valid
    types and structures, and parse_type checks types read from input.
    """

    __slots__ = ("k", "blocks", "quotient", "_hash")

    def __init__(self, k: int, blocks: tuple[int, ...], quotient: FinStructure):
        init = object.__setattr__
        init(self, "k", k)
        init(self, "blocks", blocks)
        init(self, "quotient", quotient)
        init(self, "_hash", hash((k, blocks, quotient)))

    @property
    def nblocks(self) -> int:
        return self.quotient.size

    @property
    def degenerate_pair(self) -> bool:
        return self.blocks == (0, 0)


@lru_cache(maxsize=None)
def serialize_type(p: KType) -> str:
    parts = []
    for b in range(p.nblocks):
        members = [str(i) for i in range(p.k) if p.blocks[i] == b]
        parts.append("{" + ",".join(members) + "}")
    return f"[{''.join(parts)}|{render_literal(p.quotient)}]"


def parse_type(sig, text: str) -> KType:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise InputError(f"bad type serialization: {text!r}")
    part, _, lit = text[1:-1].partition("|")
    if not part.startswith("{") or not part.endswith("}"):
        raise InputError(f"bad partition in type: {part!r}")
    assign: dict[int, int] = {}
    for b, group in enumerate(part[1:-1].split("}{")):
        for tok in group.split(","):
            if not tok.isdecimal():
                raise InputError(f"bad partition block in type: {part!r}")
            if int(tok) in assign:
                raise InputError(f"position {tok} listed twice in type: {text!r}")
            assign[int(tok)] = b
    k = len(assign)
    if sorted(assign) != list(range(k)):
        raise InputError(f"partition does not cover 0..{k - 1}: {part!r}")
    blocks = tuple(assign[i] for i in range(k))
    top = -1
    for b in blocks:
        if b > top + 1:
            raise InputError(f"partition not in first-occurrence order: {blocks}")
        top = max(top, b)
    quotient = parse_literal(sig, lit)
    if quotient.size != top + 1:
        raise InputError("quotient size does not match number of blocks")
    return KType(k, blocks, quotient)


def _partition(tup) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The partition of a tuple's positions by equal entries, as block
    numbers in first-occurrence order, and the entry of each block."""
    reps: list[int] = []
    blocks = []
    for v in tup:
        if v not in reps:
            reps.append(v)
        blocks.append(reps.index(v))
    return tuple(blocks), tuple(reps)


def type_of_raw(s: FinStructure, tup) -> KType:
    """The type of a tuple of points of s (no age membership check)."""
    tup = tuple(tup)
    if not tup:
        raise InputError("type_of: tuple must be nonempty")
    if any(not (0 <= v < s.size) for v in tup):
        raise InputError(f"type_of: entry out of range: {tup}")
    blocks, reps = _partition(tup)
    return KType(len(tup), blocks, induced(s, reps))


def restrict_type(p: KType, sigma) -> KType:
    """The type of (t_{sigma(0)},..,t_{sigma(j-1)}) for any tuple t of type p."""
    sigma = tuple(sigma)
    if not sigma:
        raise InputError("restrict_type: sigma must be nonempty")
    if any(not (0 <= v < p.k) for v in sigma):
        raise InputError(f"restrict_type: sigma out of range: {sigma}")
    return type_of_raw(p.quotient, [p.blocks[v] for v in sigma])


def partitions_rgs(k: int, blocks: int | None = None):
    """Restricted-growth strings of length k with at most `blocks` blocks (any
    number by default), in lexicographic order."""
    most = k if blocks is None else blocks
    rgs = [0] * k
    top = [0] * k  # top[i] = max(rgs[:i + 1])
    while True:
        yield tuple(rgs)
        i = k - 1
        while i >= 1 and (rgs[i] > top[i - 1] or rgs[i] + 1 >= most):
            i -= 1
        if i < 1:
            return
        rgs[i] += 1
        top[i] = max(top[i - 1], rgs[i])
        for j in range(i + 1, k):
            rgs[j] = 0
            top[j] = top[i]


# the most labelled age members on one point count, and the most types at
# one level, that are built before a level is refused as too large; every
# partition enumerated yields a type, so the guard bounds the work too
TYPE_LIMIT = 1 << 16


def _too_many(what: str) -> InputError:
    return InputError(f"type enumeration: more than {TYPE_LIMIT:,} {what}; lower --k")


@lru_cache(maxsize=None)
def _labeled_age_structures(k: BoundedClass, n: int) -> tuple[FinStructure, ...]:
    """All labelled structures on n points that lie in the age, in slot-mask order.

    By heredity each one extends a labelled member on n - 1 points by the
    point n - 1, so the members are the age extensions of those, sorted by
    slot mask over structures.slots(sig, n).
    """
    sig = k.signature
    if n <= 0:
        return tuple(s for s in (structure(sig, n),) if _in_age(k, s))
    out: list[FinStructure] = []
    for base in _labeled_age_structures(k, n - 1):
        out.extend(age_extensions(k, base))
        if len(out) > TYPE_LIMIT:
            raise _too_many(f"labelled age members on {n} points")
    readers = slot_readers(slots(sig, n))
    out.sort(key=lambda s: slot_mask(readers, s.tables, range(n)))
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_types(k: BoundedClass, level: int) -> tuple[KType, ...]:
    """All k-types at the given level: partitions x labelled age members on blocks."""
    if level < 1:
        raise InputError("enumerate_types: level must be >= 1")
    if level > TYPE_LIMIT:
        raise InputError(f"type enumeration: level {level} above {TYPE_LIMIT:,}; lower --k")
    # by heredity, the age has members on 1..most points and on no more
    most = 0
    while most < level and _labeled_age_structures(k, most + 1):
        most += 1
    out = []
    for rgs in partitions_rgs(level, most):
        nblocks = max(rgs) + 1
        for q in _labeled_age_structures(k, nblocks):
            out.append(KType(level, rgs, q))
        if len(out) > TYPE_LIMIT:
            raise _too_many(f"types at level {level}")
    return tuple(out)


@lru_cache(maxsize=None)
def type_index(k: BoundedClass, level: int) -> dict[KType, int]:
    """KType -> index at the level: the lookup for types read from input."""
    return {p: i for i, p in enumerate(enumerate_types(k, level))}


@lru_cache(maxsize=None)
def _type_lookup(k: BoundedClass, level: int) -> tuple[dict[tuple, int], tuple]:
    """(blocks, slot mask of the quotient) -> type index at the level, and
    the readers of those masks: of the slots over b points at index b."""
    readers = tuple(slot_readers(slots(k.signature, b)) for b in range(level + 1))
    return ({(p.blocks, slot_mask(readers[p.nblocks], p.quotient.tables, range(p.nblocks))): i
             for i, p in enumerate(enumerate_types(k, level))}, readers)


def read_type_indices(k: BoundedClass, s: FinStructure, level: int) -> tuple[int, ...]:
    """``type_index(k, level)[type_of_raw(s, t)]`` for each t in
    ``product(range(s.size), repeat=level)``, read off s.tables with no
    KType built, no age test (s must lie in the age) and no cache."""
    lookup, readers = _type_lookup(k, level)
    masks: dict[tuple[int, ...], int] = {}
    out = []
    for t in product(range(s.size), repeat=level):
        blocks, key = _partition(t)
        if key not in masks:
            masks[key] = slot_mask(readers[len(key)], s.tables, key)
        out.append(lookup[blocks, masks[key]])
    return tuple(out)


@lru_cache(maxsize=None)
def degenerate_pairs(k: BoundedClass) -> tuple[bool, ...]:
    """Per 2-type index: whether the type identifies its two positions."""
    return tuple(p.degenerate_pair for p in enumerate_types(k, 2))


@lru_cache(maxsize=None)
def symbol_holds(k: BoundedClass, si: int) -> tuple[bool, ...]:
    """Per type index at symbol si's arity: whether si holds on the tuple."""
    arity = k.signature.symbols[si][1]
    return tuple(p.blocks in p.quotient.tables[si] for p in enumerate_types(k, arity))


@lru_cache(maxsize=None)
def serialized_types(k: BoundedClass, level: int) -> tuple[str, ...]:
    """serialize_type of every type at the level, in type-index order."""
    return tuple(serialize_type(p) for p in enumerate_types(k, level))


@lru_cache(maxsize=None)
def serialization_order(k: BoundedClass, level: int) -> tuple[int, ...]:
    """The type indices at the level, sorted by serialize_type."""
    serialized = serialized_types(k, level)
    return tuple(sorted(range(len(serialized)), key=serialized.__getitem__))


@lru_cache(maxsize=None)
def restrict_index_map(k: BoundedClass, level: int, sigma: tuple[int, ...]) -> tuple[int, ...]:
    """Index form of restrict_type, level-`level` types to level-`len(sigma)`
    types: read off the quotient at the blocks sigma picks, no KType built."""
    lookup, readers = _type_lookup(k, len(sigma))
    out = []
    for p in enumerate_types(k, level):
        blocks, key = _partition([p.blocks[v] for v in sigma])
        out.append(lookup[blocks, slot_mask(readers[len(key)], p.quotient.tables, key)])
    return tuple(out)


def monoid_generators(level: int) -> tuple[tuple[int, ...], ...]:
    """A transposition, the level-cycle and one merge, without repeats:
    under composition they generate every self-map of range(level)
    (level >= 2)."""
    identity = tuple(range(level))
    rest = identity[2:]
    return tuple(dict.fromkeys(((1, 0) + rest, identity[1:] + (0,), (0, 0) + rest)))


def pad_index_map(k: BoundedClass, m: int, level: int) -> tuple[int, ...]:
    """m-type index -> level-type index via the repeat-last-position padding."""
    if m > level:
        raise InputError("pad_index_map: m must be <= level")
    return restrict_index_map(k, m, tuple(min(i, m - 1) for i in range(level)))


def first_m_index_map(k: BoundedClass, level: int, m: int) -> tuple[int, ...]:
    """level-type index -> m-type index by restriction to the first m positions."""
    return restrict_index_map(k, level, tuple(range(m)))


def default_level(*reducts_or_classes) -> int:
    """The least behaviour level for the inputs: every signature and declared
    relation arity, and 2, the level at which a behaviour tells which points
    it collapses."""
    level = 2
    for obj in reducts_or_classes:
        if isinstance(obj, BoundedClass):
            level = max(level, obj.signature.max_arity)
        else:
            level = max(level, obj.base.signature.max_arity)
            level = max(level, max((r.arity for r in obj.relations), default=1))
    return level
