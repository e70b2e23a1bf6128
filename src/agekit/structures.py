"""Finite relational structures: the substrate everything else computes over.

A structure is a finite relational structure over an explicit ordered
signature; relations are arbitrary sets of tuples (entries may repeat).
Embeddings are injective maps that preserve and reflect every relation.

Canonical form and the bit-encoding it minimizes
------------------------------------------------
A structure of size n is encoded as one bit string: for each symbol in
signature order, for each tuple over {0,..,n-1}^arity in lexicographic
order, one bit (1 iff the tuple is in the relation); earlier bits are more
significant.  canonical_form returns the relabelling whose encoding is
lexicographically least.  It finds it by branch and bound over
partial labellings: labels 0, 1, .. are handed out one at a time, a tuple's
bit is known once all its points are labelled, and a partial labelling
whose lower bound exceeds the best complete encoding is cut.  The encoding
determines the structure, so every least labelling yields the same
canonical form.  The rendered literal of the canonical form lists atoms in
the same (symbol-major, tuple-lex) order, so canonical literals are
byte-portable.

Slots
-----
A slot is a (symbol, tuple) pair, one atom a structure may hold.  slots
lists the slots over a number of points, in the same symbol-major,
tuple-lex order, and slot j is bit j of a slot mask; slot_mask reads the
mask of raw tables at any sequence of points through slot_readers.
Embedding search, one-point extension, age membership, amalgamation, type
lookup and the extension probe's draws all read structures this way.

Isomorph-free generation
------------------------
augment grows the members of size n of a hereditary class from its
canonical members of size n - 1 by one-point extension, in the style of
McKay's isomorph-free generation.  Two filters run before canonical_form.
First, automorphisms of the base that fix the new point permute the new
point's slots and map each extension to an isomorphic one, so one
extension per orbit of slot masks goes on; the generators are the
automorphisms canonical_form's search met on the base, and since any
generators of a subgroup keep this exact, the set need not be complete.
Second, an extension is canonicalized only if its new point has the
greatest profile, an isomorphism-invariant count of the tuples each point
occurs in; every member arises that way from the member left by deleting
a point of greatest profile.  The canonical forms are deduplicated and
sorted by encoding, so the result equals canonicalizing every extension.
ages.enumerate_age generates this way.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from operator import itemgetter

from .errors import InputError
from .value import Value


# one-point extensions search every subset of the atom slots a new point
# adds, so at most this many; a second point alone gets 2**arity - 1 slots of
# a symbol, and a symbol of higher arity than this is refused outright
EXTENSION_SLOT_LIMIT = 24


class Signature(Value):
    """Ordered list of (name, arity); the ordering is part of identity."""

    __slots__ = ("symbols", "_hash")

    def __init__(self, symbols: tuple[tuple[str, int], ...]):
        names = [n for n, _ in symbols]
        if len(set(names)) != len(names):
            raise InputError(f"duplicate symbol names in signature: {names}")
        for name, arity in symbols:
            if arity < 1:
                raise InputError(f"symbol {name} has arity {arity} < 1")
            if arity > EXTENSION_SLOT_LIMIT:
                raise InputError(
                    f"symbol {name} has arity {arity} > {EXTENSION_SLOT_LIMIT}")
        init = object.__setattr__
        init(self, "symbols", symbols)
        init(self, "_hash", hash((symbols,)))

    def index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.symbols):
            if n == name:
                return i
        raise InputError(f"unknown symbol {name!r}")

    def arity(self, name: str) -> int:
        return self.symbols[self.index(name)][1]

    @property
    def max_arity(self) -> int:
        return max((a for _, a in self.symbols), default=0)


class FinStructure(Value):
    """A finite structure: size n and one tuple-set per signature symbol."""

    __slots__ = ("signature", "size", "tables", "_hash")

    def __init__(self, signature: Signature, size: int,
                 tables: tuple[frozenset[tuple[int, ...]], ...]):
        # Tuples are not checked here: the engine builds structures from
        # tables that are already valid, and structure() checks input atoms.
        if size < 0:
            raise InputError("structure size must be >= 0")
        if len(tables) != len(signature.symbols):
            raise InputError("one table per signature symbol required")
        init = object.__setattr__
        init(self, "signature", signature)
        init(self, "size", size)
        init(self, "tables", tables)
        init(self, "_hash", hash((signature, size, tables)))

    def table(self, name: str) -> frozenset[tuple[int, ...]]:
        return self.tables[self.signature.index(name)]


def structure(sig: Signature, size: int, atoms=()) -> FinStructure:
    """Build a structure from (symbol_name, tuple) atoms.

    The input boundary: raises InputError on an atom of the wrong arity or
    with a point outside range(size).
    """
    tables = [set() for _ in sig.symbols]
    for name, t in atoms:
        si = sig.index(name)
        t = tuple(t)
        arity = sig.symbols[si][1]
        if len(t) != arity:
            raise InputError(f"tuple {t} has wrong arity for {name}/{arity}")
        if any(not (0 <= v < size) for v in t):
            raise InputError(f"tuple {t} out of range for size {size}")
        tables[si].add(t)
    return FinStructure(sig, size, tuple(frozenset(t) for t in tables))


def empty_structure(sig: Signature) -> FinStructure:
    return structure(sig, 0)


@lru_cache(maxsize=None)
def _tuple_ranks(n: int, arity: int) -> dict[tuple[int, ...], int]:
    return {t: r for r, t in enumerate(product(range(n), repeat=arity))}


def encode_key(s: FinStructure) -> tuple[int, ...]:
    """Per-symbol integers whose tuple order equals bit-string order."""
    key = []
    for (_, arity), table in zip(s.signature.symbols, s.tables):
        m = s.size ** arity
        ranks = _tuple_ranks(s.size, arity)
        bits = 0
        for t in table:
            bits |= 1 << (m - 1 - ranks[t])
        key.append(bits)
    return tuple(key)


def sort_key(s: FinStructure) -> tuple:
    return (s.size, encode_key(s))


def apply_perm(s: FinStructure, perm) -> FinStructure:
    """Relabel: point i becomes perm[i]."""
    tables = tuple(
        frozenset(tuple(perm[v] for v in t) for t in table) for table in s.tables
    )
    return FinStructure(s.signature, s.size, tables)


def induced(s: FinStructure, subset) -> FinStructure:
    """Induced substructure on an ordered list of distinct indices."""
    subset = tuple(subset)
    if len(set(subset)) != len(subset):
        raise InputError(f"induced: indices must be distinct: {subset}")
    if any(not (0 <= v < s.size) for v in subset):
        raise InputError(f"induced: index out of range: {subset}")
    pos = {old: new for new, old in enumerate(subset)}
    keep = set(subset)
    tables = tuple(
        frozenset(tuple(pos[v] for v in t) for t in table if set(t) <= keep)
        for table in s.tables
    )
    return FinStructure(s.signature, len(subset), tables)


@lru_cache(maxsize=None)
def slots(sig: Signature, n: int, through: tuple[int, ...] = ()) -> tuple:
    """The (symbol, tuple) slots over range(n) whose tuple contains every
    point of `through`, symbol-major and tuple-lex; slot j is bit j of a
    slot mask."""
    return tuple((si, t) for si, (_, arity) in enumerate(sig.symbols)
                 for t in product(range(n), repeat=arity)
                 if all(v in t for v in through))


def slot_readers(slot_list) -> tuple:
    """(symbol, reader, 1 << j) for each (symbol, tuple) slot j: the reader
    maps a sequence of points to the slot's tuple with position v read as
    points[v]."""
    return tuple((si, itemgetter(*t) if len(t) > 1 else (lambda points, v=t[0]: (points[v],)),
                  1 << j) for j, (si, t) in enumerate(slot_list))


def slot_mask(readers, tables, points) -> int:
    """The slot mask of raw tables read at points: bit j set iff slot j of
    slot_readers, read at points, holds.  With the readers of slots(sig, n)
    it is the mask of the pattern the tables induce on the n points, built
    without an induced structure."""
    mask = 0
    for si, read, bit in readers:
        if read(points) in tables[si]:
            mask |= bit
    return mask


def embeds(p: FinStructure, s: FinStructure) -> bool:
    """Whether an injective map preserves and reflects every relation."""
    if p.signature != s.signature:
        raise InputError("embeds: signature mismatch")
    return find_embedding(p.signature, p.tables, p.size, s.tables, s.size) is not None


def find_embedding(sig: Signature, p_tables, n: int, s_tables, m: int,
                   pinned: tuple[int, ...] = ()) -> tuple[int, ...] | None:
    """An embedding of the pattern (p_tables on n points) into s_tables on m points.

    Both are raw per-symbol tuple sets over sig.  Pattern point i is sent
    to pinned[i] for i < len(pinned) (distinct points of the target); the
    other points are searched in increasing order.  Returns the images of
    the pattern points, or None if no such embedding exists.
    """
    if n > m:
        return None
    # the slots each pattern point i decides: those over 0..i through i
    checks = [slots(sig, i + 1, (i,)) for i in range(n)]
    fixed = len(pinned)
    assign = [-1] * n
    used = [False] * m

    def extend(i: int) -> bool:
        if i == n:
            return True
        for cand in (pinned[i],) if i < fixed else range(m):
            if used[cand]:
                continue
            assign[i] = cand
            for si, t in checks[i]:
                if (t in p_tables[si]) != (tuple([assign[v] for v in t]) in s_tables[si]):
                    break
            else:
                used[cand] = True
                if extend(i + 1):
                    return True
                used[cand] = False
        assign[i] = -1
        return False

    return tuple(assign) if extend(0) else None


@lru_cache(maxsize=1 << 18)
def canonical_form(s: FinStructure) -> FinStructure:
    """The relabelling with lexicographically least bit-encoding."""
    if s.size <= 1:
        return s
    return apply_perm(s, _least_labelling(s)[0])


def automorphism_generators(s: FinStructure) -> tuple[tuple[int, ...], ...]:
    """Automorphisms of s met by canonical_form's search, as point maps.

    They generate a subgroup of Aut(s), not always all of it; each g has
    apply_perm(s, g) == s.
    """
    if s.size <= 1:
        return ()
    return _least_labelling(s)[1]


@lru_cache(maxsize=1 << 18)
def _least_labelling(s: FinStructure) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """A labelling with least encoding, and the automorphisms the search met.

    The encoding is read as one integer, symbol-major and tuple-lex, so the
    least encoding is the least integer.  The search hands out the labels
    0, 1, .. in turn; a node's known bits are those of the tuples whose
    points are all labelled.  Its lower bound adds, for each block of tuples
    that share a labelled prefix and end in an unlabelled point, that many
    ones in the block's least significant places; every other unknown bit
    counts as 0.  Children are tried in increasing bound order, and a child
    whose bound exceeds the best complete encoding is cut.  A leaf equal to
    the best one yields an automorphism; a child in the orbit of an explored
    sibling under the automorphisms fixing the labelled points is skipped,
    since its subtree holds the same encodings.  Any least labelling gives
    the same structure, so the result is the brute-force lex-least one.
    """
    n = s.size
    # incident[v]: (prefix, last point, high, v in prefix) per tuple on v,
    # high being the bit of its symbol's rank 0.  A tuple is pending while
    # its prefix is labelled and its last point is not; pending[b] counts
    # them per block, b being the bit of the block's tuple ending in label 0.
    incident: list[list] = [[] for _ in range(n)]
    pending: dict[int, int] = {}
    top = sum(n ** arity for _, arity in s.signature.symbols)
    for (_, arity), table in zip(s.signature.symbols, s.tables):
        top -= n ** arity
        high = top + n ** arity - 1
        for t in table:
            prefix = t[:-1]
            if not prefix:
                pending[high] = pending.get(high, 0) + 1
            for v in set(t):
                incident[v].append((prefix, t[-1], high, v in prefix))
    label = [-1] * n
    best: list = [None, None]  # least encoding so far, its labelling
    autos: list[tuple[int, ...]] = []

    # floor: every block's pending ones in its least significant places
    def search(j: int, free: list, known: int, floor: int) -> None:
        if j == n:
            if best[0] is None or known < best[0]:
                best[0], best[1] = known, tuple(label)
            elif known == best[0]:
                inv = [0] * n
                for p, lp in enumerate(best[1]):
                    inv[lp] = p
                autos.append(tuple(inv[lp] for lp in label))
            return
        children = []
        for v in free:
            label[v] = j
            bits, low, delta = known, floor, {}
            for prefix, last, high, v_in_prefix in incident[v]:
                r = 0
                for u in prefix:
                    lu = label[u]
                    if lu < 0:
                        break
                    r = r * n + lu
                else:
                    b = high - r * n
                    if label[last] >= 0:
                        bits |= 1 << (b - label[last])
                        if not v_in_prefix:  # it was pending
                            delta[b] = delta.get(b, 0) - 1
                    else:
                        delta[b] = delta.get(b, 0) + 1
            label[v] = -1
            for b, d in delta.items():
                c = pending.get(b, 0)
                low += ((1 << (c + d)) - (1 << c)) << (b - n + 1)
            children.append((bits + low, v, bits, low, delta))
        children.sort(key=lambda c: c[:2])
        done: list[int] = []
        for key, v, bits, low, delta in children:
            if best[0] is not None and key > best[0]:
                break
            if done and autos and _in_explored_orbit(v, done, autos, label):
                continue
            label[v] = j
            for b, d in delta.items():
                pending[b] = pending.get(b, 0) + d
            search(j + 1, [u for u in free if u != v], bits, low)
            for b, d in delta.items():
                pending[b] -= d
            label[v] = -1
            done.append(v)

    search(0, list(range(n)), 0,
           sum(((1 << c) - 1) << (b - n + 1) for b, c in pending.items()))
    return best[1], tuple(autos)


def _in_explored_orbit(v: int, done: list, autos: list, label: list) -> bool:
    """v's orbit under the automorphisms fixing every labelled point meets done."""
    gens = [g for g in autos if all(g[p] == p for p, lp in enumerate(label) if lp >= 0)]
    orbit, stack = {v}, [v]
    while stack:
        p = stack.pop()
        for g in gens:
            if g[p] not in orbit:
                orbit.add(g[p])
                stack.append(g[p])
    return not orbit.isdisjoint(done)


def extension_slots(sig: Signature, new: int) -> tuple:
    """The (symbol, tuple) slots a new point `new` adds, in slot-bit order."""
    # counted before any slot is built
    count = sum((new + 1) ** arity - new ** arity for _, arity in sig.symbols)
    if count > EXTENSION_SLOT_LIMIT:
        raise InputError(
            f"relation space too large: a point added to {new} points has "
            f"{count} atom slots, more than {EXTENSION_SLOT_LIMIT}")
    return slots(sig, new + 1, (new,))


@lru_cache(maxsize=None)
def _occurrences(si: int, t: tuple[int, ...]) -> tuple:
    """(point, (symbol, equality pattern, first position)) per distinct point of t."""
    pattern = tuple(t.index(v) for v in t)
    return tuple((v, (si, pattern, p)) for p, v in enumerate(t) if pattern[p] == p)


def _profiles(tables, n: int) -> list:
    """An isomorphism-invariant profile per point of raw tables on n points.

    A point's profile counts the tuples it occurs in, per symbol, equality
    pattern of the tuple and first position of the point in it.  It is the
    sorted tuple of (key, count) items, and profiles compare as such.
    """
    counts: list[dict] = [{} for _ in range(n)]
    for si, table in enumerate(tables):
        for t in table:
            for v, key in _occurrences(si, t):
                c = counts[v]
                c[key] = c.get(key, 0) + 1
    return [tuple(sorted(c.items())) for c in counts]


def augment(bases, extensions) -> tuple[FinStructure, ...]:
    """One canonical representative per isomorphism class of one-point extensions.

    bases holds a representative of every isomorphism class of size n - 1
    of a hereditary class, and extensions(base) every labelled one-point
    extension of base in the class (new point n - 1).  An automorphism of
    base that fixes the new point maps each extension to an isomorphic one
    and permutes the new point's slots, so only the first extension of each
    orbit of slot masks under base's automorphism generators is looked at;
    any set of generators keeps this exact.  Of those, only an extension
    whose new point has the greatest profile goes to canonical_form.
    Profiles are isomorphism-invariant, so every member X of size n has a
    point m of greatest profile; X - m is in the class by heredity, some
    base is isomorphic to it, and that base's extension at m is isomorphic
    to X and passes.  The canonical forms are deduplicated and sorted by
    encoding.
    """
    seen = set()
    for base in bases:
        moves = _slot_moves(base)
        readers = slot_readers(extension_slots(base.signature, base.size)) if moves else ()
        explored: set[int] = set()
        for ext in extensions(base):
            if moves:
                mask = slot_mask(readers, ext.tables, range(ext.size))
                if mask in explored:
                    continue
                _add_orbit(mask, moves, explored)
            profiles = _profiles(ext.tables, ext.size)
            if profiles[-1] == max(profiles):
                seen.add(canonical_form(ext))
    return tuple(sorted(seen, key=encode_key))


def _slot_moves(base: FinStructure) -> tuple[tuple[int, ...], ...]:
    """Each automorphism generator of base, extended by fixing the new point
    base.size, as a permutation of the indices of extension_slots."""
    gens = automorphism_generators(base)
    if not gens:
        return ()
    new = base.size
    added = extension_slots(base.signature, new)
    index = {slot: j for j, slot in enumerate(added)}
    return tuple(
        tuple(index[si, tuple(v if v == new else g[v] for v in t)] for si, t in added)
        for g in gens)


def _add_orbit(mask: int, moves, explored: set[int]) -> None:
    """Add the orbit of a slot mask under the slot permutations to explored."""
    explored.add(mask)
    stack = [mask]
    while stack:
        m = stack.pop()
        for move in moves:
            image = 0
            for j, to in enumerate(move):
                if m >> j & 1:
                    image |= 1 << to
            if image not in explored:
                explored.add(image)
                stack.append(image)


# -- structure literals -------------------------------------------------------

def render_literal(s: FinStructure) -> str:
    """`size=<n>: R(i,j) ...` with atoms in (symbol, tuple-lex) order."""
    atoms = []
    for (name, _), table in zip(s.signature.symbols, s.tables):
        for t in sorted(table):
            atoms.append(f"{name}({','.join(str(v) for v in t)})")
    body = " " + " ".join(atoms) if atoms else ""
    return f"size={s.size}:{body}"


def parse_literal(sig: Signature, text: str) -> FinStructure:
    """Parse the structure literal syntax; raises InputError on bad input."""
    text = text.strip()
    if not text.startswith("size="):
        raise InputError(f"structure literal must start with 'size=': {text!r}")
    head, _, rest = text.partition(":")
    try:
        size = int(head[len("size="):])
    except ValueError:
        raise InputError(f"bad size in structure literal: {head!r}")
    atoms = []
    for token in rest.split():
        if "(" not in token or not token.endswith(")"):
            raise InputError(f"bad atom {token!r} in structure literal")
        name, _, args = token[:-1].partition("(")
        try:
            t = tuple(int(x) for x in args.split(",")) if args else ()
        except ValueError:
            raise InputError(f"bad atom arguments in {token!r}")
        if len(t) != sig.arity(name):
            raise InputError(f"atom {token!r} has wrong arity for {name}")
        atoms.append((name, t))
    return structure(sig, size, atoms)


# -- quantifier-free formulas --------------------------------------------------

class Atom(Value):
    __slots__ = ("symbol", "vars")  # str, tuple[int, ...]


class Eq(Value):
    __slots__ = ("left", "right")  # int, int


class Not(Value):
    __slots__ = ("inner",)  # QfFormula


class And(Value):
    __slots__ = ("parts",)  # tuple[QfFormula, ...]


class Or(Value):
    __slots__ = ("parts",)  # tuple[QfFormula, ...]


QfFormula = Atom | Eq | Not | And | Or


def formula_vars(phi: QfFormula) -> set[int]:
    if isinstance(phi, Atom):
        return set(phi.vars)
    if isinstance(phi, Eq):
        return {phi.left, phi.right}
    if isinstance(phi, Not):
        return formula_vars(phi.inner)
    return set().union(*(formula_vars(p) for p in phi.parts)) if phi.parts else set()


def validate_formula(phi: QfFormula, sig: Signature, nvars: int) -> None:
    if isinstance(phi, Atom):
        if sig.arity(phi.symbol) != len(phi.vars):
            raise InputError(f"atom {phi.symbol} used with {len(phi.vars)} arguments")
    bad = [v for v in formula_vars(phi) if not (0 <= v < nvars)]
    if bad:
        raise InputError(f"formula uses variables {bad} outside x0..x{nvars - 1}")


def eval_qf(phi: QfFormula, s: FinStructure, points) -> bool:
    """Standard quantifier-free satisfaction; points assigns x_i -> points[i]."""
    points = tuple(points)
    if any(not (0 <= v < s.size) for v in points):
        raise InputError(f"eval_qf: point out of range: {points}")
    bad = [v for v in formula_vars(phi) if v >= len(points)]
    if bad:
        raise InputError(f"eval_qf: tuple too short for variables {bad}")
    return _eval(phi, s, points)


def _eval(phi, s, points):
    if isinstance(phi, Atom):
        return tuple(points[v] for v in phi.vars) in s.table(phi.symbol)
    if isinstance(phi, Eq):
        return points[phi.left] == points[phi.right]
    if isinstance(phi, Not):
        return not _eval(phi.inner, s, points)
    if isinstance(phi, And):
        return all(_eval(p, s, points) for p in phi.parts)
    if isinstance(phi, Or):
        return any(_eval(p, s, points) for p in phi.parts)
    raise InputError(f"not a formula: {phi!r}")


def render_formula(phi: QfFormula) -> str:
    return _render(phi, 0)


def _render(phi, level):
    # level: 0 = or-context, 1 = and-context, 2 = atom-context
    if isinstance(phi, Atom):
        return f"{phi.symbol}({','.join(f'x{v}' for v in phi.vars)})"
    if isinstance(phi, Eq):
        return f"x{phi.left}=x{phi.right}"
    if isinstance(phi, Not):
        return "!" + _wrap(_render(phi.inner, 2), not isinstance(phi.inner, (Atom, Eq, Not)))
    if isinstance(phi, And):
        body = " & ".join(_render(p, 1) for p in phi.parts)
        return _wrap(body, level >= 2)
    if isinstance(phi, Or):
        body = " | ".join(_render(p, 0) for p in phi.parts)
        return _wrap(body, level >= 1)
    raise InputError(f"not a formula: {phi!r}")


def _wrap(text, needed):
    return f"({text})" if needed else text
