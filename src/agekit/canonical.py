"""Behaviours of canonical functions and polymorphisms between bounded classes.

A behaviour of arity m is a total map from m-tuples of k-types of the
source class to k-types of the target class.  Arity 1 stands in for a
canonical function, arity m > 1 with source == target for a canonical
polymorphism: the function itself lives on an infinite domain and is never
materialized.  Candidate tables are searched over domains kept
arc-consistent after every choice, which leaves only compatible tables;
callers keep those that pass the bounded realizability check, and the
randomized extension probe cross-checks that bound on concrete age members.
Both read an image's value rows by one packing rule and judge them through
one bounded verdict cache, keyed by the rows, by one routine,
_image_failure, which grows the image point by point and searches only
bounds through each new image point; no image is built whole.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, product
from operator import getitem

from .ages import BoundedClass, _in_age_through, enumerate_age
from .errors import InputError
from .ktypes import (
    degenerate_pairs,
    enumerate_types,
    first_m_index_map,
    monoid_generators,
    pad_index_map,
    read_type_indices,
    restrict_index_map,
    serialization_order,
    serialized_types,
    symbol_holds,
)
from .structures import FinStructure, induced, slot_mask, slot_readers, slots
from .value import Value


def _flat_rows(values, base: int, arity: int) -> list[int]:
    """Flattened index of (values[a1], .., values[am]) for every argument
    tuple (a1, .., am) in product order, first argument most significant
    (arity >= 1)."""
    out = list(values)
    for _ in range(arity - 1):
        out = [f * base + v for f in out for v in values]
    return out


class Behaviour(Value):
    """table[i] is the target k-type index assigned to the i-th tuple of
    `arity` source k-types, flattened with the first argument most significant."""

    __slots__ = ("source", "target", "k", "table", "arity", "_hash", "_levels")

    def __init__(self, source: BoundedClass, target: BoundedClass, k: int,
                 table: tuple[int, ...], arity: int = 1):
        if k < 2:  # the level-2 types of a row say which points collapse
            raise InputError(f"behaviour level must be >= 2, got {k}")
        nrows = len(enumerate_types(source, k)) ** arity
        if len(table) != nrows:
            raise InputError(f"behaviour table must have {nrows} rows")
        nt = len(enumerate_types(target, k))
        if table and (min(table) < 0 or max(table) >= nt):
            raise InputError("behaviour table value out of range")
        init = object.__setattr__
        init(self, "source", source)
        init(self, "target", target)
        init(self, "k", k)
        init(self, "table", table)
        init(self, "arity", arity)
        init(self, "_hash", hash((source, target, k, table, arity)))
        init(self, "_levels", {k: table})

    def level_map(self, m: int) -> tuple[int, ...]:
        """The induced table on flattened tuples of m-types (m <= k), via the
        padding convention; computed once per level."""
        if m > self.k:
            raise InputError("behaviour level too small for this arity")
        if m not in self._levels:
            pad = pad_index_map(self.source, m, self.k)
            back = first_m_index_map(self.target, self.k, m)
            nk = len(enumerate_types(self.source, self.k))
            self._levels[m] = tuple(
                back[self.table[f]] for f in _flat_rows(pad, nk, self.arity))
        return self._levels[m]

    def value(self, args, level: int | None = None) -> int:
        """Target type index on a tuple of source type indices at the level."""
        level = self.k if level is None else level
        nm = len(enumerate_types(self.source, level))
        flat = 0
        for a in args:
            flat = flat * nm + a
        return self.level_map(level)[flat]

    def is_bijective(self) -> bool:
        tgt = enumerate_types(self.target, self.k)
        return len(set(self.table)) == len(self.table) == len(tgt)

    def image_types(self) -> int:
        """The bitmask of the target type indices the table hits."""
        mask = 0
        for v in set(self.table):
            mask |= 1 << v
        return mask


def serialize_behaviour(xi: Behaviour) -> str:
    src = serialized_types(xi.source, xi.k)
    tgt = serialized_types(xi.target, xi.k)
    args = product(range(len(src)), repeat=xi.arity)
    return "\n".join(sorted(
        f"{' | '.join(src[a] for a in row)} -> {tgt[v]}"
        for row, v in zip(args, xi.table)))


def _search_order(source: BoundedClass, target: BoundedClass, k: int,
                  arity: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The rows of a table in the order of their source serialization, and
    the rank of each target type in the order of its serialization."""
    rows = _flat_rows(serialization_order(source, k), len(enumerate_types(source, k)), arity)
    rank = [0] * len(enumerate_types(target, k))
    for r, v in enumerate(serialization_order(target, k)):
        rank[v] = r
    return tuple(rows), tuple(rank)


def identity_behaviour(k: BoundedClass, level: int) -> Behaviour:
    n = len(enumerate_types(k, level))
    return Behaviour(k, k, level, tuple(range(n)))


def is_coherent(xi: Behaviour) -> bool:
    """Pairwise collapsing inside every image type is an equivalence on its positions.

    Every compatible table is coherent (see enumerate_behaviours), so the
    row search does not call this; it is the reference its tables are
    checked against."""
    k = xi.k
    lvl2 = xi.level_map(2)
    n2 = len(enumerate_types(xi.source, 2))
    degenerate = degenerate_pairs(xi.target)
    # column (i, j): does the value collapse positions i and j, per argument tuple
    columns = [
        [degenerate[lvl2[f]] for f in _flat_rows(
            restrict_index_map(xi.source, k, (i, j)), n2, xi.arity)]
        for i in range(k) for j in range(k)
    ]
    return not any(
        _equivalence_failure([flags[i * k:(i + 1) * k] for i in range(k)])
        for flags in set(zip(*columns)))


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


def _value_row(xi: Behaviour, m: int, type_rows) -> list[int]:
    """The value on each m-tuple of points, given per argument the m-type
    index of every m-tuple in tuple-lex order: one lookup per tuple."""
    nm = len(enumerate_types(xi.source, m))
    flat = type_rows[0]
    for row in type_rows[1:]:
        flat = [f * nm + a for f, a in zip(flat, row)]
    lvl = xi.level_map(m)
    return [lvl[f] for f in flat]


def _equivalence_failure(collapse) -> str | None:
    """The first law the square collapse matrix breaks, or None when it is
    an equivalence relation."""
    n = len(collapse)
    for x in range(n):
        if not collapse[x][x]:
            return "reflexive pair does not collapse"
        for y in range(n):
            if collapse[x][y] != collapse[y][x]:
                return "collapse relation not symmetric"
            for z in range(n):
                if collapse[x][y] and collapse[y][z] and not collapse[x][z]:
                    return "collapse relation not transitive"
    return None


@lru_cache(maxsize=1 << 12)
def _through(x: int, arity: int, n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Every arity-tuple over range(x + 1) that contains x, in tuple-lex
    order, with its flat index among the arity-tuples over range(n)."""
    out = []
    for t in product(range(x + 1), repeat=arity):
        if x in t:
            flat = 0
            for v in t:
                flat = flat * n + v
            out.append((t, flat))
    return tuple(out)


def _image_failure(target: BoundedClass, n: int, row) -> str | None:
    """The first way the images of the prefixes range(1), .., range(n) of n
    points fail to be coherent and inside the target age, or None.

    ``row(m)`` lists the target m-type index of every m-tuple over range(n),
    in tuple-lex order, as bytes or a sequence; it is asked once for level
    2 when n > 1 and once for each symbol's arity.  The image of an induced
    sub-member is the induced sub-image (see is_realizable), so the prefix
    images are nested, with image points numbered by first preimage, and
    the image on all n points passes exactly when every prefix image does.
    The image is grown one point x at a time from the previous one, which
    passed, and only tuples through x are read.  x either joins exactly one
    class (its collapse row is that class) or opens a new class; any other
    collapse row breaks a law, which _equivalence_failure names on the
    whole prefix, as the full prefix image would.  Atoms through x must
    agree with the image (or, for a new class, with each other), and a new
    class lies in the target age iff no bound embeds through it, by
    heredity.  A one-point prefix reads no pair, so point 0's reflexive
    pair is first judged at size 2.
    """
    degenerate = degenerate_pairs(target)
    pairs = row(2) if n > 1 else b""
    levels = {arity: row(arity) for arity in {a for _, a in target.signature.symbols}}
    symbols = [(si, arity, symbol_holds(target, si), levels[arity])
               for si, (_, arity) in enumerate(target.signature.symbols)]
    image: list[set] = [set() for _ in symbols]  # tuples over the classes
    class_of: list[int] = []
    members: list[list[int]] = []  # the points of each class
    for x in range(n):
        size = x + 1
        if x == 0:
            c = 0
        else:
            collapses = [degenerate[pairs[x * n + y]] for y in range(size)]
            joined = [y for y in range(x) if collapses[y]]
            c = class_of[joined[0]] if joined else len(members)
            if (not collapses[x] or (x == 1 and not degenerate[pairs[0]])
                    or any(degenerate[pairs[y * n + x]] != collapses[y] for y in range(x))
                    or (joined and joined != members[c])):
                collapse = [[degenerate[pairs[a * n + b]] for b in range(size)]
                            for a in range(size)]
                return f"incoherent image at size {size}: {_equivalence_failure(collapse)}"
        class_of.append(c)
        opened = c == len(members)
        if opened:
            members.append([x])
        else:
            members[c].append(x)
        if len(members) == size:
            # every point so far has its own class, numbered as the point:
            # each tuple through x is its own class tuple, read once
            for si, arity, holds, values in symbols:
                image[si].update(t for t, flat in _through(x, arity, n) if holds[values[flat]])
        else:
            seen: dict[tuple, bool] = {}  # (symbol, class tuple) -> atom, for a new class
            for si, arity, holds, values in symbols:
                table = image[si]
                for t, flat in _through(x, arity, n):
                    h = holds[values[flat]]
                    ct = tuple([class_of[v] for v in t])
                    known = seen.get((si, ct)) if opened else ct in table
                    if known is not None and known != h:
                        return (f"incoherent image at size {size}: "
                                "relation atoms disagree across representatives")
                    if opened:
                        seen[si, ct] = h
            for (si, ct), h in seen.items():
                if h:
                    image[si].add(ct)
        if opened:
            if not _in_age_through(target, image, len(members), (c,)):
                return f"image outside target age at size {size}"
    return None


def default_realize_cap(target: BoundedClass, k: int) -> int:
    """Bounded realizability cap of a level-k behaviour into the target: 2k
    to expose pairwise-collapse interaction, plus the target's bound sizes
    and arities.

    This is the cap reports and certificates record.  For arity 1,
    is_realizable stops at the local bound max(3, r + 1, b) when that is
    smaller; its lemma shows the check to this cap is then implied.
    """
    return max(2 * k, target.max_bound_size, target.signature.max_arity)


def effective_realize_cap(cap: int | None, target: BoundedClass, k: int) -> int:
    """The realizability cap in effect: cap (--realize-cap), else the default."""
    return cap if cap is not None else default_realize_cap(target, k)


def local_realize_bound(target: BoundedClass) -> int:
    """max(3, r + 1, b), with r the target's largest arity and b its largest
    bound: an arity-1 image that fails on some member fails on a sub-member
    of at most this many points (see is_realizable)."""
    return max(3, target.signature.max_arity + 1, target.max_bound_size)


def is_realizable(xi: Behaviour, cap: int | None = None) -> bool:
    """Bounded check: every tuple of small source age members on one index
    set must map into the target age.

    The image of a member tuple is a function of the value rows it reads:
    level 2 when points can collapse (n > 1) or a polymorphism's reflexive
    pair is checked (arity > 1), and each target symbol's arity.  Those rows
    are computed once per member tuple and key the verdict cache
    (_image_verdict, shared with the probe), and the verdict grows the
    image from them point by point (_image_failure).  The rows' entries on
    the tuples over a prefix of the points give the induced sub-image (as
    in the lemma below), so the image passes exactly when the image of
    every prefix does; each step reads only the tuples and the bound
    embeddings through its new point.

    For arity 1 the check stops at min(cap, local_realize_bound(target)),
    with the same verdict as the check to cap.  Lemma: if the image of a
    member A fails, so does the image of an induced sub-member A|S with
    |S| <= max(3, r + 1, b).  A tuple has the same type in A as in A|S, so
    the collapse relation and the atoms read on S are those read on A: the
    image of A|S is the induced sub-image.  A|S lies in the age, and its
    canonical representative has an isomorphic image, so the check at size
    |S| sees the failure.  A failure is one of three kinds.
      - The collapse is not an equivalence: the law it breaks names at most
        3 points (pad a reflexivity failure to 2: a one-point image reads
        no pair).
      - Atoms disagree across representatives: tuples t and t' of a symbol
        of arity m <= r have the same class tuple but differ on the atom.
        Walk from t to t', replacing one coordinate at a time by one of the
        same class; some single step changes the atom, and its two tuples
        use at most r + 1 points.
      - The image is coherent but a bound embeds into it: one preimage per
        point of the bound's image is at most b points.
    Polymorphisms (arity > 1) keep the full cap: they are checked on tuples
    of canonical age representatives over one index set, and restricting
    such a tuple to S need not give a tuple of representatives, so the
    smaller checks do not cover the larger ones.

    Refuters first.  The member tuples that refuted an earlier table of the
    same (source, target, arity) are tried before the ordered scan, most
    recent first, those of size at most the cap in use only.  The verdict
    is the conjunction over every member tuple of size at most the cap, so
    the order in which its terms are read cannot change it; a refuter
    larger than the cap is no term of it and is skipped.  Across the tables
    of one search few tuples refute almost all of them; the REFUTERS_KEPT
    most recently useful are kept, so a table that none refutes pays for at most
    that many before the scan.

    Packed rows.  Where the flat indices at level m (nm ** arity of them,
    nm the source's m-types) and the target m-types both fit in a byte, a
    member tuple's value row is the sum of its members' packed columns
    (_member_columns, once per (source, n, m, arity), shared by every
    table) as bytes, translated through the table's level map laid out as
    256 bytes (_packed_level_map, once per call).  Otherwise _value_row
    combines it from the members' type index rows (_member_types, once per
    (source, n, m)).  The probe reads its rows by the same rule, so a row
    it meets has the key realizability gives it.
    """
    n_cap = effective_realize_cap(cap, xi.target, xi.k)
    poly = xi.arity > 1
    if not poly:
        n_cap = min(n_cap, local_realize_bound(xi.target))
    rows = _member_rows(xi)
    refuters = _refuters(xi.source, xi.target, xi.arity)
    for at, (n, idx) in enumerate(refuters):
        if n <= n_cap and _image_verdict(xi.target, n, poly, rows(n, idx)) is not None:
            refuters.insert(0, refuters.pop(at))
            return False
    for n in range(1, n_cap + 1):
        for idx in product(range(len(enumerate_age(xi.source, n))), repeat=xi.arity):
            if _image_verdict(xi.target, n, poly, rows(n, idx)) is not None:
                refuters.insert(0, (n, idx))
                del refuters[REFUTERS_KEPT:]
                return False
    return True


# refuters kept per (source, target, arity), the least recently useful
# dropped; the catalog searches learn at most 5
REFUTERS_KEPT = 8


@lru_cache(maxsize=None)
def _refuters(source: BoundedClass, target: BoundedClass,
              arity: int) -> list[tuple[int, tuple[int, ...]]]:
    """The member tuples that refuted a table of the arity from source to
    target, as (n, indices into enumerate_age(source, n)), most recent
    first, at most REFUTERS_KEPT of them; is_realizable keeps the list."""
    return []


@lru_cache(maxsize=None)
def _member_types(source: BoundedClass, n: int, m: int) -> tuple[tuple[int, ...], ...]:
    """read_type_indices at level m of each member of enumerate_age(source, n)."""
    return tuple(read_type_indices(source, s, m) for s in enumerate_age(source, n))


@lru_cache(maxsize=None)
def _member_columns(source: BoundedClass, n: int, m: int, arity: int) -> tuple:
    """Per argument position i, per member of enumerate_age(source, n), one
    int whose big-endian bytes are the member's m-type indices times
    nm ** (arity - 1 - i), nm the number of m-types.  The sum of a member
    tuple's ints has its flat indices (_flat_rows order) as bytes, when
    these are below 256: then no byte carries, in the sum or the scaling."""
    nm = len(enumerate_types(source, m))
    packed = [int.from_bytes(bytes(read_type_indices(source, s, m)), "big")
              for s in enumerate_age(source, n)]
    return tuple(tuple(nm ** (arity - 1 - i) * p for p in packed) for i in range(arity))


def _packed_level_map(xi: Behaviour, m: int) -> bytes | None:
    """xi's level map at m laid out as 256 bytes, the bytes.translate table
    that sends a packed row of flat indices to its value row; None unless
    the flat indices at level m (nm ** arity of them, nm the source's
    m-types) and the target m-types both fit in a byte."""
    if (len(enumerate_types(xi.source, m)) ** xi.arity <= 256
            and len(enumerate_types(xi.target, m)) <= 256):
        return bytes(xi.level_map(m)).ljust(256, b"\0")
    return None


def _read_levels(xi: Behaviour) -> tuple[list[int], list[int]]:
    """The levels an image of xi reads, on one point and on more: each
    target symbol's arity, plus level 2 past one point (which a
    polymorphism reads on one point too, for its reflexive pair)."""
    arities = {a for _, a in xi.target.signature.symbols}
    return sorted(arities | {2} if xi.arity > 1 else arities), sorted(arities | {2})


def _member_rows(xi: Behaviour):
    """rows(n, idx): the key of _image_verdict, (level, value row) per level
    the image reads, for the member tuple at the indices idx into
    enumerate_age(source, n): bytes on the packed path, else a tuple."""
    levels = _read_levels(xi)
    tables = {m: _packed_level_map(xi, m) for m in levels[1]}
    plans: dict[int, list] = {}  # n -> (level, table, member data, row length) per level read

    def rows(n: int, idx: tuple[int, ...]) -> tuple:
        if n not in plans:
            plans[n] = [(m, tables[m], _member_columns(xi.source, n, m, xi.arity), n ** m)
                        if tables[m] is not None
                        else (m, None, _member_types(xi.source, n, m), 0)
                        for m in levels[n > 1]]
        key = []
        for m, table, data, size in plans[n]:
            if table is None:  # the list path
                key.append((m, tuple(_value_row(xi, m, [data[i] for i in idx]))))
                continue
            flat = sum(map(getitem, data, idx))
            key.append((m, flat.to_bytes(size, "big").translate(table)))
        return tuple(key)

    return rows


@lru_cache(maxsize=1 << 14)
def _image_verdict(target: BoundedClass, n: int, poly: bool, rows: tuple) -> str | None:
    """How the image on n points with these (level, value row) pairs fails
    to be coherent and inside the target age (_image_failure), or None when
    it passes; a polymorphism's (poly) one-point image also needs its
    reflexive pair to collapse.  The verdict cache of is_realizable and the
    probe: a value row met twice is judged once."""
    by_level = dict(rows)
    if poly and n == 1 and not degenerate_pairs(target)[by_level[2][0]]:
        return "incoherent image at size 1: reflexive pair does not collapse"
    return _image_failure(target, n, by_level.__getitem__)


def _mask_of(values, size: int) -> int:
    """The bitmask of a set of values below size."""
    bits = bytearray(b"0" * size)
    for v in values:
        bits[v] = 49  # "1"
    bits.reverse()
    return int(bits, 2)


def _mask_values(mask: int, size: int) -> list[int]:
    """The values of a bitmask below size, in increasing order."""
    return [v for v, b in enumerate(format(mask, f"0{size}b")[::-1]) if b == "1"]


@lru_cache(maxsize=None)
def _arcs(source: BoundedClass, target: BoundedClass, k: int, arity: int):
    """The compatibility constraints of tables of the arity at level k, one
    per monoid generator g and row p: table[p∘g] == rt[table[p]], with p∘g
    the row g sends p to (g applied to every argument) and rt the target's
    restriction map of g.

    Returns the numbers of values and rows, and per generator the row map,
    rt, for each row the rows whose constraint reads it (itself and the
    rows sent to it), and the images and preimages under rt of the bitmask
    domains met so far.
    """
    nk = len(enumerate_types(source, k))
    nrows = nk ** arity
    gens = []
    for g in monoid_generators(k):
        rows = _flat_rows(restrict_index_map(source, k, g), nk, arity)
        reads = [[p] for p in range(nrows)]
        for p, j in enumerate(rows):
            if j != p:
                reads[j].append(p)
        gens.append((rows, restrict_index_map(target, k, g), reads, {}, {}))
    return len(enumerate_types(target, k)), nrows, tuple(gens)


def _make_consistent(arcs, dom: list[int], rows) -> bool:
    """Narrow the nonempty bitmask domains in place to the greatest
    arc-consistent ones below them (AC-3), revising first the constraints
    that read the given rows; False when some domain empties.

    Revising the constraint of g at row p keeps the values of row j = p∘g
    that rt takes on row p's domain, then the values of row p that rt sends
    into row j's; a row whose domain shrinks goes back on the work stack.
    The domains must be arc-consistent already at every constraint that
    reads no given row.
    """
    nvals, nrows, gens = arcs
    stack = list(rows)
    queued = bytearray(nrows)
    for row in stack:
        queued[row] = 1
    while stack:
        row = stack.pop()
        queued[row] = 0
        for row_map, rt, reads, images, preimages in gens:
            for p in reads[row]:
                j = row_map[p]
                dp = dom[p]
                img = images.get(dp)
                if img is None:
                    img = images[dp] = _mask_of(
                        [rt[v] for v in _mask_values(dp, nvals)], nvals)
                dj = dom[j] & img
                if dj != dom[j]:
                    if not dj:
                        return False
                    dom[j] = dj
                    if not queued[j]:
                        queued[j] = 1
                        stack.append(j)
                pre = preimages.get(dj)
                if pre is None:
                    pre = preimages[dj] = _mask_of(
                        [v for v, w in enumerate(rt) if dj >> w & 1], nvals)
                # dj is nonempty and inside rt's image of dp: so is dp & pre.
                # When j == p this may widen dom[p] back past dj, but never
                # past dp, and p is queued again either way
                if dp & pre != dp:
                    dom[p] = dp & pre
                    if not queued[p]:
                        queued[p] = 1
                        stack.append(p)
    return True


def _propagate_domains(source: BoundedClass, target: BoundedClass, k: int,
                       arity: int, pins: dict[int, int]) -> list[int] | None:
    """Arc consistency over the generators' constraints, from per-row pins.

    A table is compatible when it commutes with restriction along every
    self-map σ of range(k): D[p∘σ] == rt_σ(D[p]) for singleton domains.
    Revising a constraint leaves the domains unchanged exactly when D[p∘g]
    == rt_g(D[p]), and those equalities compose as the restriction maps
    do: if they hold for σ at row p and for g at row p∘σ, they hold for
    σ∘g at row p.  The three monoid_generators generate every σ, so
    domains that their constraints leave unchanged are left unchanged by
    every σ's, and the greatest such domains below the pins are the same
    for both sets of constraints; with singleton domains, they are the
    compatible tables.

    Pins and domains are bitmasks of values, bit v for value v.  Sound:
    every compatible table respecting the pins stays inside the returned
    per-row domains.  Returns None when some domain empties.
    """
    arcs = _arcs(source, target, k, arity)
    nvals, nrows, _ = arcs
    dom = [(1 << nvals) - 1] * nrows
    for row, vals in pins.items():
        dom[row] &= vals
    if not all(dom) or not _make_consistent(arcs, dom, range(nrows)):
        return None
    return dom


def enumerate_behaviours(source: BoundedClass, target: BoundedClass, k: int,
                         arity: int = 1,
                         domains: list[int] | None = None) -> tuple[Behaviour, ...]:
    """Every compatible (hence coherent) behaviour of the arity at level k,
    inside the given per-row bitmask domains if any, in the order of
    serialize_behaviour.  The domains must be arc-consistent, as
    _propagate_domains returns them; realizability is the caller's filter.

    A depth-first search over arc-consistent bitmask domains, on an
    explicit stack of (domains, position, value) branches.  It branches on
    the first row, in the rows' source-serialization order, with more than
    one value, trying its values in ascending target-serialization order,
    and makes the domains arc-consistent again from that row
    (_make_consistent), dropping the branch when one empties.  When every
    domain is a singleton the table is compatible (see _propagate_domains).

    Lemma (order): the tables come out sorted by serialize_behaviour.  A
    type serialization has its only "]" at its end (symbol names are
    identifiers), so none is a proper prefix of another, and two strings of
    serializations joined by fixed separators compare as the first
    serializations where they differ.  The lines of serialize_behaviour are
    therefore sorted by their rows' source serializations alone, in a row
    order shared by every table, and two tables' strings compare at the
    first row, in that order, whose values differ, as the values'
    serializations do.  At a branch every earlier row is a singleton, the
    same for all sibling branches, so the siblings' tables first differ at
    the branching row, and their subtrees come out in the order of its
    values.

    Lemma (coherence): a compatible table is coherent (is_coherent).  Take
    a row (p_1, .., p_m), positions i, j, and sigma = (i, j, j, .., j).
    is_coherent reads the level-2 value of the row restricted to (i, j),
    which is the table's value on that restriction padded back to level k
    by repeating its last position: the row restricted along sigma,
    argument by argument.  Compatibility makes that value the restriction
    along sigma of the value v of the row itself, so positions i and j
    collapse iff v identifies them.  The collapse relation of the row is
    thus that of the single k-type v, an equivalence.
    """
    if k < max(2, source.signature.max_arity, target.signature.max_arity):
        raise InputError("enumerate_behaviours: k must be >= 2 and no signature arity "
                         "above it")
    arcs = _arcs(source, target, k, arity)
    nvals = arcs[0]
    rows, rank = _search_order(source, target, k, arity)
    out = []
    stack = []

    def expand(dom: list[int], start: int):
        """Branch on the first row from position start with more than one
        value, or emit the table when there is none."""
        at = next((i for i in range(start, len(rows))
                   if dom[rows[i]] & (dom[rows[i]] - 1)), None)
        if at is None:
            out.append(Behaviour(source, target, k,
                                 tuple(d.bit_length() - 1 for d in dom), arity))
            return
        values = sorted(_mask_values(dom[rows[at]], nvals), key=rank.__getitem__)
        stack.extend((dom, at, v) for v in reversed(values))

    if domains is None:
        domains = _propagate_domains(source, target, k, arity, {})
    if domains is not None:
        expand(domains, 0)
    while stack:
        parent, at, v = stack.pop()
        dom = parent.copy()
        dom[rows[at]] = 1 << v
        if _make_consistent(arcs, dom, (rows[at],)):
            expand(dom, at + 1)
    return tuple(out)


# -- randomized extension probe ------------------------------------------------

class ProbeReport(Value):
    __slots__ = ("trials", "max_size", "seed", "failures")

    @property
    def ok(self) -> bool:
        return not self.failures


@lru_cache(maxsize=None)
def _local_options(k: BoundedClass, j: int):
    """The patterns the slots on exactly j distinct points take in the
    labelled age members on j points, keyed by the mask of the other slots
    over those points.

    Returns the readers of those other slots (structures.slot_readers) and
    the options: per key, the tuple of slots on all j points that hold, one
    per member, in _labeled_age_structures(k, j) order.
    """
    from .ktypes import _labeled_age_structures
    sig = k.signature
    own = slots(sig, j, tuple(range(j)))
    rest = slot_readers(slot for slot in slots(sig, j) if slot not in own)
    options: dict[int, list] = {}
    for member in _labeled_age_structures(k, j):
        options.setdefault(slot_mask(rest, member.tables, range(j)), []).append(
            tuple((si, t) for si, t in own if t in member.tables[si]))
    return rest, options


def random_age_member(k: BoundedClass, n: int, rng: random.Random) -> FinStructure:
    """Grow a random age member of size <= n, locally filtering one-, two-
    and three-point patterns.  The draw grows one working table set in
    place (_random_extension) and is frozen once."""
    tables: list[set] = [set() for _ in k.signature.symbols]
    size = 0
    while size < n and _random_extension(k, tables, size, rng):
        size += 1
    return FinStructure(k.signature, size, tuple(frozenset(tb) for tb in tables))


def _random_extension(k: BoundedClass, tables: list[set], size: int,
                      rng: random.Random) -> bool:
    """Grow the age member in tables, on size points, by the point size in
    place; False, with tables as they were, when every attempt fails.

    The new point's atoms are drawn width by width, each among the patterns
    of _local_options that agree with the atoms drawn so far: at width 1
    its atoms on itself, at width 2 its atoms with each old point, and, with
    a symbol of arity >= 3, at width 3 its atoms with each two old points.
    Atoms on 4 or more distinct points are then drawn each with
    probability 1/2.  A failed attempt takes its own atoms back out.

    Lemma: when every bound has at most widths[-1] points and no symbol has
    arity 4 or more, a completed attempt lies in the age, so its age test
    is skipped.  A width-j step fixes the slots on exactly the j points,
    the new point and j - 1 old ones, after every other slot over those
    points: those on old points alone belong to the member, and those
    through the new point on fewer distinct points were drawn at smaller
    widths.  The pattern drawn agrees with those slots, so the structure
    induced on the j points is a labelled age member.  A bound embedding
    that misses the new point lands in the member, which is in the age; one
    through it has an image of at most widths[-1] points containing the new
    point, and the structure induced there is such a drawn member, into
    which no bound embeds.  With a larger bound (the triangle of trifree,
    at widths 1 and 2) or atoms on 4 or more points, drawn freely, the
    test runs.
    """
    sig = k.signature
    widths = (1, 2, 3) if sig.max_arity >= 3 else (1, 2)
    tested = k.max_bound_size > widths[-1] or sig.max_arity >= 4
    # (readers, options, points) of each step, the new point last
    steps = [(*_local_options(k, j), old + (size,))
             for j in widths for old in combinations(range(size), j - 1)]
    for _ in range(64 * (size + 2)):
        added = []
        for rest, options, points in steps:
            opts = options.get(slot_mask(rest, tables, points))
            if not opts:
                break
            for si, t in rng.choice(opts):
                atom = tuple([points[v] for v in t])
                tables[si].add(atom)
                added.append((si, atom))
        else:
            if sig.max_arity >= 4:
                for si, t in slots(sig, size + 1, (size,)):
                    if len(set(t)) >= 4 and rng.random() < 0.5:
                        tables[si].add(t)
                        added.append((si, t))
            # the member lies in the age, so only bound embeddings through
            # the new point count
            if not tested or _in_age_through(k, tables, size + 1, (size,)):
                return True
        for si, t in added:
            tables[si].discard(t)
    return False


def greedy_extension_probe(behaviours, max_size: int, trials: int,
                           seed: int) -> tuple[ProbeReport, ...]:
    """Randomized cross-check of the bounded realizability decision, one
    report per behaviour.

    Draws random source age members of size <= max_size and checks, for
    every behaviour, that the images of the member's prefixes (its points
    in a random order) are coherent and land in the target age.  The draws
    depend only on the source class, max_size, trials and seed, so the
    behaviours must share their source: each member is relabelled by its
    order once, so that prefix i is the structure induced on range(i), its
    tuple-type indices are read once per level and shared by every
    behaviour, and each report is the one a probe of its behaviour alone
    would give.  Any failure falsifies the bounded check's completeness on
    that behaviour and is reported verbatim.

    A behaviour's value rows on a draw are read as is_realizable reads
    them (see its "Packed rows"): the draw's type indices at a level, read
    once as bytes, translated through the behaviour's _packed_level_map
    where there is one, else combined by _value_row.  They key the same
    bounded verdict cache (_image_verdict), so a value row met twice, in
    this probe or by realizability, is judged once; the cache keeps rows,
    never a draw.
    """
    behaviours = tuple(behaviours)
    if not behaviours:
        return ()
    source = behaviours[0].source
    if any(xi.source != source for xi in behaviours):
        raise InputError("greedy_extension_probe: behaviours must share one source class")
    plans = []  # per behaviour: its levels read on one point and on more, its tables
    for xi in behaviours:
        levels = _read_levels(xi)
        plans.append((xi, levels, {m: _packed_level_map(xi, m) for m in levels[1]}))
    rng = random.Random(seed)
    failures: list[list[str]] = [[] for _ in behaviours]
    for trial in range(trials):
        n = rng.randint(1, max_size)
        s = random_age_member(source, n, rng)
        if s.size == 0:
            continue
        order = list(range(s.size))
        rng.shuffle(order)
        s = induced(s, order)
        types: dict[int, bytes | tuple[int, ...]] = {}
        for (xi, levels, tables), out in zip(plans, failures):
            rows = []
            for m in levels[s.size > 1]:
                if m not in types:
                    t = read_type_indices(source, s, m)
                    types[m] = bytes(t) if len(enumerate_types(source, m)) <= 256 else t
                table = tables[m]
                rows.append((m, types[m].translate(table) if table is not None
                             else tuple(_value_row(xi, m, (types[m],)))))
            failure = _image_verdict(xi.target, s.size, False, tuple(rows))
            if failure is not None:
                out.append(f"trial {trial}: {failure}")
    return tuple(ProbeReport(trials, max_size, seed, tuple(f)) for f in failures)
