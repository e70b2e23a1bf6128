"""Finitely bounded classes: the ages of the infinite base structures.

A class is given by a signature, a finite set of forbidden bounds, and
user-asserted flags (homogeneity, Ramsey).  The infinite structure itself
is never materialized; every computation runs on its age.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from .errors import InputError
from .structures import (
    FinStructure,
    Signature,
    apply_perm,
    augment,
    canonical_form,
    embeds,
    empty_structure,
    extension_slots,
    find_embedding,
    slot_mask,
    slot_readers,
    slots,
    sort_key,
)
from .value import Value


class BoundedClass(Value):
    """A finitely bounded homogeneous class, represented by its bounds.

    Bounds are normalized on construction: canonicalized, deduplicated and
    minimized (a bound into which another bound embeds is dropped).
    """

    __slots__ = ("name", "signature", "bounds", "homogeneous_asserted",
                 "ramsey_asserted", "_hash")

    def __init__(self, name: str, signature: Signature, bounds: tuple[FinStructure, ...],
                 homogeneous_asserted: bool = False, ramsey_asserted: bool = False):
        for b in bounds:
            if b.signature != signature:
                raise InputError(f"bound signature mismatch in class {name}")
            if b.size < 1:
                raise InputError(f"class {name}: bound sizes must be >= 1")
        normalized = []
        for b in sorted({canonical_form(b) for b in bounds}, key=sort_key):
            if not any(embeds(prev, b) for prev in normalized):
                normalized.append(b)
        bounds = tuple(normalized)
        init = object.__setattr__
        init(self, "name", name)
        init(self, "signature", signature)
        init(self, "bounds", bounds)
        init(self, "homogeneous_asserted", homogeneous_asserted)
        init(self, "ramsey_asserted", ramsey_asserted)
        init(self, "_hash", hash((name, signature, bounds,
                                  homogeneous_asserted, ramsey_asserted)))

    @property
    def max_bound_size(self) -> int:
        return max((b.size for b in self.bounds), default=0)


def in_age(k: BoundedClass, s: FinStructure) -> bool:
    """True iff no bound of the class embeds into s, by searching each bound's
    embeddings into the whole of s.

    The membership reference of the tests: no engine path calls it, as each
    grows its structures one point at a time and tests them with
    _in_age_through."""
    if s.signature != k.signature:
        raise InputError("in_age: signature mismatch")
    return _in_age(k, s)


@lru_cache(maxsize=1 << 18)
def _in_age(k: BoundedClass, s: FinStructure) -> bool:
    return not any(embeds(b, s) for b in k.bounds)


def _rooted_bounds(k: BoundedClass, m: int) -> tuple[FinStructure, ...]:
    """Each bound on >= m points, relabelled so that its points r_0..r_{m-1}
    come first, for every ordered choice of m distinct points r_i."""
    rooted: dict[FinStructure, None] = {}
    for b in k.bounds:
        for roots in permutations(range(b.size), m):
            order = roots + tuple(v for v in range(b.size) if v not in roots)
            rooted.setdefault(apply_perm(b, [order.index(v) for v in range(b.size)]), None)
    return tuple(rooted)


@lru_cache(maxsize=None)
def _root_index(k: BoundedClass, m: int) -> tuple[frozenset[int], tuple, tuple,
                                                   dict[int, frozenset[int]],
                                                   dict[int, tuple]]:
    """The rooted bounds of _rooted_bounds(k, m), keyed by the slot mask of
    the pattern each induces on its m roots.

    Returns five parts: the keys of the bounds on exactly m points; the
    slot readers (structures.slot_readers) of the slots over m points,
    which read the key; the slot readers of the slots over m + 1 points
    through the last one, m; per key, the masks those slots take in the
    bounds on exactly m + 1 points, the extra point labelled m; and, per
    key, the bounds on m + 2 or more points.

    A key and a mask decide a bound on m + 1 points: an embedding that
    sends its roots to points r_0..r_{m-1} sends its extra point to one
    point y outside them, and every slot of the bound is either on the
    roots alone, which the key reads, or through the extra point, which
    the mask reads at (r_0, .., r_{m-1}, y).
    """
    sig = k.signature
    roots = slot_readers(slots(sig, m))
    extra = slot_readers(slots(sig, m + 1, (m,)))
    whole: set[int] = set()
    one_more: dict[int, set] = {}
    larger: dict[int, list] = {}
    for b in _rooted_bounds(k, m):
        key = slot_mask(roots, b.tables, range(m))
        if b.size == m:
            whole.add(key)
        elif b.size == m + 1:
            one_more.setdefault(key, set()).add(slot_mask(extra, b.tables, range(m + 1)))
        else:
            larger.setdefault(key, []).append(b)
    return (frozenset(whole), roots, extra,
            {key: frozenset(masks) for key, masks in one_more.items()},
            {key: tuple(bs) for key, bs in larger.items()})


def _in_age_through(k: BoundedClass, tables, size: int, through: tuple[int, ...]) -> bool:
    """Whether the structure (raw tables on size points) lies in the age.

    Exact only when dropping any one point of `through` leaves a structure
    in the age: then, by heredity, every bound embedding passes through all
    of `through`, so only such embeddings are checked.  Such an embedding
    sends the m = len(through) roots of one of the bound's rooted forms
    (_rooted_bounds) onto `through` and matches the pattern on them, so the
    slot mask of the pattern on `through` is read first and looked up in
    _root_index.  A pattern of a bound on m points is that bound
    embedding.  A bound on m + 1 points maps its extra point to one y not
    in `through`, so it embeds iff, for some such y, the slot mask of the
    slots through y over `through` + (y,) is one the index lists for the
    pattern.  Only the bounds on m + 2 or more points with the pattern are
    searched, by find_embedding pinned at `through`.
    """
    whole, roots, extra, one_more, larger = _root_index(k, len(through))
    key = slot_mask(roots, tables, through)
    if key in whole:
        return False
    masks = one_more.get(key)
    if masks:
        points = list(through) + [0]
        for y in range(size):
            if y not in through:
                points[-1] = y
                if slot_mask(extra, tables, points) in masks:
                    return False
    bounds = larger.get(key)
    return not bounds or not any(
        find_embedding(k.signature, b.tables, b.size, tables, size, through) is not None
        for b in bounds)


@lru_cache(maxsize=None)
def enumerate_age(k: BoundedClass, n: int) -> tuple[FinStructure, ...]:
    """One canonical representative per isomorphism class of age members of size n."""
    if n < 0:
        raise InputError("enumerate_age: n must be >= 0")
    if n == 0:
        return (empty_structure(k.signature),)
    return augment(enumerate_age(k, n - 1), lambda base: age_extensions(k, base))


def age_extensions(k: BoundedClass, base: FinStructure) -> tuple[FinStructure, ...]:
    """The one-point extensions of base that lie in the age, in slot-bit order.

    base must lie in the age; every caller passes an age member.  The result
    equals filtering every labelled one-point extension of base by in_age.
    The new point's slots are decided against no old point, then against
    old point 0, old point 1, and so on; a branch is dropped as soon as the
    structure induced on {0..i, new} leaves the age.  That is exact by
    heredity: a bound that embeds into that induced structure embeds into
    every extension of the branch.  Each test only searches for bound
    embeddings through the new point and the old point just decided
    against, if any: dropping the new point leaves a prefix of base, which
    lies in the age, and dropping that old point leaves a structure the
    step before kept.  For a base outside the age a prefix of base may lie
    outside it too, and the result is undefined.

    The branches are searched depth first on one working table set, with
    the new point labelled 0 and old point x labelled x + 1: the structure
    induced on {new, 0..i-1} is then the working set on i + 1 points (a
    test on i + 1 points reads no atom on a later point), so each stage
    only adds, and on the way back discards, the new point's slots it
    decides.  The surviving slot masks are sorted into slot-bit order.
    """
    sig = k.signature
    new = base.size
    slots = extension_slots(sig, new)

    def relabel(t):
        return tuple(0 if v == new else v + 1 for v in t)

    # stages[i]: (slot bit, symbol, relabelled tuple) of the slots whose
    # largest old point is i - 1; stages[0] holds the slots on the new point alone
    stages: list[list] = [[] for _ in range(new + 1)]
    for j, (si, t) in enumerate(slots):
        old = [v for v in t if v != new]
        stages[max(old) + 1 if old else 0].append((1 << j, si, relabel(t)))
    work = [{relabel(t) for t in table} for table in base.tables]
    masks: list[int] = []

    def decide(i: int, bits: int) -> None:
        group = stages[i]
        through = (0, i) if i else (0,)
        for sub in range(1 << len(group)):
            chosen = [slot for g, slot in enumerate(group) if sub >> g & 1]
            for _, si, t in chosen:
                work[si].add(t)
            if _in_age_through(k, work, i + 1, through):
                b = bits + sum(bit for bit, _, _ in chosen)
                if i == new:
                    masks.append(b)
                else:
                    decide(i + 1, b)
            for _, si, t in chosen:
                work[si].discard(t)

    decide(0, 0)
    masks.sort()
    out = []
    for b in masks:
        added: list[list] = [[] for _ in sig.symbols]
        for j, (si, t) in enumerate(slots):
            if b >> j & 1:
                added[si].append(t)
        out.append(FinStructure(sig, new + 1, tuple(
            table.union(a) for table, a in zip(base.tables, added))))
    return tuple(out)


# the most amalgam tests one check may need before it is refused: diagrams
# times candidate amalgams per diagram, summed over the base sizes
AMALGAM_LIMIT = 1 << 22


def default_ap_cap(k: BoundedClass) -> int:
    return max(2, 2 * k.max_bound_size)


class AmalgamationResult(Value):
    __slots__ = ("ok", "strong", "cap", "diagrams_checked", "counterexample")


def check_amalgamation(k: BoundedClass, cap: int | None = None,
                       strong: bool = False) -> AmalgamationResult:
    """One-point amalgamation over all diagrams B0 <= B1, B2 with |Bi| <= cap.

    B0 ranges over age members of size 0..cap-1 (the empty diagram covers
    joint embedding, which the strong variant needs for the no-algebraicity
    proxy); B1, B2 range over labelled one-point age extensions of B0.  The
    strong variant only accepts amalgams that keep the two new points
    distinct.  Returns the first failing diagram, if any.

    Swapping the two new points maps the candidate amalgams of (B0, B1, B2)
    onto those of (B0, B2, B1), so a diagram whose mirror came first in the
    loop passes with it, and only the other one is tested.  The parts of a
    diagram are built once per B0: one working copy of B0's tables, and
    each extension's atoms on its new point, both as B1's (point |B0|)
    and as B2's (point |B0| + 1).

    Before the diagrams of a B0 are tested, their number times the
    2^(free slots) candidate amalgams of each, summed with those of the
    bases before, is held to AMALGAM_LIMIT; past it the check is refused
    with an InputError that names --ap-cap.
    """
    if cap is None:
        cap = default_ap_cap(k)
    if cap < 1:
        raise InputError("check_amalgamation: cap must be >= 1")
    checked = 0
    tests = 0
    for s in range(0, cap):
        # counted before they are listed: a symbol of high arity has too many to list
        nfree = sum((s + 2) ** a - 2 * (s + 1) ** a + s ** a for _, a in k.signature.symbols)
        for b0 in enumerate_age(k, s):
            exts = age_extensions(k, b0)
            tests += len(exts) ** 2 << min(nfree, 64)
            if tests > AMALGAM_LIMIT:
                raise InputError(
                    f"amalgamation check too large: bases on {s} points need more "
                    f"than {AMALGAM_LIMIT:,} amalgam tests; lower --ap-cap")
            free = slots(k.signature, s + 2, (s, s + 1))
            own = [[(si, t) for si, t in extension_slots(k.signature, s) if t in e.tables[si]]
                   for e in exts]
            moved = [[(si, tuple(s + 1 if v == s else v for v in t)) for si, t in atoms]
                     for atoms in own]
            work = [set(t) for t in b0.tables]
            for i, b1 in enumerate(exts):
                for j, b2 in enumerate(exts):
                    checked += 1
                    # identifying the new points of a diagram with B1 = B2 yields B1
                    if j > i or (j == i and strong):
                        if not _one_point_amalgam_exists(k, work, s, own[i] + moved[j], free):
                            return AmalgamationResult(False, strong, cap, checked, (b0, b1, b2))
    return AmalgamationResult(True, strong, cap, checked, None)


def _one_point_amalgam_exists(k, work, s, atoms, free) -> bool:
    """Whether some choice of the free slots completes an amalgam in the age.

    The amalgam has B0's points, B1's new point s and B2's new point
    s + 1: work holds B0's tables, atoms B1's atoms on s and B2's on s + 1,
    and free the slots through both new points.  Each candidate adds its
    free atoms to work and discards them after the test, and the atoms are
    discarded at the end, so work is left as it was.  Dropping either new
    point leaves B1 or a copy of B2, both in the age, so only bound
    embeddings through both new points are searched.
    """
    for si, t in atoms:
        work[si].add(t)
    found = False
    for bits in range(1 << len(free)):
        chosen = [slot for j, slot in enumerate(free) if bits >> j & 1]
        for si, t in chosen:
            work[si].add(t)
        found = _in_age_through(k, work, s + 2, (s, s + 1))
        for si, t in chosen:
            work[si].discard(t)
        if found:
            break
    for si, t in atoms:
        work[si].discard(t)
    return found
