"""Independent certificate verifier.

Re-checks every claim a certificate makes using only the primitives of the
structures module (plus the shared file grammar): its own type enumeration,
its own restriction via representative tuples, its own image construction
and age scan.  It deliberately shares no checking logic with the searcher.

One table checker serves every certificate kind: behaviours (one argument
column) and polymorphism tables (`witness_arity` columns) alike are parsed
against the class's types, every argument and value column included, and
checked for compatibility, realizability up to the recorded cap and the
relations they carry.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import comb, factorial

from .errors import AgekitError, InputError
from .parser import Catalog, parse_input, split_type_columns
from .reducts import FormulaDef, OrbitsDef
from .structures import (
    FinStructure,
    Signature,
    canonical_form,
    embeds,
    empty_structure,
    enumerate_structures,
    eval_qf,
    extension_slots,
    find_embedding,
    induced,
    parse_literal,
    render_literal,
    sort_key,
)

VType = tuple[tuple[int, ...], FinStructure]


class VerificationFailure(AgekitError):
    pass


# -- independent type machinery -------------------------------------------------

def _vtype_of(s: FinStructure, tup) -> VType:
    reps: list[int] = []
    blocks = []
    for v in tup:
        if v not in reps:
            reps.append(v)
        blocks.append(reps.index(v))
    return tuple(blocks), induced(s, reps)


# every table check restricts the same few types through the same few maps
@lru_cache(maxsize=None)
def _vrestrict(p: VType, sigma) -> VType:
    """Restriction through a concrete representative tuple of the type."""
    blocks, quotient = p
    return _vtype_of(quotient, [blocks[v] for v in sigma])


def _vserialize(p: VType) -> str:
    blocks, quotient = p
    parts = []
    for b in range(quotient.size):
        members = ",".join(str(i) for i in range(len(blocks)) if blocks[i] == b)
        parts.append("{" + members + "}")
    return f"[{''.join(parts)}|{render_literal(quotient)}]"


def _vparse_type(sig: Signature, text: str, field: str) -> VType:
    """Parse one serialized type read from the certificate field `field`."""
    text = text.strip()
    bad = f"certificate field {field}: bad type serialization {text!r}"
    if not (text.startswith("[") and text.endswith("]")):
        raise VerificationFailure(bad)
    part, _, lit = text[1:-1].partition("|")
    assign: dict[int, int] = {}
    for b, group in enumerate(part.strip("{}").split("}{")):
        for tok in group.split(","):
            if not tok.isdecimal() or int(tok) in assign:
                raise VerificationFailure(bad)
            assign[int(tok)] = b
    if sorted(assign) != list(range(len(assign))):
        raise VerificationFailure(bad)
    blocks = tuple(assign[i] for i in range(len(assign)))
    try:
        return blocks, parse_literal(sig, lit)
    except InputError as exc:
        raise VerificationFailure(f"{bad}: {exc}")


def _bounds_allow(bounds, s: FinStructure) -> bool:
    return not any(embeds(b, s) for b in bounds)


@lru_cache(maxsize=None)
def _v_labeled(sig: Signature, bounds, n: int) -> tuple[FinStructure, ...]:
    slots = []
    for si, (_, arity) in enumerate(sig.symbols):
        for t in product(range(n), repeat=arity):
            slots.append((si, t))
    out = []
    for bits in range(1 << len(slots)):
        tables = [set() for _ in sig.symbols]
        for j, (si, t) in enumerate(slots):
            if bits >> j & 1:
                tables[si].add(t)
        s = FinStructure(sig, n, tuple(frozenset(t) for t in tables))
        if _bounds_allow(bounds, s):
            out.append(s)
    return tuple(out)


def _stirling2(k: int, b: int) -> int:
    """The partitions of k positions into b blocks, by inclusion-exclusion
    over the blocks left empty (b pows, no recursion on k)."""
    return sum((-1) ** j * comb(b, j) * (b - j) ** k for j in range(b + 1)) // factorial(b)


@lru_cache(maxsize=None)
def _v_types(sig: Signature, bounds, k: int) -> tuple[VType, ...]:
    def partitions(prefix, top):
        if len(prefix) == k:
            yield tuple(prefix)
            return
        for b in range(top + 2):
            yield from partitions(prefix + [b], max(top, b))

    out = []
    for rgs in partitions([0], 0):
        for q in _v_labeled(sig, bounds, max(rgs) + 1):
            out.append((rgs, q))
    return tuple(out)


@lru_cache(maxsize=None)
def _pinned_bounds(bounds) -> tuple[tuple[FinStructure, ...], tuple[FinStructure, ...]]:
    """The bounds on one point, and each bound on more points relabelled once
    per ordered pair of distinct points, that pair first."""
    ones = tuple(b for b in bounds if b.size == 1)
    pairs = tuple(dict.fromkeys(
        induced(b, (r, s) + tuple(x for x in range(b.size) if x not in (r, s)))
        for b in bounds for r in range(b.size) for s in range(b.size) if r != s))
    return ones, pairs


# once per (signature, bounds, size): every behaviour of a certificate scans
# the same ages, and each size is built from the one below it
@lru_cache(maxsize=None)
def _v_age(sig: Signature, bounds, n: int) -> tuple[FinStructure, ...]:
    """One canonical form per isomorphism class of the structures of size n
    into which no bound embeds, sorted by sort_key.

    Each member of size n - 1 gets a new point, whose slots are decided in
    stages: first those on the new point alone, then those against old
    point 0, old point 1, and so on.  A branch is dropped as soon as a bound
    embeds into the structure induced on the new point and the old points
    decided so far; that is exact, since such an embedding is one into every
    extension the branch leads to.  Only embeddings through the new point
    and the old point just decided are searched: the member lies in the
    age, and the step before kept the structure without that old point.
    So stage 0 tests the bounds on one point, and each later stage the
    bounds pinned at an ordered pair of their points.

    The branches share one working table set, with the new point labelled 0
    and old point x labelled x + 1, so the structure induced on the new point
    and old points 0..i-1 is the working set on i + 1 points.
    """
    if n == 0:
        return (empty_structure(sig),)
    ones, pairs = _pinned_bounds(bounds)
    # stages[i]: the new point's slots whose largest old point is i - 1
    stages: list[list] = [[] for _ in range(n)]
    for si, t in extension_slots(sig, n - 1):
        t = tuple(0 if v == n - 1 else v + 1 for v in t)
        stages[max(t)].append((si, t))
    seen = set()

    def decide(work: list, i: int) -> None:
        pinned, through = (pairs, (0, i)) if i else (ones, (0,))
        group = stages[i]
        for bits in range(1 << len(group)):
            chosen = [slot for j, slot in enumerate(group) if bits >> j & 1]
            for si, t in chosen:
                work[si].add(t)
            if all(find_embedding(sig, b.tables, b.size, work, i + 1, through) is None
                   for b in pinned):
                if i == n - 1:
                    seen.add(canonical_form(
                        FinStructure(sig, n, tuple(frozenset(t) for t in work))))
                else:
                    decide(work, i + 1)
            for si, t in chosen:
                work[si].discard(t)

    for base in _v_age(sig, bounds, n - 1):
        decide([{tuple(v + 1 for v in t) for t in table} for table in base.tables], 0)
    return tuple(sorted(seen, key=sort_key))


# -- behaviour checks ------------------------------------------------------------

def _vrow(args) -> str:
    return " | ".join(_vserialize(p) for p in args)


class _VBehaviour:
    """A parsed table over verifier-local types: `arity` argument columns of
    source k-types, one value column of a target k-type.  Arity 1 is a
    behaviour; a higher arity is a polymorphism table, applied componentwise.
    """

    def __init__(self, src_class, tgt_class, k: int, lines: str,
                 field: str = "behaviour", arity: int = 1):
        self.k = k
        self.arity = arity
        self.src = src_class
        self.tgt = tgt_class
        rows = []
        for raw in lines.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            left, sep, right = line.partition("->")
            columns = split_type_columns(left)
            if not sep or len(columns) != arity:
                raise VerificationFailure(f"bad behaviour line {line!r}")
            args = tuple(_vparse_type(src_class.signature, c, field) for c in columns)
            q = _vparse_type(tgt_class.signature, right, field)
            for p in args + (q,):
                if len(p[0]) != k:
                    raise VerificationFailure(
                        f"certificate field {field}: type {_vserialize(p)} has "
                        f"{len(p[0])} positions, not the level {k}")
            rows.append((args, q))
        # the rows are read before the types are enumerated, whose work grows
        # steeply with k: the types are S(k, b) times the labelled members on
        # b points, summed over b, and the members on b points are built only
        # while the types counted so far leave the table room to be total
        count = 0
        for b in range(1, k + 1):
            if count ** arity > len(rows):
                raise VerificationFailure("behaviour table is not total")
            members = len(_v_labeled(src_class.signature, src_class.bounds, b))
            if not members:  # the age is hereditary: none on more points either
                break
            count += _stirling2(k, b) * members
        self.types_src = _v_types(src_class.signature, src_class.bounds, k)
        src_set = set(self.types_src)
        tgt_set = set(_v_types(tgt_class.signature, tgt_class.bounds, k))
        self.table: dict[tuple[VType, ...], VType] = {}
        for args, q in rows:
            for p in args:
                if p not in src_set:
                    raise VerificationFailure(f"{_vserialize(p)} is not a source type")
            if q not in tgt_set:
                raise VerificationFailure(f"{_vserialize(q)} is not a target type")
            if args in self.table:
                raise VerificationFailure(f"duplicate row for {_vrow(args)}")
            self.table[args] = q
        if len(self.table) != len(self.types_src) ** arity:
            raise VerificationFailure("behaviour table is not total")

    def apply(self, *args: VType) -> VType:
        """Apply componentwise at any level m <= k via padding with the last position."""
        m = len(args[0][0])
        if m == self.k:
            return self.table[args]
        if m > self.k:
            raise VerificationFailure(f"level k={self.k} is below the arity {m} it is applied at")
        pad = tuple(min(i, m - 1) for i in range(self.k))
        padded = tuple(_vrestrict(p, pad) for p in args)
        return _vrestrict(self.table[padded], tuple(range(m)))

    def check_compatible(self):
        for sigma in product(range(self.k), repeat=self.k):
            for args in product(self.types_src, repeat=self.arity):
                restricted = tuple(_vrestrict(p, sigma) for p in args)
                if self.table[restricted] != _vrestrict(self.table[args], sigma):
                    raise VerificationFailure(
                        f"behaviour not compatible at sigma={sigma}, "
                        f"type {_vrow(args)}")

    def carries(self, src, tgt) -> bool:
        """Whether every tuple of `arity` types from src is applied into tgt."""
        return all(self.apply(*args) in tgt for args in product(src, repeat=self.arity))

    def image(self, members) -> FinStructure:
        """The image of `arity` age members on one index set, applied pointwise."""
        n = members[0].size
        tgt_sig = self.tgt.signature
        if n == 0:
            return empty_structure(tgt_sig)

        def value(t) -> VType:
            return self.apply(*(_vtype_of(s, t) for s in members))

        collapse = [[value((x, y))[0] == (0, 0) for y in range(n)] for x in range(n)]
        for x in range(n):
            if not collapse[x][x]:
                raise VerificationFailure("image: reflexive pair does not collapse")
            for y in range(n):
                if collapse[x][y] != collapse[y][x]:
                    raise VerificationFailure("image: collapse not symmetric")
                for z in range(n):
                    if collapse[x][y] and collapse[y][z] and not collapse[x][z]:
                        raise VerificationFailure("image: collapse not transitive")
        class_of = [-1] * n
        nclasses = 0
        for x in range(n):
            if class_of[x] == -1:
                for y in range(x, n):
                    if collapse[x][y]:
                        class_of[y] = nclasses
                nclasses += 1
        tables = []
        for si, (_, arity) in enumerate(tgt_sig.symbols):
            seen: dict[tuple[int, ...], bool] = {}
            for t in product(range(n), repeat=arity):
                blocks, quotient = value(t)
                holds = tuple(blocks[j] for j in range(arity)) in quotient.tables[si]
                ct = tuple(class_of[v] for v in t)
                if ct in seen and seen[ct] != holds:
                    raise VerificationFailure("image: atoms disagree across reps")
                seen[ct] = holds
            tables.append(frozenset(ct for ct, h in seen.items() if h))
        return FinStructure(tgt_sig, nclasses, tuple(tables))

    def check_realizable(self, cap: int):
        for n in range(1, cap + 1):
            age_n = _v_age(self.src.signature, self.src.bounds, n)
            for members in product(age_n, repeat=self.arity):
                if not _bounds_allow(self.tgt.bounds, self.image(members)):
                    raise VerificationFailure(
                        f"image of a size-{n} age member leaves the target age")


def _v_union(reduct, name: str) -> set[VType]:
    rel = reduct.relation(name)
    if isinstance(rel.definition, OrbitsDef):
        return {(t.blocks, t.quotient) for t in rel.definition.members}
    phi = rel.definition.formula
    base = reduct.base
    return {
        (blocks, q) for blocks, q in _v_types(base.signature, base.bounds, rel.arity)
        if eval_qf(phi, q, blocks)
    }


# -- certificate fields ------------------------------------------------------------

_KIND_NAMES = {str: "a string", int: "an integer", dict: "an object", list: "a list"}


def _field(cert: dict, path: str, kind: type):
    """The field at a dotted path such as "core.k", checked to be a `kind`."""
    value, seen = cert, []
    for key in path.split("."):
        if not isinstance(value, dict):
            raise VerificationFailure(f"certificate field {'.'.join(seen)} is not an object")
        seen.append(key)
        if key not in value:
            raise VerificationFailure(f"certificate field {'.'.join(seen)} is missing")
        value = value[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise VerificationFailure(f"certificate field {path} is not {_KIND_NAMES[kind]}")
    return value


def _count(cert: dict, path: str, least: int) -> int:
    value = _field(cert, path, int)
    if value < least:
        raise VerificationFailure(f"certificate field {path} is below {least}")
    return value


def _strings(cert: dict, path: str) -> list[str]:
    items = _field(cert, path, list)
    if not all(isinstance(x, str) for x in items):
        raise VerificationFailure(f"certificate field {path} is not a list of strings")
    return items


def _presentation(cert: dict, *paths: str):
    """The sole class and first reduct of the blocks at `paths`, joined."""
    cat = _parse_block("\n".join(_field(cert, p, str) for p in paths))
    if len(cat.classes) != 1 or not cat.reducts:
        raise VerificationFailure(
            f"certificate field {' + '.join(paths)} does not hold one class and a reduct")
    return cat.sole_class(), next(iter(cat.reducts.values()))


# -- certificate verification ----------------------------------------------------

def verify_certificate(cert: dict) -> list[str]:
    """Returns a list of human-readable check lines; raises VerificationFailure."""
    kind = cert.get("kind")
    if kind in ("bidef", "biint"):
        return _verify_bidef(cert)
    if kind == "core":
        return _verify_core(cert)
    if kind == "definable":
        return _verify_definable(cert)
    raise VerificationFailure(f"unknown certificate kind {kind!r}")


def _parse_block(text: str) -> Catalog:
    try:
        return parse_input(text)
    except InputError as exc:
        raise VerificationFailure(f"certificate block does not parse: {exc}")


def _verify_bidef(cert: dict) -> list[str]:
    notes = []
    for key in ("input_c", "input_d"):
        _parse_block(_field(cert, key, str))
    notes.append("inputs parse")
    verdict = _field(cert, "verdict", str)
    if verdict != "YES":
        notes.append(f"verdict {verdict}: no witness to verify")
        return notes

    k = _count(cert, "caps.k", 1)
    base_c, exp_c = _presentation(cert, "core_c.base", "expanded_c")
    base_d, exp_d = _presentation(cert, "core_d.base", "expanded_d")
    notes.append("core presentations parse")

    matching = _field(cert, "witness.matching", list)
    if not all(isinstance(pair, list) and len(pair) == 2
               and all(isinstance(name, str) for name in pair) for pair in matching):
        raise VerificationFailure(
            "certificate field witness.matching is not a list of name pairs")
    matching = [tuple(pair) for pair in matching]
    c_names = [r.name for r in exp_c.relations]
    d_names = [r.name for r in exp_d.relations]
    if sorted(cn for cn, _ in matching) != sorted(c_names):
        raise VerificationFailure("matching does not cover the first signature")
    if sorted(dn for _, dn in matching) != sorted(d_names):
        raise VerificationFailure("matching is not a bijection onto the second signature")
    for cn, dn in matching:
        if exp_c.relation(cn).arity != exp_d.relation(dn).arity:
            raise VerificationFailure(f"matching pairs {cn} with {dn} of different arity")
    notes.append("matching is an arity-preserving bijection")

    xi = _VBehaviour(base_c, base_d, k, _field(cert, "witness.xi", str), "witness.xi")
    eta = _VBehaviour(base_d, base_c, k, _field(cert, "witness.eta", str), "witness.eta")
    xi.check_compatible()
    eta.check_compatible()
    notes.append("behaviours are compatible tables")

    for p in xi.types_src:
        if eta.apply(xi.apply(p)) != p:
            raise VerificationFailure("eta o xi is not the identity on source types")
    for q in eta.types_src:
        if xi.apply(eta.apply(q)) != q:
            raise VerificationFailure("xi o eta is not the identity on target types")
    notes.append("compositions are identities")

    for (p,), q in xi.table.items():
        if p[0] != q[0]:
            raise VerificationFailure("behaviour collapses or splits a partition")
    notes.append("behaviours are injective (partition-preserving)")

    xi_cap = _count(cert, "witness.xi_realize_cap", 1)
    eta_cap = _count(cert, "witness.eta_realize_cap", 1)
    xi.check_realizable(xi_cap)
    eta.check_realizable(eta_cap)
    notes.append(f"behaviours realizable up to caps {xi_cap}/{eta_cap}")

    for cn, dn in matching:
        uc = _v_union(exp_c, cn)
        ud = _v_union(exp_d, dn)
        if not xi.carries(uc, ud):
            raise VerificationFailure(f"xi does not carry {cn} into {dn}")
        if not eta.carries(ud, uc):
            raise VerificationFailure(f"eta does not carry {dn} back into {cn}")
    notes.append("all matched relations carried both ways")
    return notes


def _verify_core(cert: dict) -> list[str]:
    notes = []
    base, reduct = _presentation(cert, "input")
    k = _count(cert, "core.k", 1)
    base_out, reduct_out = _presentation(cert, "core.base", "core.reduct")
    notes.append("input and output presentations parse")

    xi = _VBehaviour(base, base, k, _field(cert, "core.witness", str), "core.witness")
    # the bounds are re-derived up to the cap the input fixes, checked before
    # any age is scanned: a lower cap would leave larger bounds unchecked, a
    # higher one scan needlessly
    cap = max([b.size for b in base.bounds] + [a for _, a in base.signature.symbols] + [k])
    stated_cap = _field(cert, "core.scan_cap", int)
    if stated_cap != cap:
        raise VerificationFailure(
            f"certificate field core.scan_cap is {stated_cap}, not {cap}, the largest "
            f"of the input class's bound sizes, its arities and core.k")
    xi.check_compatible()
    xi.check_realizable(_count(cert, "core.witness_realize_cap", 1))
    for q in xi.table.values():
        if xi.apply(q) != q:
            raise VerificationFailure("witness is not range-rigid")
    notes.append("witness is a compatible, realizable, range-rigid behaviour")

    for r in reduct.relations:
        u = _v_union(reduct, r.name)
        if not xi.carries(u, u):
            raise VerificationFailure(f"witness does not preserve {r.name}")
    notes.append("witness preserves every declared relation")

    image = set(xi.table.values())
    stated = {_vparse_type(base.signature, t, "core.image_types")
              for t in _strings(cert, "core.image_types")}
    if image != stated:
        raise VerificationFailure("stated image types differ from the witness's")
    notes.append("image types match the witness")

    def member(s: FinStructure) -> bool:
        if not _bounds_allow(base.bounds, s):
            return False
        return all(
            _vtype_of(s, t) in stated
            for t in product(range(s.size), repeat=k)
        ) if s.size else True

    expected = set()
    for size in range(1, cap + 1):
        for s in enumerate_structures(base.signature, size):
            if member(s):
                continue
            if size > 1 and not all(
                member(induced(s, sub))
                for sub in combinations(range(size), size - 1)
            ):
                continue
            expected.add(canonical_form(s))
    if expected != set(base_out.bounds):
        raise VerificationFailure("output bounds differ from an independent scan")
    notes.append(f"output bounds re-derived by independent scan up to {cap}")

    if [(r.name, r.arity) for r in reduct.relations] != \
       [(r.name, r.arity) for r in reduct_out.relations]:
        raise VerificationFailure("output reduct changes the relation list")
    for r_in, r_out in zip(reduct.relations, reduct_out.relations):
        if isinstance(r_in.definition, FormulaDef):
            if r_in.definition != r_out.definition:
                raise VerificationFailure(
                    f"relation {r_in.name}: formula not carried verbatim")
    notes.append("output reduct carries the input definitions")
    return notes


def _verify_definable(cert: dict) -> list[str]:
    notes = []
    _parse_block(_field(cert, "input", str))
    k = _count(cert, "core.k", 1)
    base, reduct_out = _presentation(cert, "core.base", "core.reduct")
    notes.append("core presentation parses")

    members = {_vparse_type(base.signature, t, "relation.members")
               for t in _strings(cert, "relation.members")}
    if _field(cert, "verdict", str) == "DEFINABLE":
        notes.append("verdict DEFINABLE is cap-relative; nothing further to verify")
        return notes

    levels = {len(p[0]) for p in members}
    if len(levels) > 1:
        raise VerificationFailure(
            "certificate field relation.members holds types of different levels")
    if not members <= {t for m in levels if m <= k
                       for t in _v_types(base.signature, base.bounds, m)}:
        raise VerificationFailure(
            "certificate field relation.members holds a type that is not a type "
            "of the core at a level up to core.k")
    arity = _count(cert, "witness_arity", 1)
    poly = _VBehaviour(base, base, k, _field(cert, "witness", str), "witness", arity)
    notes.append("witness parses as a total table")
    poly.check_compatible()
    notes.append("witness is componentwise compatible")

    cap = _count(cert, "caps.realize_cap", 1)
    poly.check_realizable(cap)
    notes.append(f"witness realizable up to cap {cap}")

    for r in reduct_out.relations:
        u = _v_union(reduct_out, r.name)
        if not poly.carries(u, u):
            raise VerificationFailure(f"witness does not preserve {r.name}")
    notes.append("witness preserves the core's declared relations")

    if poly.carries(members, members):
        raise VerificationFailure("witness does not violate the queried relation")
    notes.append("witness violates the queried relation")
    return notes
