"""Independent certificate verifier.

Re-checks every claim a certificate makes using only the primitives of the
structures module (plus the shared file grammar): its own type enumeration,
its own restriction via representative tuples, its own image construction
and age scan.  It deliberately shares no checking logic with the searcher.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .errors import AgekitError, InputError
from .parser import Catalog, parse_input, split_type_columns
from .reducts import FormulaDef, OrbitsDef
from .structures import (
    FinStructure,
    Signature,
    canonical_form,
    embeds,
    empty_structure,
    eval_qf,
    induced,
    one_point_extensions,
    parse_literal,
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


def _vrestrict(p: VType, sigma) -> VType:
    """Restriction through a concrete representative tuple of the type."""
    blocks, quotient = p
    return _vtype_of(quotient, [blocks[v] for v in sigma])


def _vserialize(p: VType) -> str:
    blocks, quotient = p
    from .structures import render_literal
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


def _v_labeled(sig: Signature, bounds, n: int):
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
    return out


def _v_types(sig: Signature, bounds, k: int) -> list[VType]:
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
    return out


# once per (signature, bounds, size): every behaviour of a certificate scans
# the same ages, and each size is built from the one below it
@lru_cache(maxsize=None)
def _v_age(sig: Signature, bounds, n: int) -> tuple[FinStructure, ...]:
    if n == 0:
        return (empty_structure(sig),)
    seen = set()
    for base in _v_age(sig, bounds, n - 1):
        for ext in one_point_extensions(base):
            if _bounds_allow(bounds, ext):
                seen.add(canonical_form(ext))
    return tuple(sorted(seen, key=sort_key))


# -- behaviour checks ------------------------------------------------------------

class _VBehaviour:
    """A parsed behaviour table over verifier-local types."""

    def __init__(self, src_class, tgt_class, k: int, lines: str,
                 field: str = "behaviour"):
        self.k = k
        self.src = src_class
        self.tgt = tgt_class
        self.types_src = _v_types(src_class.signature, src_class.bounds, k)
        self.types_tgt = _v_types(tgt_class.signature, tgt_class.bounds, k)
        src_set = set(self.types_src)
        tgt_set = set(self.types_tgt)
        self.table: dict[VType, VType] = {}
        for raw in lines.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            left, sep, right = line.partition("->")
            if not sep:
                raise VerificationFailure(f"bad behaviour line {line!r}")
            p = _vparse_type(src_class.signature, left, field)
            q = _vparse_type(tgt_class.signature, right, field)
            if p not in src_set:
                raise VerificationFailure(f"{_vserialize(p)} is not a source type")
            if q not in tgt_set:
                raise VerificationFailure(f"{_vserialize(q)} is not a target type")
            if p in self.table:
                raise VerificationFailure(f"duplicate row for {_vserialize(p)}")
            self.table[p] = q
        if len(self.table) != len(self.types_src):
            raise VerificationFailure("behaviour table is not total")

    def apply(self, p: VType) -> VType:
        """Apply at any level m <= k via padding with the last position."""
        m = len(p[0])
        if m == self.k:
            return self.table[p]
        if m > self.k:
            raise VerificationFailure(f"level k={self.k} is below the arity {m} it is applied at")
        pad = tuple(min(i, m - 1) for i in range(self.k))
        return _vrestrict(self.table[_vrestrict(p, pad)], tuple(range(m)))

    def check_compatible(self):
        for sigma in product(range(self.k), repeat=self.k):
            for p in self.types_src:
                if self.table[_vrestrict(p, sigma)] != _vrestrict(self.table[p], sigma):
                    raise VerificationFailure(
                        f"behaviour not compatible at sigma={sigma}, "
                        f"type {_vserialize(p)}")

    def image(self, s: FinStructure) -> FinStructure:
        n = s.size
        tgt_sig = self.tgt.signature
        if n == 0:
            return empty_structure(tgt_sig)
        collapse = [[False] * n for _ in range(n)]
        for x in range(n):
            for y in range(n):
                q = self.apply(_vtype_of(s, (x, y)))
                collapse[x][y] = q[0] == (0, 0)
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
                blocks, quotient = self.apply(_vtype_of(s, t))
                holds = tuple(blocks[j] for j in range(arity)) in quotient.tables[si]
                ct = tuple(class_of[v] for v in t)
                if ct in seen and seen[ct] != holds:
                    raise VerificationFailure("image: atoms disagree across reps")
                seen[ct] = holds
            tables.append(frozenset(ct for ct, h in seen.items() if h))
        return FinStructure(tgt_sig, nclasses, tuple(tables))

    def check_realizable(self, cap: int):
        for n in range(1, cap + 1):
            for s in _v_age(self.src.signature, self.src.bounds, n):
                img = self.image(s)
                if not _bounds_allow(self.tgt.bounds, img):
                    raise VerificationFailure(
                        f"image of a size-{n} age member leaves the target age")


def _v_union(reduct, name: str, types_by_arity) -> set[VType]:
    rel = reduct.relation(name)
    if isinstance(rel.definition, OrbitsDef):
        return {(t.blocks, t.quotient) for t in rel.definition.members}
    phi = rel.definition.formula
    return {
        (blocks, q) for blocks, q in types_by_arity[rel.arity]
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
        if eta.table[xi.table[p]] != p:
            raise VerificationFailure("eta o xi is not the identity on source types")
    for q in eta.types_src:
        if xi.table[eta.table[q]] != q:
            raise VerificationFailure("xi o eta is not the identity on target types")
    notes.append("compositions are identities")

    for p, q in xi.table.items():
        if p[0] != q[0]:
            raise VerificationFailure("behaviour collapses or splits a partition")
    notes.append("behaviours are injective (partition-preserving)")

    xi_cap = _count(cert, "witness.xi_realize_cap", 0)
    eta_cap = _count(cert, "witness.eta_realize_cap", 0)
    xi.check_realizable(xi_cap)
    eta.check_realizable(eta_cap)
    notes.append(f"behaviours realizable up to caps {xi_cap}/{eta_cap}")

    arities_c = {r.arity for r in exp_c.relations}
    types_c = {m: _v_types(base_c.signature, base_c.bounds, m) for m in arities_c}
    types_d = {m: _v_types(base_d.signature, base_d.bounds, m) for m in arities_c}
    for cn, dn in matching:
        uc = _v_union(exp_c, cn, types_c)
        ud = _v_union(exp_d, dn, types_d)
        for p in uc:
            if xi.apply(p) not in ud:
                raise VerificationFailure(f"xi does not carry {cn} into {dn}")
        for q in ud:
            if eta.apply(q) not in uc:
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
    xi.check_compatible()
    xi.check_realizable(_count(cert, "core.witness_realize_cap", 0))
    for p, q in xi.table.items():
        if xi.table[q] != q:
            raise VerificationFailure("witness is not range-rigid")
    notes.append("witness is a compatible, realizable, range-rigid behaviour")

    arities = {r.arity for r in reduct.relations}
    types_by_arity = {m: _v_types(base.signature, base.bounds, m) for m in arities}
    for r in reduct.relations:
        u = _v_union(reduct, r.name, types_by_arity)
        for p in u:
            if xi.apply(p) not in u:
                raise VerificationFailure(f"witness does not preserve {r.name}")
    notes.append("witness preserves every declared relation")

    image = {xi.table[p] for p in xi.types_src}
    stated = {_vparse_type(base.signature, t, "core.image_types")
              for t in _strings(cert, "core.image_types")}
    if image != stated:
        raise VerificationFailure("stated image types differ from the witness's")
    notes.append("image types match the witness")

    cap = _count(cert, "core.scan_cap", 0)

    def member(s: FinStructure) -> bool:
        if not _bounds_allow(base.bounds, s):
            return False
        return all(
            _vtype_of(s, t) in stated
            for t in product(range(s.size), repeat=k)
        ) if s.size else True

    expected = set()
    from itertools import combinations
    from .structures import enumerate_structures
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

    levels = {len(p[0]) for p in members if len(p[0]) <= k}
    if not members <= {t for m in levels for t in _v_types(base.signature, base.bounds, m)}:
        raise VerificationFailure(
            "certificate field relation.members holds a type that is not a type "
            "of the core at a level up to core.k")
    arity = _count(cert, "witness_arity", 1)
    types_k = _v_types(base.signature, base.bounds, k)
    type_set = set(types_k)
    table: dict[tuple[VType, ...], VType] = {}
    for raw in _field(cert, "witness", str).splitlines():
        line = raw.strip()
        if not line:
            continue
        left, sep, right = line.partition("->")
        if not sep:
            raise VerificationFailure(f"bad witness line {line!r}")
        args = tuple(_vparse_type(base.signature, c, "witness")
                     for c in split_type_columns(left))
        if len(args) != arity or any(a not in type_set for a in args):
            raise VerificationFailure(f"bad argument columns in {line!r}")
        table[args] = _vparse_type(base.signature, right, "witness")
    if len(table) != len(types_k) ** arity:
        raise VerificationFailure("witness table is not total")
    notes.append("witness parses as a total table")

    def apply_args(args):
        m = len(args[0][0])
        if m == k:
            return table[args]
        if m > k:
            raise VerificationFailure(f"level k={k} is below the arity {m} it is applied at")
        pad = tuple(min(i, m - 1) for i in range(k))
        padded = tuple(_vrestrict(a, pad) for a in args)
        return _vrestrict(table[padded], tuple(range(m)))

    for sigma in product(range(k), repeat=k):
        for args in product(types_k, repeat=arity):
            lhs = table[tuple(_vrestrict(a, sigma) for a in args)]
            rhs = _vrestrict(table[args], sigma)
            if lhs != rhs:
                raise VerificationFailure("witness is not componentwise compatible")
    notes.append("witness is componentwise compatible")

    cap = _count(cert, "caps.realize_cap", 0)
    for n in range(1, cap + 1):
        age_n = _v_age(base.signature, base.bounds, n)
        for members_tuple in product(age_n, repeat=arity):
            img = _poly_image(base, table, apply_args, members_tuple)
            if not _bounds_allow(base.bounds, img):
                raise VerificationFailure(
                    f"witness image of size-{n} members leaves the age")
    notes.append(f"witness realizable up to cap {cap}")

    arities = {r.arity for r in reduct_out.relations}
    types_by_arity = {m: _v_types(base.signature, base.bounds, m) for m in arities}
    for r in reduct_out.relations:
        u = _v_union(reduct_out, r.name, types_by_arity)
        for args in product(sorted(u, key=_vserialize), repeat=arity):
            if apply_args(args) not in u:
                raise VerificationFailure(f"witness does not preserve {r.name}")
    notes.append("witness preserves the core's declared relations")

    violated = any(
        apply_args(args) not in members
        for args in product(sorted(members, key=_vserialize), repeat=arity)
    )
    if not violated:
        raise VerificationFailure("witness does not violate the queried relation")
    notes.append("witness violates the queried relation")
    return notes


def _poly_image(base, table, apply_args, members_tuple):
    n = members_tuple[0].size
    sig = base.signature
    if n == 0:
        return empty_structure(sig)
    collapse = [[False] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            q = apply_args(tuple(_vtype_of(s, (x, y)) for s in members_tuple))
            collapse[x][y] = q[0] == (0, 0)
    for x in range(n):
        if not collapse[x][x]:
            raise VerificationFailure("poly image: reflexive pair does not collapse")
        for y in range(n):
            if collapse[x][y] != collapse[y][x]:
                raise VerificationFailure("poly image: collapse not symmetric")
            for z in range(n):
                if collapse[x][y] and collapse[y][z] and not collapse[x][z]:
                    raise VerificationFailure("poly image: collapse not transitive")
    class_of = [-1] * n
    nclasses = 0
    for x in range(n):
        if class_of[x] == -1:
            for y in range(x, n):
                if collapse[x][y]:
                    class_of[y] = nclasses
            nclasses += 1
    tables = []
    for si, (_, arity) in enumerate(sig.symbols):
        seen: dict[tuple[int, ...], bool] = {}
        for t in product(range(n), repeat=arity):
            blocks, quotient = apply_args(
                tuple(_vtype_of(s, t) for s in members_tuple))
            holds = tuple(blocks[j] for j in range(arity)) in quotient.tables[si]
            ct = tuple(class_of[v] for v in t)
            if ct in seen and seen[ct] != holds:
                raise VerificationFailure("poly image: atoms disagree across reps")
            seen[ct] = holds
        tables.append(frozenset(ct for ct, h in seen.items() if h))
    return FinStructure(sig, nclasses, tuple(tables))
