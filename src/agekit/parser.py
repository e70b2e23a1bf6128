"""Line-oriented grammar for class and reduct files, and the renderers
that emit byte-stable files the parser round-trips."""

from __future__ import annotations

import re
from itertools import accumulate

from .ages import BoundedClass
from .errors import InputError, ParseError
from .ktypes import BOUND_LIMIT, parse_type, serialize_type
from .reducts import (
    FormulaDef,
    OrbitsDef,
    Relation,
    Reduct,
    render_reldef,
    validate_relation,
)
from .structures import (
    And,
    Atom,
    Eq,
    FinStructure,
    Not,
    Or,
    Signature,
    parse_literal,
    render_literal,
)
from .value import Value

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_VAR = re.compile(r"x(\d+)$")


class Catalog(Value):
    """Parsed contents of one or more input files, in declaration order.

    The fields are fixed, their dicts grow as files are parsed; a catalog
    compares by content and has no hash.
    """

    __slots__ = ("classes", "reducts")
    __hash__ = None

    def __init__(self, classes: dict[str, BoundedClass] | None = None,
                 reducts: dict[str, Reduct] | None = None):
        super().__init__({} if classes is None else classes,
                         {} if reducts is None else reducts)

    def bounded_class(self, name: str) -> BoundedClass:
        if name not in self.classes:
            raise InputError(f"unknown class {name!r}")
        return self.classes[name]

    def reduct(self, name: str) -> Reduct:
        if name not in self.reducts:
            raise InputError(f"unknown reduct {name!r}")
        return self.reducts[name]

    def sole_class(self) -> BoundedClass:
        if len(self.classes) != 1:
            raise InputError(
                f"expected exactly one class, found {sorted(self.classes)}")
        return next(iter(self.classes.values()))


def parse_input(text: str, catalog: Catalog | None = None) -> Catalog:
    """Parse class/reduct stanzas into fully validated objects."""
    cat = catalog if catalog is not None else Catalog()
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line, lineno = _strip(lines[i]), i + 1
        i += 1
        if not line:
            continue
        head = line.split()
        if head[0] == "class":
            if len(head) != 2 or not _IDENT.match(head[1]):
                raise ParseError("expected 'class <name>'", lineno, 1)
            i = _parse_class(lines, i, head[1], cat)
        elif head[0] == "reduct":
            if len(head) != 4 or head[2] != "over":
                raise ParseError("expected 'reduct <name> over <class>'", lineno, 1)
            if not _IDENT.match(head[1]):
                raise ParseError(f"bad reduct name {head[1]!r}", lineno, 1)
            i = _parse_reduct(lines, i, head[1], head[3], cat)
        else:
            raise ParseError(f"expected 'class' or 'reduct', got {head[0]!r}",
                             lineno, 1)
    return cat


def _strip(raw: str) -> str:
    return raw.split("#", 1)[0].strip()


def _stanza(lines, i, what):
    """The line number and text of each non-blank line from index i on, up
    to the stanza's 'end', at which the caller stops: the number of the
    'end' line is the index of the line after the stanza."""
    for lineno in range(i + 1, len(lines) + 1):
        line = _strip(lines[lineno - 1])
        if line:
            yield lineno, line
    raise ParseError(f"{what}: missing 'end'", len(lines), 1)


def _parse_class(lines, i, name, cat) -> int:
    sig: Signature | None = None
    bounds: list[FinStructure] = []
    homogeneous = ramsey = False
    for lineno, line in _stanza(lines, i, f"class {name}"):
        if line == "end":
            break
        key, _, rest = line.partition(" ")
        if key == "sig":
            symbols = []
            for token in rest.split():
                sym, _, ar = token.partition("/")
                if not _IDENT.match(sym) or not ar.isdecimal():
                    raise ParseError(f"bad symbol {token!r}", lineno, 1)
                symbols.append((sym, int(ar)))
            if not symbols:
                raise ParseError("sig line declares no symbols", lineno, 1)
            try:
                sig = Signature(tuple(symbols))
            except InputError as exc:
                raise ParseError(str(exc), lineno, 1)
        elif key == "bound":
            if sig is None:
                raise ParseError("bound before sig", lineno, 1)
            try:
                bound = parse_literal(sig, rest)
            except InputError as exc:
                raise ParseError(str(exc), lineno, 1)
            if bound.size > BOUND_LIMIT:
                raise ParseError(f"bound on {bound.size:,} points: above the limit of "
                                 f"{BOUND_LIMIT} points", lineno, 1)
            bounds.append(bound)
        elif key == "assert":
            for flag in rest.split():
                if flag == "homogeneous":
                    homogeneous = True
                elif flag == "ramsey":
                    ramsey = True
                else:
                    raise ParseError(f"unknown assertion {flag!r}", lineno, 1)
        else:
            raise ParseError(f"unknown class item {key!r}", lineno, 1)
    if sig is None:
        raise ParseError(f"class {name}: missing sig", lineno, 1)
    if name in cat.classes:
        if cat.classes[name] == BoundedClass(name, sig, tuple(bounds),
                                             homogeneous, ramsey):
            return lineno
        raise ParseError(f"class {name} redefined inconsistently", lineno, 1)
    try:
        k = BoundedClass(name, sig, tuple(bounds), homogeneous, ramsey)
    except InputError as exc:
        raise ParseError(str(exc), lineno, 1)
    cat.classes[name] = k
    return lineno


def _parse_reduct(lines, i, name, base_name, cat) -> int:
    if base_name not in cat.classes:
        raise ParseError(f"reduct {name} references undeclared class {base_name!r}",
                         i, 1)
    base = cat.classes[base_name]
    relations: list[Relation] = []
    for lineno, line in _stanza(lines, i, f"reduct {name}"):
        if line == "end":
            break
        key, _, rest = line.partition(" ")
        if key != "rel":
            raise ParseError(f"unknown reduct item {key!r}", lineno, 1)
        decl, sep, body = rest.partition(":=")
        if not sep:
            raise ParseError("rel line needs ':='", lineno, 1)
        rname, _, ar = decl.strip().partition("/")
        if not _IDENT.match(rname) or not ar.isdecimal() or int(ar) < 1:
            raise ParseError(f"bad relation declaration {decl.strip()!r}", lineno, 1)
        arity = int(ar)
        body = body.strip()
        try:
            if body.startswith("orbits"):
                definition = OrbitsDef(_parse_orbit_list(base.signature, body, lineno))
            else:
                definition = FormulaDef(parse_formula(body, lineno))
            rel = Relation(rname, arity, definition)
            validate_relation(rel, base.signature)
        except ParseError:
            raise
        except InputError as exc:
            raise ParseError(str(exc), lineno, 1) from None
        if any(r.name == rname for r in relations):
            raise ParseError(f"reduct {name}: duplicate relation names", lineno, 1)
        relations.append(rel)
    if name in cat.reducts:
        if cat.reducts[name] == Reduct(name, base, tuple(relations)):
            return lineno
        raise ParseError(f"reduct {name} redefined inconsistently", lineno, 1)
    try:
        reduct = Reduct(name, base, tuple(relations))
    except InputError as exc:
        raise ParseError(str(exc), lineno, 1)
    cat.reducts[name] = reduct
    return lineno


def _parse_orbit_list(sig, body, lineno):
    rest = body[len("orbits"):].strip()
    if not (rest.startswith("[") and rest.endswith("]")):
        raise ParseError("orbits literal needs [ ... ]", lineno, 1)
    inner = rest[1:-1].strip()
    if min(accumulate((ch == "[") - (ch == "]") for ch in inner), default=0) < 0:
        raise ParseError("unbalanced brackets in orbits literal", lineno, 1)
    members = [parse_type(sig, chunk) for chunk in split_type_columns(inner, ",") if chunk]
    return tuple(sorted(set(members), key=serialize_type))


def split_type_columns(line: str, sep: str = "|") -> list[str]:
    """Split at separators outside type brackets (types contain pipes and
    commas internally); the chunks are stripped, empty ones kept."""
    out, depth, cur = [], 0, []
    for ch in line:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == sep and depth == 0:
            out.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur).strip())
    return out


# -- formula parsing -----------------------------------------------------------

_TOKEN = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_]*|[()!&|=,])")


def _tokenize(text: str, lineno: int):
    tokens = []
    pos = 0
    end = len(text.rstrip())  # _TOKEN skips the whitespace before a token only
    while pos < end:
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"bad formula character {text[pos]!r}", lineno, pos + 1)
        tokens.append((m.group(1), m.start(1) + 1))
        pos = m.end()
    return tokens


def parse_formula(text: str, lineno: int = 0):
    """Tokens: R(x0,x1,...), x0=x1, !, &, |, parentheses."""
    tokens = _tokenize(text, lineno)
    pos = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            wanted = f" (wanted {expected})" if expected is not None else ""
            raise ParseError(f"formula ended unexpectedly{wanted}", lineno, len(text))
        tok, col = tokens[pos]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, got {tok!r}", lineno, col)
        pos += 1
        return tok, col

    def parse_or():
        parts = [parse_and()]
        while peek() == "|":
            take("|")
            parts.append(parse_and())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def parse_and():
        parts = [parse_not()]
        while peek() == "&":
            take("&")
            parts.append(parse_not())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def parse_not():
        if peek() == "!":
            take("!")
            return Not(parse_not())
        return parse_atom()

    def parse_var():
        tok, col = take()
        m = _VAR.match(tok)
        if not m:
            raise ParseError(f"expected a variable x<i>, got {tok!r}", lineno, col)
        return int(m.group(1))

    def parse_atom():
        if peek() == "(":
            take("(")
            inner = parse_or()
            take(")")
            return inner
        tok, col = take()
        if _VAR.match(tok):
            take("=")
            return Eq(int(_VAR.match(tok).group(1)), parse_var())
        if not _IDENT.match(tok):
            raise ParseError(f"expected an atom, got {tok!r}", lineno, col)
        take("(")
        args = [parse_var()]
        while peek() == ",":
            take(",")
            args.append(parse_var())
        take(")")
        return Atom(tok, tuple(args))

    phi = parse_or()
    if pos != len(tokens):
        tok, col = tokens[pos]
        raise ParseError(f"unexpected trailing token {tok!r}", lineno, col)
    return phi


# -- rendering -----------------------------------------------------------------

def render_class(k: BoundedClass) -> str:
    lines = [f"class {k.name}"]
    sig = " ".join(f"{n}/{a}" for n, a in k.signature.symbols)
    lines.append(f"  sig {sig}")
    for b in k.bounds:
        lines.append(f"  bound {render_literal(b)}")
    flags = []
    if k.homogeneous_asserted:
        flags.append("homogeneous")
    if k.ramsey_asserted:
        flags.append("ramsey")
    if flags:
        lines.append(f"  assert {' '.join(flags)}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def render_reduct(c: Reduct) -> str:
    lines = [f"reduct {c.name} over {c.base.name}"]
    for r in c.relations:
        lines.append(f"  rel {r.name}/{r.arity} := {render_reldef(c.base, r.definition)}")
    lines.append("end")
    return "\n".join(lines) + "\n"
