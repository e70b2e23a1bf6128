"""Metamorphic suites on the command line.

A catalog class with every symbol renamed and its bound and rel lines in
reverse order gets the same verdict lines from check, orbits, behaviours,
core and bidef.  A YES certificate of bidef or biint with one row of ξ or
η sent to another type, or a NOT-DEFINABLE certificate with one row of
its polymorphism table sent to another type, is rejected by verify, while
the certificate as written verifies.
"""

import contextlib
import io
import json
import re

import pytest

from agekit.cli import main
from agekit.ktypes import serialized_types
from agekit.parser import parse_input
from conftest import catalog_path, catalog_text


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


# -- renamed symbols, reversed bound and rel lines ------------------------------

# a reduct of two relations, so that reversing the rel lines reorders them
PAIRS = {
    "linord": "reduct Pair over linord\n  rel lt/2 := lt(x0,x1)\n"
              "  rel neq/2 := !(x0=x1)\nend\n",
    "graphs": "reduct Pair over graphs\n  rel E/2 := E(x0,x1)\n"
              "  rel N/2 := !(E(x0,x1)) & !(x0=x1)\nend\n",
    "trifree": "reduct Pair over trifree\n  rel E/2 := E(x0,x1)\n"
               "  rel N/2 := !(E(x0,x1)) & !(x0=x1)\nend\n",
}

# reduct pairs per class for fo bidef, and the verdicts they get.  The core
# of (V; E) on the random graph is the infinite clique, with 2 types at k=2
# to Pair's 3; the triangle-free graph is its own core
BIDEF = {
    "linord": ((("Qlt", "QltRev"), ("Qlt", "Qneq")), {"YES", "NO"}),
    "graphs": ((("Rg", "Pair"),), {"NO"}),
    "trifree": ((("Tf", "Pair"),), {"YES"}),
}

# the lines of a report that state a verdict; none of them names a symbol
VERDICT = re.compile(r"(verdict|orbit count|realizable behaviours|image types|"
                     r"optimally presented|expanded signatures|reason|  amalgamation)\b")


def renamed(name: str) -> str:
    # reversed, so that the new names sort in another order
    return "m" + name[::-1]


def metamorphosed(text: str) -> tuple[str, dict[str, str]]:
    """The text with every class, symbol, reduct and relation name renamed
    and the bound lines of each class and the rel lines of each reduct in
    reverse order; and the renaming."""
    names = set(re.findall(r"^\s*(?:class|reduct)\s+(\w+)", text, re.M))
    names |= set(re.findall(r"^\s*rel\s+(\w+)/", text, re.M))
    for line in re.findall(r"^\s*sig\s+(.*)$", text, re.M):
        names |= set(re.findall(r"(\w+)/\d+", line))
    mapping = {n: renamed(n) for n in names}
    word = re.compile(r"\b(" + "|".join(sorted(names, key=len, reverse=True)) + r")\b")
    lines = [line if line.lstrip().startswith("#")
             else word.sub(lambda m: mapping[m.group(1)], line)
             for line in text.splitlines()]
    block: list[int] = []  # the bound or rel lines of the current class or reduct
    for i, line in enumerate(lines):
        key = line.split()[0] if line.strip() else ""
        if key in ("bound", "rel"):
            block.append(i)
        elif key == "end":
            rows = [lines[j] for j in reversed(block)]
            for j, row in zip(block, rows):
                lines[j] = row
            block = []
    return "\n".join(lines) + "\n", mapping


def commands(name: str, path, names) -> list[list]:
    out = [["check", path], ["orbits", path, "--k", "3"], ["behaviours", path, "--k", "3"]]
    text = catalog_text(f"{name}.cls") + PAIRS[name]
    for reduct in re.findall(r"^reduct\s+(\w+)", text, re.M):
        out.append(["core", path, "--reduct", names(reduct)])
    for a, b in BIDEF[name][0]:
        out.append(["bidef", path, "--reducts", names(a), names(b)])
    return out


@pytest.mark.parametrize("name", ["linord", "graphs", "trifree"])
def test_renamed_and_reordered_keep_every_verdict(name, tmp_path):
    text = catalog_text(f"{name}.cls") + PAIRS[name]
    changed, mapping = metamorphosed(text)
    assert changed != text and parse_input(changed).bounded_class(renamed(name))
    plain, moved = tmp_path / "plain.cls", tmp_path / "moved.cls"
    plain.write_text(text)
    moved.write_text(changed)
    answers = set()
    for argv, argv_moved in zip(commands(name, plain, lambda n: n),
                                commands(name, moved, mapping.__getitem__)):
        code, out, err = run(argv)
        code_moved, out_moved, err_moved = run(argv_moved)
        assert code in (0, 1) and "error" not in err + err_moved, (argv, err, err_moved)
        verdicts = [line for line in out.splitlines() if VERDICT.match(line)]
        assert verdicts, argv
        assert code_moved == code
        assert [line for line in out_moved.splitlines() if VERDICT.match(line)] == verdicts
        answers |= {line for line in verdicts if line.startswith("verdict:")}
    assert answers == {"verdict: OK"} | {f"verdict: {v}" for v in BIDEF[name][1]}


# -- tampered witness certificates ------------------------------------------------

# name: (query after the catalog file, exit code, verdict, rows of its witness tables)
WITNESS_QUERIES = {
    "bidef-fo": (["bidef", "--reducts", "Qlt", "QltRev", "--mode", "fo"], 0, "YES", 6),
    "biint-pp": (["biint", "--reducts", "Qlt", "QltRev", "--mode", "pp"], 0, "YES", 6),
    "definable-pp": (["definable", "--reduct", "Qlt", "--mode", "pp", "--query", "!(x0=x1)",
                      "--query-arity", "2"], 1, "NOT-DEFINABLE", 9),
}


@pytest.fixture(scope="module")
def witness_certificates(tmp_path_factory):
    certs = {}
    for name, ((command, *flags), expected, verdict, _) in WITNESS_QUERIES.items():
        out = tmp_path_factory.mktemp(name)
        code, stdout, _ = run([command, catalog_path("linord.cls"), *flags,
                               "--witness-out", out])
        assert code == expected and f"verdict: {verdict}" in stdout
        certs[name] = json.loads((out / "certificate.json").read_text())
    return certs


def witness_tables(cert):
    """(object, key, target core block) of each witness table in cert: ξ and η
    of a bidef or biint certificate, or the polymorphism table of a
    definable one, whose witness is a string over the core."""
    witness = cert["witness"]
    if isinstance(witness, str):
        return [(cert, "witness", "core")]
    return [(witness, "xi", "core_d"), (witness, "eta", "core_c")]


def tampered(cert):
    """(label, copy of cert) for every row of every witness table, with the
    row's value moved to the type of the next index in its target's type order."""
    for t, (holder, table, target) in enumerate(witness_tables(cert)):
        if not holder[table]:
            continue
        base = parse_input(cert[target]["base"]).sole_class()
        types = serialized_types(base, cert[target]["k"])
        rows = holder[table].splitlines()
        for i, row in enumerate(rows):
            left, value = row.split(" -> ")
            moved = types[(types.index(value) + 1) % len(types)]
            edited = json.loads(json.dumps(cert))
            copy, _, _ = witness_tables(edited)[t]
            copy[table] = "\n".join(rows[:i] + [f"{left} -> {moved}"] + rows[i + 1:])
            yield f"{table} row {i}", edited


def verify_rejects(cert, directory, label):
    (directory / "certificate.json").write_text(json.dumps(cert))
    code, out, err = run(["verify", directory])
    assert code == 1 and "FAILED:" in out, (label, out)
    assert "Traceback" not in out + err, label


@pytest.mark.parametrize("name", sorted(WITNESS_QUERIES))
def test_tampered_certificate_rejected(name, witness_certificates, tmp_path):
    cert = witness_certificates[name]
    (tmp_path / "certificate.json").write_text(json.dumps(cert))
    code, out, err = run(["verify", tmp_path])
    assert code == 0 and "verdict: CERTIFICATE-OK" in out
    labels = []
    for label, edited in tampered(cert):
        verify_rejects(edited, tmp_path, label)
        labels.append(label)
    # one label per row: ξ and η over the 3 types at k=2, or the 3 x 3
    # argument pairs of the binary polymorphism table
    assert len(labels) == WITNESS_QUERIES[name][3]


def test_polymorphism_value_outside_the_core_rejected(witness_certificates, tmp_path):
    """Two unordered points are no 2-type of (Q,<). The realizability check
    never reads the rows (x<y, y<x) and (y<x, x<y), so only the check that
    every value is a type of the core rejects them there."""
    cert = json.loads(json.dumps(witness_certificates["definable-pp"]))
    lt, gt = "[{0}{1}|size=2: lt(0,1)]", "[{0}{1}|size=2: lt(1,0)]"
    rows = cert["witness"].splitlines()
    edited = [f"{row.split(' -> ')[0]} -> [{{0}}{{1}}|size=2:]"
              if row.startswith((f"{lt} | {gt} ->", f"{gt} | {lt} ->")) else row
              for row in rows]
    assert sum(a != b for a, b in zip(rows, edited)) == 2
    cert["witness"] = "\n".join(edited)
    verify_rejects(cert, tmp_path, "unordered value")
