"""Metamorphic suites on the command line.

A catalog class with every symbol renamed and its bound and rel lines in
reverse order gets the same verdict lines from check, orbits, behaviours,
core and bidef.  A YES certificate of bidef or biint with one row of ξ or
η sent to another type is rejected by verify, while the certificate as
written verifies.
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


# -- tampered YES certificates --------------------------------------------------

YES_QUERIES = {
    "bidef-fo": ["bidef", "--reducts", "Qlt", "QltRev", "--mode", "fo"],
    "biint-pp": ["biint", "--reducts", "Qlt", "QltRev", "--mode", "pp"],
}


@pytest.fixture(scope="module")
def yes_certificates(tmp_path_factory):
    certs = {}
    for name, (command, *flags) in YES_QUERIES.items():
        out = tmp_path_factory.mktemp(name)
        code, stdout, _ = run([command, catalog_path("linord.cls"), *flags,
                               "--witness-out", out])
        assert code == 0 and "verdict: YES" in stdout
        certs[name] = json.loads((out / "certificate.json").read_text())
    return certs


def tampered(cert):
    """(label, copy of cert) for every row of ξ and η, with the row's value
    moved to the type of the next index in its target's type order."""
    witness = cert["witness"]
    for table, target in (("xi", "core_d"), ("eta", "core_c")):
        if not witness.get(table):
            continue
        base = parse_input(cert[target]["base"]).sole_class()
        types = serialized_types(base, cert[target]["k"])
        rows = witness[table].splitlines()
        for i, row in enumerate(rows):
            left, value = row.split(" -> ")
            moved = types[(types.index(value) + 1) % len(types)]
            edited = json.loads(json.dumps(cert))
            edited["witness"][table] = "\n".join(
                rows[:i] + [f"{left} -> {moved}"] + rows[i + 1:])
            yield f"{table} row {i}", edited


@pytest.mark.parametrize("name", sorted(YES_QUERIES))
def test_tampered_certificate_rejected(name, yes_certificates, tmp_path):
    cert = yes_certificates[name]
    (tmp_path / "certificate.json").write_text(json.dumps(cert))
    code, out, err = run(["verify", tmp_path])
    assert code == 0 and "verdict: CERTIFICATE-OK" in out
    labels = []
    for label, edited in tampered(cert):
        (tmp_path / "certificate.json").write_text(json.dumps(edited))
        code, out, err = run(["verify", tmp_path])
        assert code == 1 and "FAILED:" in out, (label, out)
        assert "Traceback" not in out + err, label
        labels.append(label)
    # ξ and η both, one label per row of the 3 types at k=2
    assert len(labels) == 6
