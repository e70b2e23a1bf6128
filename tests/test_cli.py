"""CLI surface: grammar errors with positions, round-trips, subcommands,
exit codes, certificate paths, determinism."""

import contextlib
import copy
import gc
import importlib.util
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agekit import canonical, cli
from agekit.ages import in_age
from agekit.cli import main
from agekit.errors import ParseError
from agekit.parser import Catalog, parse_formula, parse_input, render_class, render_reduct
from conftest import CATALOG_FILES, UNARY, _hypergraph3_text, catalog_path, catalog_text


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def assert_golden(got, golden: Path) -> None:
    """got (str, or bytes for a certificate file) equals the golden file
    exactly, trailing newline included.  A failure names the first
    differing line, so no diff of a long report is built."""
    want = golden.read_bytes() if isinstance(got, bytes) else golden.read_text()
    if got == want:
        return
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    line = next((i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w),
                min(len(got_lines), len(want_lines)))

    def at(lines):
        return repr(lines[line]) if line < len(lines) else "the end of the text"

    pytest.fail(f"{golden}: first difference at line {line + 1}: got {at(got_lines)}, "
                f"expected {at(want_lines)}", pytrace=False)


class TestParsing:
    def test_linord_normalizes_to_four_bounds(self):
        # a redundant extra bound collapses under normalization
        text = catalog_text("linord.cls") + """
class fat
  sig lt/2
  bound size=1: lt(0,0)
  bound size=2: lt(0,1) lt(1,0)
  bound size=2:
  bound size=3: lt(0,1) lt(1,2) lt(2,0)
  bound size=3: lt(0,1) lt(1,0) lt(2,2)
  bound size=2: lt(1,0) lt(0,1)
  assert homogeneous ramsey
end
"""
        cat = parse_input(text)
        assert len(cat.bounded_class("fat").bounds) == 4
        assert cat.bounded_class("fat").bounds == cat.bounded_class("linord").bounds

    def test_undeclared_class_is_semantic_error(self):
        with pytest.raises(ParseError) as err:
            parse_input("reduct r over nowhere\n  rel a/1 := x0=x0\nend\n")
        assert "undeclared class" in str(err.value)

    def test_empty_file_is_empty_catalog(self):
        cat = parse_input("")
        assert not cat.classes and not cat.reducts

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_input("class a\n  sig E/2\n  bond size=1: E(0,0)\nend\n")
        assert err.value.line == 3

    def test_formula_error_carries_position(self):
        bad = ("class a\n  sig E/2\n  assert homogeneous\nend\n"
               "reduct r over a\n  rel q/2 := E(x0,)\nend\n")
        with pytest.raises(ParseError) as err:
            parse_input(bad)
        assert err.value.line == 6

    def test_arity_mismatch_in_bound(self):
        with pytest.raises(ParseError):
            parse_input("class a\n  sig E/2\n  bound size=1: E(0)\nend\n")

    def test_formula_whitespace_ignored(self):
        assert parse_formula("lt(x0,x1) ") == parse_formula("lt(x0,x1)")
        assert parse_formula(" \tlt( x0 , x1 )\n") == parse_formula("lt(x0,x1)")
        with pytest.raises(ParseError, match="ended unexpectedly"):
            parse_formula("  ")

    def test_comments_and_blanks_ignored(self):
        cat = parse_input("# nothing\n\n" + catalog_text("point.cls"))
        assert "point" in cat.classes


class TestRoundTrip:
    def test_catalog_files_round_trip_byte_identically(self):
        for name in CATALOG_FILES:
            cat = parse_input(catalog_text(name))
            rendered = "".join(
                render_class(cat.classes[c]) for c in cat.classes
            ) + "".join(render_reduct(cat.reducts[r]) for r in cat.reducts)
            cat2 = parse_input(rendered)
            rendered2 = "".join(
                render_class(cat2.classes[c]) for c in cat2.classes
            ) + "".join(render_reduct(cat2.reducts[r]) for r in cat2.reducts)
            assert rendered == rendered2
            assert cat.classes == cat2.classes
            assert cat.reducts.keys() == cat2.reducts.keys()

    def test_orbit_literal_reducts_round_trip(self, catalog):
        from agekit.core import compute_core
        from agekit.definability import expand
        p = compute_core(catalog.reduct("Rg"))
        expanded = expand(p, 2, "ep")
        text = render_class(p.base_out) + render_reduct(expanded)
        cat = parse_input(text)
        again = render_class(cat.sole_class()) + render_reduct(
            cat.reduct(expanded.name))
        assert text == again


class TestSubcommands:
    def test_check_ok(self, capsys):
        code, out = run_cli(["check", catalog_path("linord.cls")], capsys)
        assert code == 0 and "verified up to cap" in out

    def test_check_reports_failure(self, capsys):
        code, out = run_cli(["check", catalog_path("maxdeg1.cls")], capsys)
        assert code == 2 and "FAILS" in out

    def test_orbits(self, capsys):
        code, out = run_cli(
            ["orbits", catalog_path("linord.cls"), "--k", "2"], capsys)
        assert code == 0
        assert "orbit count at level 2: 3" in out

    @pytest.mark.parametrize("name,count", [("linord", 541), ("graphs", 1895)])
    def test_orbits_at_level_5(self, capsys, name, count):
        # Fubini number 541; sum of S(5,b) * 2^(b(b-1)/2) is 1,895
        code, out = run_cli(["orbits", catalog_path(f"{name}.cls"), "--k", "5"], capsys)
        assert code == 0 and f"orbit count at level 5: {count}\n" in out

    def test_behaviours(self, capsys):
        code, out = run_cli(
            ["behaviours", catalog_path("linord.cls")], capsys)
        assert code == 0 and "realizable behaviours: 3" in out

    def test_core_golden_files(self, tmp_path, capsys):
        golden = Path(__file__).parent / "golden" / "qleq_core"
        out_dir = tmp_path / "core"
        code, out = run_cli(
            ["core", catalog_path("linord.cls"), "--reduct", "Qleq",
             "--witness-out", str(out_dir)], capsys)
        assert code == 0
        for name in ("core_base.cls", "core_reduct.cls", "core_witness.bhv"):
            assert_golden((out_dir / name).read_bytes(), golden / name)

    def test_core_report_matches_golden(self, capsys):
        golden = Path(__file__).parent / "golden" / "qleq_core" / "report.txt"
        code, out = run_cli(
            ["core", catalog_path("linord.cls"), "--reduct", "Qleq"], capsys)
        assert code == 0
        assert_golden(out, golden)

    def test_probe_report_matches_golden(self, capsys):
        # realize cap 2 admits behaviours whose images fail: 88 incoherent
        # and 56 outside-target-age lines over 40 trials
        golden = Path(__file__).parent / "golden" / "probe_trifree_cap2.txt"
        code, out = run_cli(
            ["probe", catalog_path("trifree.cls"), "--realize-cap", "2",
             "--trials", "40", "--seed", "3"], capsys)
        assert code == 1
        assert_golden(out, golden)

    def test_behaviours_graphs_k4_matches_golden(self, capsys):
        # realizability stops at 3 points, not at 2k = 8, and reports the
        # same behaviours and caps as the check to 8 points
        golden = Path(__file__).parent / "golden" / "behaviours_graphs_k4.txt"
        code, out = run_cli(["behaviours", catalog_path("graphs.cls"), "--k", "4"],
                            capsys)
        assert code == 0
        assert_golden(out, golden)

    def test_behaviours_linord_k5_matches_golden(self, capsys):
        # 541 rows at level 5, written before the row search was rebuilt on
        # arc consistency alone
        golden = Path(__file__).parent / "golden" / "behaviours_linord_k5.txt"
        code, out = run_cli(["behaviours", catalog_path("linord.cls"), "--k", "5"],
                            capsys)
        assert code == 0
        assert_golden(out, golden)

    @pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
    def test_definable_expansion_matches_golden(self, fmt, suffix, capsys):
        # 2,054 added relations, written while orbit unions were frozensets
        # of types; the json report also renders the expanded reduct
        golden = Path(__file__).parent / "golden" / "definable_M1_ep_n3" / f"report.{suffix}"
        code, out = run_cli(
            ["definable", catalog_path("maxdeg1.cls"), "--reduct", "M1", "--mode", "ep",
             "--n", "3", "--format", fmt], capsys)
        assert code == 0
        assert_golden(out, golden)

    def test_bidef_tf_pp_matches_golden(self, tmp_path, monkeypatch, capsys):
        # the report and every certificate file of a pp expansion, written
        # while orbit unions were frozensets of types
        golden = Path(__file__).parent / "golden" / "bidef_Tf_Tf_pp"
        monkeypatch.chdir(tmp_path)
        code, out = run_cli(
            ["bidef", catalog_path("trifree.cls"), "--reducts", "Tf", "Tf", "--mode", "pp",
             "--witness-out", "cert"], capsys)
        assert code == 0
        assert_golden(out, golden / "report.txt")
        written = sorted(path.name for path in (tmp_path / "cert").iterdir())
        assert written == sorted(path.name for path in golden.iterdir()
                                 if path.name != "report.txt")
        for name in written:
            assert_golden((tmp_path / "cert" / name).read_bytes(), golden / name)

    @pytest.mark.parametrize("fmt, suffix", [("text", "txt"), ("json", "json")])
    def test_definable_query_certificate_matches_golden(self, fmt, suffix, tmp_path,
                                                        monkeypatch, capsys):
        # the query relation's members and the core's image types, in the
        # report and the certificate, written while orbit unions were
        # frozensets of types
        golden = Path(__file__).parent / "golden" / "definable_Qlt_pp_neq"
        monkeypatch.chdir(tmp_path)
        code, out = run_cli(
            ["definable", catalog_path("linord.cls"), "--reduct", "Qlt", "--mode", "pp",
             "--query", "!(x0=x1)", "--query-arity", "2", "--witness-out", "cert",
             "--format", fmt], capsys)
        assert code == 1
        assert_golden(out, golden / f"report.{suffix}")
        written = sorted(path.name for path in (tmp_path / "cert").iterdir())
        assert written == sorted(path.name for path in golden.iterdir()
                                 if not path.name.startswith("report."))
        for name in written:
            assert_golden((tmp_path / "cert" / name).read_bytes(), golden / name)

    def test_definable_query_orbits_matches_golden(self, capsys):
        # a two-type union given in type-index order (non-edge, edge): the
        # relation line lists its members in serialization order
        golden = Path(__file__).parent / "golden" / "definable_Tf_ep_neq_orbits.txt"
        code, out = run_cli(
            ["definable", catalog_path("trifree.cls"), "--reduct", "Tf", "--mode", "ep",
             "--query-orbits", "[{0}{1}|size=2:] | [{0}{1}|size=2: E(0,1) E(1,0)]"], capsys)
        assert code == 0
        assert_golden(out, golden)

    def test_core_json_matches_golden(self, capsys):
        # image_types lists the 14 level-3 types the witness hits, sorted
        golden = Path(__file__).parent / "golden" / "core_Tf_k3.json"
        code, out = run_cli(
            ["core", catalog_path("trifree.cls"), "--reduct", "Tf", "--k", "3",
             "--format", "json"], capsys)
        assert code == 0
        assert_golden(out, golden)

    def test_bidef_yes_then_verify(self, tmp_path, capsys):
        w = tmp_path / "w"
        code, _ = run_cli(
            ["bidef", catalog_path("linord.cls"), catalog_path("linord.cls"),
             "--reducts", "Qlt", "QltRev", "--mode", "fo",
             "--witness-out", str(w)], capsys)
        assert code == 0
        code, out = run_cli(["verify", str(w)], capsys)
        assert code == 0 and "CERTIFICATE-OK" in out

    def test_core_with_cap_above_8_then_verify(self, tmp_path, capsys):
        # the verifier canonicalizes age members up to the recorded cap 9
        w = tmp_path / "w"
        code, _ = run_cli(["core", catalog_path("linord.cls"), "--reduct", "Qleq",
                           "--k", "3", "--realize-cap", "9", "--witness-out", str(w)],
                          capsys)
        assert code == 0
        code, out = run_cli(["verify", str(w)], capsys)
        assert code == 0 and "CERTIFICATE-OK" in out

    def test_bidef_no_exit_code(self, capsys):
        code, out = run_cli(
            ["bidef", catalog_path("linord.cls"), catalog_path("linord.cls"),
             "--reducts", "Qleq", "Qlt", "--mode", "fo"], capsys)
        assert code == 1 and "verdict: NO" in out

    def test_biint_precondition_exit_code(self, capsys):
        code, out = run_cli(
            ["biint", catalog_path("maxdeg1.cls"), catalog_path("maxdeg1.cls"),
             "--reducts", "M1", "M1", "--mode", "ep"], capsys)
        assert code == 2 and "PRECONDITION-FAILED" in out

    def test_input_error_exit_code(self, capsys):
        code = main(["orbits", "/nonexistent/file.cls"])
        capsys.readouterr()
        assert code == 3

    def test_formula_error_has_one_position_prefix(self, capsys, tmp_path):
        bad = tmp_path / "bad.cls"
        bad.write_text("class a\n  sig E/2\n  assert homogeneous\nend\n"
                       "reduct r over a\n  rel R/2 := E(x0,\nend\n")
        code = main(["orbits", str(bad)])
        err = capsys.readouterr().err
        assert code == 3
        assert len(re.findall(r"line \d+, col \d+:", err)) == 1
        assert "line 6, col " in err and "wanted None" not in err

    def test_relation_error_has_its_own_line(self, capsys, tmp_path):
        head = "class a\n  sig E/2\n  assert homogeneous\nend\nreduct r over a\n"
        for body, line in (("  rel S/2 := F(x0,x1)\nend\n", 6),
                           ("  rel S/2 := E(x0,x1)\n\n  rel S/2 := E(x1,x0)\nend\n", 8)):
            bad = tmp_path / "bad.cls"
            bad.write_text(head + body)
            code = main(["orbits", str(bad)])
            err = capsys.readouterr().err
            assert code == 3
            assert f"error: line {line}, col 1: " in err

    def test_definable_query_exit_codes(self, capsys):
        base = ["definable", catalog_path("linord.cls"), "--reduct", "Qlt",
                "--mode", "pp"]
        code, out = run_cli(
            base + ["--query", "!(x0=x1)", "--query-arity", "2"], capsys)
        assert code == 1 and "NOT-DEFINABLE" in out
        code, out = run_cli(
            base + ["--query", "lt(x0,x1)", "--query-arity", "2"], capsys)
        assert code == 0 and "verdict: DEFINABLE" in out
        assert run_cli(base + ["--query", "lt(x0,x1) ", "--query-arity", "2"],
                       capsys) == (code, out)

    def test_json_format(self, capsys):
        code, out = run_cli(
            ["orbits", catalog_path("linord.cls"), "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["count"] == 3 and len(data["orbits"]) == 3

    def test_probe_subcommand(self, capsys):
        code, out = run_cli(
            ["probe", catalog_path("linord.cls"), "--trials", "20",
             "--max-size", "6", "--seed", "5"], capsys)
        assert code == 0 and "verdict: OK" in out


    def test_core_keeps_the_orbits_inside_the_core_base(self, capsys, tmp_path):
        # the core of (Q,<=) is one point: of le's two orbits only the
        # diagonal survives in the core base
        path = tmp_path / "le.cls"
        path.write_text("reduct Le over linord\n"
                        "  rel le/2 := orbits [[{0,1}|size=1:], [{0}{1}|size=2: lt(0,1)]]\n"
                        "end\n")
        code, out = run_cli(["core", catalog_path("linord.cls"), str(path),
                             "--reduct", "Le"], capsys)
        assert code == 0 and "image types: 1 of 3" in out
        assert "    rel le/2 := orbits [ [{0,1}|size=1:] ]\n" in out

    def test_pp_no_notes_the_caps(self, capsys):
        code, out = run_cli(["bidef", catalog_path("linord.cls"), "--reducts", "Qleq",
                             "Qlt", "--mode", "pp", "--k", "3"], capsys)
        assert code == 1
        assert ("note: pp-mode NO is relative to the caps above\n"
                "reason: type counts at k=3 differ: 1 vs 13\nverdict: NO\n") in out

    def test_biint_pp_needs_transitive_bases(self, capsys, tmp_path):
        path = tmp_path / "colored.cls"
        path.write_text(UNARY.replace("class U", "class colored")
                        .replace("over U", "over colored"))
        code, out = run_cli(["biint", str(path), "--reducts", "Up", "Up",
                             "--mode", "pp"], capsys)
        assert code == 2
        assert ("reason: first input base colored is not transitive: 2 1-types\n"
                "verdict: PRECONDITION-FAILED\n") in out


class TestExpansionScale:
    def test_arity_three_bidef_within_1gib(self):
        # 8,199 expanded relations per side: the relation matching is forced
        # by the behaviour, never searched over signature permutations
        import resource

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        r = subprocess.run(
            [sys.executable, "-m", "agekit.cli", "bidef", catalog_path("linord.cls"),
             "--reducts", "Qlt", "QltRev", "--mode", "fo", "--k", "3", "--n", "3"],
            capture_output=True, text=True, timeout=60, preexec_fn=limit_memory)
        assert r.returncode == 0, r.stderr
        assert "verdict: YES" in r.stdout and "lt->rev" in r.stdout.split()
        xi = r.stdout.split("witness xi:")[1].split("witness eta:")[0]
        assert ("[{0}{1}{2}|size=3: lt(0,1) lt(0,2) lt(1,2)] -> "
                "[{0}{1}{2}|size=3: lt(1,0) lt(2,0) lt(2,1)]") in xi


REPO = Path(__file__).resolve().parents[1]
THOMAS = str(REPO / "perfbench" / "inputs" / "thomas.cls")


def _benchmark_queries():
    """Every query of perfbench/queries.py, in workload order; the benchmark
    is no package, so the module is loaded from its file."""
    spec = importlib.util.spec_from_file_location("bench_queries",
                                                  REPO / "perfbench" / "queries.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclass reads its own module
    spec.loader.exec_module(module)
    return [q for queries in module.WORKLOADS.values() for q in queries]


BENCH_QUERIES = _benchmark_queries()


@pytest.fixture(scope="module")
def bench_outputs(tmp_path_factory):
    """`exit: <code>` and then the stdout of every benchmark query, run in
    process in order at seed 7 (a verify query reads the certificate an
    earlier query wrote), with the certificate directory written {certs}."""
    certs = str(tmp_path_factory.mktemp("certs"))
    outputs = {}
    cwd = os.getcwd()
    os.chdir(REPO)  # the queries name their inputs from the repository root
    try:
        for q in BENCH_QUERIES:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main(q.argv(7, certs))
            outputs[q.name] = f"exit: {code}\n" + out.getvalue().replace(certs, "{certs}")
    finally:
        os.chdir(cwd)
    return outputs


@pytest.mark.parametrize("name", [q.name for q in BENCH_QUERIES])
def test_benchmark_query_matches_golden(bench_outputs, name):
    assert_golden(bench_outputs[name], Path(__file__).parent / "golden" / "bench" / f"{name}.txt")


class TestDefinabilityVerdicts:
    """fo/ep verdicts come from the relation-preserving self-maps of the core,
    not from every orbit union of the base class."""

    @pytest.mark.parametrize("pair", [("Qlt", "Qneq"), ("Qneq", "Qlt")])
    def test_qlt_qneq_fo_is_no(self, capsys, pair):
        # Aut(Q,!=) is Sym(Q), so < is not fo-definable from != (Cameron 1976)
        code, out = run_cli(["bidef", catalog_path("linord.cls"), "--reducts", *pair,
                             "--mode", "fo"], capsys)
        assert code == 1 and "verdict: NO" in out

    def test_betw_cyc_fo_is_no(self, capsys):
        code, out = run_cli(["bidef", catalog_path("linord.cls"), THOMAS,
                             "--reducts", "Betw", "Cyc", "--mode", "fo", "--k", "3"], capsys)
        assert code == 1 and "verdict: NO" in out

    def test_ep_query_of_disequality_in_qlt(self, capsys):
        # x0<x1 | x1<x0 is an existential positive definition
        code, out = run_cli(["definable", catalog_path("linord.cls"), "--reduct", "Qlt",
                             "--mode", "ep", "--query", "!(x0=x1)", "--query-arity", "2"],
                            capsys)
        assert code == 0 and "verdict: DEFINABLE" in out

    def test_ep_query_witness_verifies(self, tmp_path, capsys):
        # the reversal preserves != and moves <
        out_dir = tmp_path / "D"
        code, out = run_cli(["definable", catalog_path("linord.cls"), "--reduct", "Qneq",
                             "--mode", "ep", "--query", "lt(x0,x1)", "--query-arity", "2",
                             "--witness-out", str(out_dir)], capsys)
        assert code == 1 and "verdict: NOT-DEFINABLE" in out
        cert = json.loads((out_dir / "certificate.json").read_text())
        assert cert["witness_arity"] == 1
        code, out = run_cli(["verify", str(out_dir)], capsys)
        assert code == 0 and "CERTIFICATE-OK" in out

    def test_definable_level_follows_the_arity(self, capsys):
        base = ["definable", catalog_path("linord.cls"), "--reduct", "Qlt"]
        code, out = run_cli(base + ["--mode", "ep", "--n", "3"], capsys)
        assert code == 0 and "caps: k=3 " in out and "added relations: 8198" in out
        code, out = run_cli(base + ["--mode", "pp", "--query", "lt(x0,x1) & lt(x1,x2)",
                                    "--query-arity", "3"], capsys)
        assert code == 0 and "caps: k=3 " in out and "verdict: DEFINABLE" in out


class TestQueryOrbits:
    """--query-orbits names the queried relation by its types: serialized
    types of one level, separated by |."""

    BASE = ["definable", catalog_path("linord.cls"), "--reduct", "Qlt", "--mode", "pp"]

    def test_disequality_as_a_type_list(self, capsys):
        by_types = run_cli(self.BASE + ["--query-orbits", "[{0}{1}|size=2: lt(0,1)] | "
                                        "[{0}{1}|size=2: lt(1,0)]"], capsys)
        by_formula = run_cli(self.BASE + ["--query", "!(x0=x1)", "--query-arity", "2"],
                             capsys)
        assert by_types == by_formula and by_types[0] == 1

    @pytest.mark.parametrize("orbits, message", [
        ("[{0}|size=1:] | [{0}{1}|size=2: lt(0,1)]", "must share one level"),
        ("[{0}{1}|size=2:]", "[{0}{1}|size=2:] is not a type of the core base"),
        (" ", "bad type serialization: ''"),
        ("|", "bad type serialization: ''"),
        ("]|[", "bad type serialization: ']|['"),
        ("[[{0}{1}|size=2: lt(0,1)]", "bad partition in type: '[{0}{1}'"),
    ], ids=["mixed-levels", "not-a-type", "empty", "empty-columns", "close-before-open",
            "open-twice"])
    def test_refused(self, capsys, orbits, message):
        code = main(self.BASE + ["--query-orbits", orbits])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "" and message in captured.err


_UNKNOWN = "unrecognized arguments"  # the parser's refusal of a flag it never declares


class TestExitCodes:
    """Usage errors exit 3 like input errors (2 is PRECONDITION-FAILED);
    an internal error exits 4 and says it is a bug."""

    @pytest.mark.parametrize("argv", [
        ["core", catalog_path("linord.cls"), "--reduct", "Qlt", "--k", "two"],
        ["orbits", catalog_path("linord.cls"), "--no-such-flag"],
        ["behaviours", catalog_path("linord.cls"), "--jobs", "4"],
        ["no-such-command"],
        [],
    ])
    def test_usage_error(self, argv):
        r = subprocess.run([sys.executable, "-m", "agekit.cli", *argv],
                           capture_output=True, text=True)
        assert r.returncode == 3
        assert "usage: agekit" in r.stderr and "error:" in r.stderr
        assert "Traceback" not in r.stderr and r.stdout == ""

    @pytest.mark.parametrize("flags,named", [
        (["--max-size", "0"], "--max-size"),
        (["--max-size", "-2"], "--max-size"),
        (["--trials", "-3"], "--trials"),
    ], ids=["max-size-0", "max-size-negative", "trials-negative"])
    def test_probe_flag_out_of_range(self, capsys, flags, named):
        code = main(["probe", catalog_path("graphs.cls"), *flags])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert named in captured.err and "internal error" not in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv,named", [
        (["probe", "graphs.cls", "--realize-cap", "0"], "--realize-cap must be >= 1"),
        (["behaviours", "graphs.cls", "--realize-cap", "-1"], "--realize-cap must be >= 1"),
        (["check", "trifree.cls", "--ap-cap", "0"], "--ap-cap must be >= 1"),
        (["definable", "linord.cls", "--reduct", "Qlt", "--mode", "pp",
          "--arity-cap", "0"], "--arity-cap must be >= 1"),
        (["orbits", "graphs.cls", "--k", "-1"], "--k must be >= 1"),
        (["behaviours", "graphs.cls", "--k", "0"], "--k must be >= 1"),
        (["probe", "graphs.cls", "--k", "1"], "--k must be >= 2"),
        (["core", "linord.cls", "--reduct", "Qlt", "--k", "1"], "--k must be >= 2"),
        (["bidef", "linord.cls", "--reducts", "Qlt", "QltRev", "--k", "1"],
         "--k must be >= 2"),
        (["bidef", "linord.cls", "--reducts", "Qlt", "QltRev", "--n", "1"],
         "--n must be >= 2 for these inputs, got 1"),
        (["biint", "linord.cls", "--reducts", "Qlt", "QltRev", "--n", "1"],
         "--n must be >= 2 for these inputs, got 1"),
        (["definable", "linord.cls", "--reduct", "Qlt", "--n", "0"], "--n must be >= 1"),
        (["definable", "linord.cls", "--reduct", "Qlt", "--query", "x0=x0",
          "--query-arity", "0"], "--query-arity must be >= 1"),
    ], ids=["probe-realize-cap-0", "behaviours-realize-cap-negative", "check-ap-cap-0",
            "definable-arity-cap-0", "orbits-k-negative", "behaviours-k-0",
            "probe-k-below-arity", "core-k-below-arity", "bidef-k-below-arity",
            "bidef-n-below-arity", "biint-n-below-arity",
            "definable-n-0", "definable-query-arity-0"])
    def test_numeric_flag_out_of_range(self, capsys, argv, named):
        # checked before any engine call: the message names the flag, never
        # the engine function the value would have reached
        code = main([argv[0], catalog_path(argv[1]), *argv[2:]])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert named in captured.err
        assert not re.search(r"\b[a-z]+_[a-z_]+:", captured.err)
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("text", [
        "class a\n  sig E/3 F/3\nend\n",
        "class b\n  sig E/4\n  bound size=1: E(0,0,0,0)\nend\n",
    ], ids=["two-ternary", "quaternary"])
    def test_amalgamation_too_large(self, capsys, tmp_path, text):
        # a one-point base has 2^14 extensions: about 2^28 diagrams, each
        # with 2^24 candidate amalgams, refused before the first is tested
        path = tmp_path / "big.cls"
        path.write_text(text)
        start = time.monotonic()
        code = main(["check", str(path)])
        assert time.monotonic() - start < 5.0
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "lower --ap-cap" in captured.err
        assert "Traceback" not in captured.err and "internal error" not in captured.err

    def test_probe_zero_trials_is_valid(self, capsys):
        code, out = run_cli(["probe", catalog_path("graphs.cls"), "--trials", "0"], capsys)
        assert code == 0 and "verdict: OK" in out

    def test_expansion_arity_above_level(self):
        # rejected before either side is expanded to 8,199 relations
        start = time.monotonic()
        r = subprocess.run(
            [sys.executable, "-m", "agekit.cli", "bidef", catalog_path("linord.cls"),
             "--reducts", "Qlt", "QltRev", "--k", "2", "--n", "3"],
            capture_output=True, text=True, timeout=60)
        assert time.monotonic() - start < 1.0
        assert r.returncode == 3 and r.stdout == ""
        assert "--n 3" in r.stderr and "--k 2" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("argv", [
        ["definable", "--reduct", "Qlt", "--n", "4"],
        ["bidef", "--reducts", "Qlt", "QltRev", "--mode", "fo", "--n", "4"],
    ], ids=["definable", "bidef"])
    def test_expansion_past_the_union_guard(self, argv):
        # linord has 75 4-types: 2 ** 75 - 1 orbit unions of arity 4, refused
        # before any is enumerated
        r = subprocess.run(
            [sys.executable, "-m", "agekit.cli", argv[0], catalog_path("linord.cls"), *argv[1:]],
            capture_output=True, text=True, timeout=10)
        assert r.returncode == 3 and r.stdout == ""
        assert "orbit unions of arity <= 4" in r.stderr and "lower --n" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("flags,named", [
        (["--n", "3"], "--n 3"),
        (["--query", "lt(x0,x1) & lt(x1,x2)", "--query-arity", "3"], "--query-arity 3"),
    ], ids=["n", "query-arity"])
    def test_definable_arity_above_level(self, flags, named):
        r = subprocess.run(
            [sys.executable, "-m", "agekit.cli", "definable", catalog_path("linord.cls"),
             "--reduct", "Qlt", "--mode", "pp", "--k", "2", *flags],
            capture_output=True, text=True, timeout=60)
        assert r.returncode == 3 and r.stdout == ""
        assert named in r.stderr and "--k 2" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("body,message", [
        ("  bound size=2: E(0,2)\n", "out of range"),
        ("  bound size=2: E(0,1,1)\n", "wrong arity"),
        ("end\nreduct r over a\n  rel R/2 := orbits [ [{0}{1}|size=2: E(1,2)] ]\n",
         "out of range"),
        ("end\nreduct r over a\n  rel R/2 := orbits [ [{a}{1}|size=2:] ]\n",
         "bad partition block"),
        ("end\nreduct r over a\n  rel R/2 := orbits [ [{0}{1}|size=3:] ]\n",
         "quotient size does not match"),
    ], ids=["bound-out-of-range", "bound-wrong-arity", "orbit-literal-out-of-range",
            "orbit-literal-bad-position", "orbit-literal-wrong-size"])
    def test_bad_literal_atom(self, tmp_path, body, message):
        # structures are checked where literals are parsed, not where built
        bad = tmp_path / "bad.cls"
        bad.write_text(f"class a\n  sig E/2\n{body}end\n")
        r = subprocess.run([sys.executable, "-m", "agekit.cli", "orbits", str(bad)],
                           capture_output=True, text=True, timeout=60)
        assert r.returncode == 3 and r.stdout == ""
        assert message in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("literal", [
        "[ [{0}{1}|size=2: lt(0,1)]], [{0,1}|size=1:] ]",
        "[ ] [ ]",
        "[ ]] ]",
    ], ids=["extra-close", "two-lists", "close-before-open"])
    def test_unbalanced_orbit_literal(self, tmp_path, literal):
        # a "]" that closes no "[" inside the outer brackets
        bad = tmp_path / "bad.cls"
        bad.write_text(catalog_text("linord.cls")
                       + f"reduct r over linord\n  rel r/2 := orbits {literal}\nend\n")
        r = subprocess.run([sys.executable, "-m", "agekit.cli", "orbits", str(bad)],
                           capture_output=True, text=True, timeout=60)
        assert r.returncode == 3 and r.stdout == ""
        assert r.stderr.endswith("unbalanced brackets in orbits literal\n")

    def test_huge_arity(self, tmp_path):
        # refused with the signature, before any slot count or tuple is built
        bad = tmp_path / "huge.cls"
        bad.write_text("class c\n  sig E/99999999999\nend\n")
        r = subprocess.run([sys.executable, "-m", "agekit.cli", "orbits", str(bad),
                            "--k", "2"], capture_output=True, text=True, timeout=60)
        assert r.returncode == 3 and r.stdout == ""
        assert "line 2" in r.stderr and "arity 99999999999" in r.stderr
        assert "Traceback" not in r.stderr and "internal error" not in r.stderr

    @pytest.mark.parametrize("size,code", [(1000, 3), (17, 3), (16, 0)])
    def test_bound_size_limit(self, tmp_path, capsys, size, code):
        # a bound above ktypes.BOUND_LIMIT points is refused where it is
        # read, before the class canonicalizes it (at 1,000 points that
        # recursed past Python's limit and was reported as an engine bug)
        path = tmp_path / "big.cls"
        path.write_text(f"class Big\n  sig lt/2\n  bound size={size}:\nend\n")
        assert main(["orbits", str(path), "--k", "2"]) == code
        err = capsys.readouterr().err
        assert "internal error" not in err
        if code == 3:
            assert f"bound on {size:,} points" in err and "limit of 16 points" in err

    @pytest.mark.parametrize("sig,k,limit,named", [
        ("E/2", "2", 10, "labelled age members on 2 points"),
        ("U/1", "3", 20, "types at level 3"),
    ], ids=["members", "types"])
    def test_type_enumeration_guard(self, tmp_path, monkeypatch, capsys,
                                    sig, k, limit, named):
        # U/1 at level 3 builds 2 + 4 + 8 members, then 22 types
        from agekit import ktypes
        monkeypatch.setattr(ktypes, "TYPE_LIMIT", limit)
        path = tmp_path / "guard.cls"
        path.write_text(f"class guard_{sig[0]}\n  sig {sig}\nend\n")
        code = main(["orbits", str(path), "--k", k])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert named in captured.err and "lower --k" in captured.err

    def test_one_point_class_at_high_levels(self, capsys):
        # one type at every level: only the one-block partition is enumerated,
        # not all Bell(40) of them; the level itself is capped
        code, out = run_cli(["orbits", catalog_path("point.cls"), "--k", "40"], capsys)
        assert code == 0 and "orbit count at level 40: 1\n" in out
        code = main(["orbits", catalog_path("point.cls"), "--k", "99999999999"])
        captured = capsys.readouterr()
        assert code == 3 and "level 99999999999" in captured.err
        assert "internal error" not in captured.err

    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["core", "--help"]])
    def test_help_and_version_exit_0(self, argv):
        r = subprocess.run([sys.executable, "-m", "agekit.cli", *argv],
                           capture_output=True, text=True)
        assert r.returncode == 0 and r.stdout and "Traceback" not in r.stderr

    @pytest.mark.parametrize("argv,flag,message", [
        (["orbits", "linord.cls", "--seed", "5"], "--seed", _UNKNOWN),
        (["orbits", "linord.cls", "--witness-out", "D"], "--witness-out", _UNKNOWN),
        (["orbits", "linord.cls", "--realize-cap", "7"], "--realize-cap", _UNKNOWN),
        (["check", "trifree.cls", "--k", "3"], "--k", _UNKNOWN),
        (["check", "trifree.cls", "--realize-cap", "3"], "--realize-cap", _UNKNOWN),
        (["check", "trifree.cls", "--seed", "1"], "--seed", _UNKNOWN),
        (["behaviours", "graphs.cls", "--witness-out", "D"], "--witness-out", _UNKNOWN),
        (["behaviours", "graphs.cls", "--arity-cap", "2"], "--arity-cap", _UNKNOWN),
        (["probe", "graphs.cls", "--ap-cap", "2"], "--ap-cap", _UNKNOWN),
        (["core", "linord.cls", "--reduct", "Qlt", "--arity-cap", "2"], "--arity-cap",
         _UNKNOWN),
        (["definable", "linord.cls", "--reduct", "Qlt", "--seed", "1"], "--seed", _UNKNOWN),
        (["definable", "linord.cls", "--reduct", "Qlt", "--ap-cap", "2"], "--ap-cap",
         _UNKNOWN),
        (["bidef", "linord.cls", "--reducts", "Qlt", "QltRev", "--ap-cap", "2"],
         "--ap-cap", _UNKNOWN),
        (["biint", "linord.cls", "--reducts", "Qlt", "QltRev", "--seed", "2"], "--seed",
         _UNKNOWN),
        (["verify", "linord.cls", "--k", "3"], "--k", _UNKNOWN),
        (["bidef", "linord.cls", "--reducts", "Qlt", "QltRev", "--mode", "fo",
          "--arity-cap", "5"], "--arity-cap", "read only with --mode pp"),
        (["biint", "linord.cls", "--reducts", "Qlt", "QltRev", "--mode", "ep",
          "--arity-cap", "2"], "--arity-cap", "read only with --mode pp"),
        (["definable", "linord.cls", "--reduct", "Qlt", "--mode", "ep", "--n", "2",
          "--arity-cap", "5"], "--arity-cap", "read only with --mode pp"),
        (["definable", "linord.cls", "--reduct", "Qlt", "--query", "!(x0=x1)",
          "--query-arity", "2", "--arity-cap", "2"], "--arity-cap",
         "read only with --mode pp"),
        (["definable", "linord.cls", "--reduct", "Qlt", "--mode", "pp", "--n", "3",
          "--query", "!(x0=x1)", "--query-arity", "2"], "--n",
         "not read with --query or --query-orbits"),
        (["definable", "linord.cls", "--reduct", "Qlt", "--n", "3", "--query-orbits",
          "[{0}{1}|size=2: lt(0,1)]"], "--n", "not read with --query or --query-orbits"),
        (["definable", "linord.cls", "--reduct", "Qlt", "--n", "2", "--query-arity", "2"],
         "--query-arity", "read only with --query"),
        (["definable", "linord.cls", "--reduct", "Qlt", "--query", "!(x0=x1)",
          "--query-arity", "2", "--query-orbits", "[{0}{1}|size=2: lt(0,1)]"],
         "--query-orbits", "not allowed with argument --query"),
    ], ids=["orbits-seed", "orbits-witness-out", "orbits-realize-cap", "check-k",
            "check-realize-cap", "check-seed", "behaviours-witness-out",
            "behaviours-arity-cap", "probe-ap-cap", "core-arity-cap", "definable-seed",
            "definable-ap-cap", "bidef-ap-cap", "biint-seed", "verify-k",
            "bidef-fo-arity-cap", "biint-ep-arity-cap", "definable-ep-arity-cap",
            "definable-ep-query-arity-cap", "definable-query-n", "definable-query-orbits-n",
            "definable-query-arity-without-query", "definable-query-and-query-orbits"])
    def test_unread_flag_refused(self, capsys, argv, flag, message):
        # a subcommand declares only the flags its handler reads, and a flag
        # that its mode or another flag leaves unread is refused before any
        # engine call
        with pytest.raises(SystemExit) as exc:
            main([argv[0], catalog_path(argv[1]), *argv[2:]])
        captured = capsys.readouterr()
        assert exc.value.code == 3 and captured.out == ""
        assert message in captured.err and flag in captured.err

    @pytest.mark.parametrize("mode", ["ep", "pp"])
    @pytest.mark.parametrize("arity", [1, 2])
    def test_unsatisfiable_query_names_the_flag(self, capsys, mode, arity):
        # a formula no tuple satisfies names no orbit union: the flag is
        # refused, not the library function that needs a nonempty union
        code = main(["definable", catalog_path("linord.cls"), "--reduct", "Qlt",
                     "--mode", mode, "--query", "!(x0=x0)",
                     "--query-arity", str(arity)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert f"error: --query holds on no {arity}-type of the core base" in captured.err
        assert "empty orbit union" not in captured.err

    def test_definable_certificate_needs_query(self, capsys, tmp_path):
        # an expansion has no certificate: --witness-out without a query is
        # an input error, not a silently unwritten directory
        out = tmp_path / "D"
        code = main(["definable", catalog_path("linord.cls"), "--reduct", "Qlt",
                     "--n", "2", "--witness-out", str(out)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == "" and not out.exists()
        assert "--witness-out needs --query" in captured.err

    @pytest.mark.parametrize("failure,message", [
        (None, "internal error: no qualifying behaviour"),
        (RecursionError("maximum recursion depth exceeded"), "internal error: RecursionError"),
        (MemoryError(), "internal error: MemoryError"),
    ], ids=["no-qualifying-behaviour", "recursion", "memory"])
    def test_internal_error(self, monkeypatch, capsys, failure, message):
        # an engine failure must never exit 1, the NO code
        from agekit import core

        def qualifying(*args, **kwargs):
            if failure is not None:
                raise failure
            return ()

        monkeypatch.setattr(core, "qualifying_behaviours", qualifying)
        core.compute_core.cache_clear()
        code = main(["core", catalog_path("linord.cls"), "--reduct", "Qlt"])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert message in captured.err and "bug" in captured.err
        assert "Traceback" not in captured.err


class TestUnarySignature:
    """With unary symbols alone, behaviours still need level 2 to tell which
    points they collapse: that is their default level, and --k 1 is refused
    at the boundary; orbits keeps level 1."""

    @pytest.fixture
    def unary(self, tmp_path):
        path = tmp_path / "unary.cls"
        path.write_text(UNARY)
        return str(path)

    @pytest.mark.parametrize("argv,lines", [
        (["behaviours"], ["caps: k=2 realize_cap=4", "realizable behaviours: 18"]),
        (["probe", "--trials", "20"], ["caps: k=2 ", "verdict: OK"]),
        (["core", "--reduct", "Up"], ["caps: k=2 ", "image types: 1 of 6"]),
        (["definable", "--reduct", "Up"], ["caps: k=2 ", "added relations: 0"]),
        (["bidef", "--reducts", "Up", "Up"], ["caps: k=2 ", "verdict: YES"]),
        (["biint", "--reducts", "Up", "Up"], ["caps: k=2 ", "verdict: PRECONDITION-FAILED"]),
        (["orbits"], ["caps: k=1", "orbit count at level 1: 2"]),
    ], ids=["behaviours", "probe", "core", "definable", "bidef", "biint", "orbits"])
    def test_default_level(self, unary, capsys, argv, lines):
        code, out = run_cli([argv[0], unary, *argv[1:]], capsys)
        assert code in (0, 2)
        for line in lines:
            assert line in out

    @pytest.mark.parametrize("argv", [
        ["behaviours"], ["probe"], ["core", "--reduct", "Up"],
        ["definable", "--reduct", "Up"],
        ["definable", "--reduct", "Up", "--query", "P(x0)", "--query-arity", "1"],
        ["bidef", "--reducts", "Up", "Up"], ["biint", "--reducts", "Up", "Up"],
    ], ids=["behaviours", "probe", "core", "definable", "definable-query", "bidef",
            "biint"])
    def test_level_1_refused(self, unary, capsys, argv):
        code = main([argv[0], unary, *argv[1:], "--k", "1"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "--k must be >= 2 for these inputs, got 1" in captured.err

    def test_bidef_witness_verifies(self, unary, tmp_path, capsys):
        out = tmp_path / "cert"
        code, _ = run_cli(["bidef", unary, "--reducts", "Up", "Up", "--k", "2",
                           "--witness-out", str(out)], capsys)
        assert code == 0
        code, text = run_cli(["verify", str(out)], capsys)
        assert code == 0 and "verdict: CERTIFICATE-OK" in text


class TestTernaryProbe:
    def test_draws_ternary_atoms(self, tmp_path, monkeypatch, capsys):
        # an atom on 3 distinct points comes only from the probe's sampling
        # of arity >= 3 slots: one-point and two-point patterns span fewer
        path = tmp_path / "hyper3.cls"
        path.write_text(_hypergraph3_text())
        draw, drawn = canonical.random_age_member, []

        def recording(k, n, rng):
            drawn.append(draw(k, n, rng))
            return drawn[-1]

        monkeypatch.setattr(canonical, "random_age_member", recording)
        # at most 3 points: a 4th point has 37 ternary slots, past the age
        # scan's limit
        code, out = run_cli(["probe", str(path), "--realize-cap", "3", "--max-size", "3",
                             "--trials", "10", "--seed", "1"], capsys)
        assert code == 0 and "verdict: OK" in out
        assert any(len(set(t)) == 3 for s in drawn for t in s.tables[0])

    def test_draws_grow_past_three_points(self):
        # each new triple's 6 orders are drawn together, all or none, as in
        # a 3-point member; drawn one by one they would all fail at a 4th point
        k = parse_input(_hypergraph3_text()).bounded_class("hyper3")
        drawn = [canonical.random_age_member(k, 5, random.Random(seed)) for seed in range(20)]
        assert all(in_age(k, s) for s in drawn)
        assert max(s.size for s in drawn) >= 4


class TestProbeFlagFuzz:
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(name=st.sampled_from(("linord", "graphs")),
           trials=st.integers(-5, 30), max_size=st.integers(-2, 10),
           seed=st.integers(), realize_cap=st.integers(1, 4))
    def test_exit_code_and_no_traceback(self, name, trials, max_size, seed,
                                        realize_cap):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["probe", catalog_path(f"{name}.cls"), "--trials", str(trials),
                         "--max-size", str(max_size), "--seed", str(seed),
                         "--realize-cap", str(realize_cap)])
        err = err.getvalue()
        assert code in (0, 1, 3)
        assert "Traceback" not in err and "internal error" not in err


# grammar fuzz: catalog files with tokens, sizes, arities and rel lines changed
_TOKENS = ("class", "reduct", "over", "end", "sig", "bound", "assert", "rel", ":=",
           "orbits", "[", "]", "homogeneous", "ramsey", "E/2", "R/3", "U/1", "E/0",
           "size=0:", "size=2:", "size=-1:", "E(0,1)", "E(0)", "E(0,5)", "lt(1,0)",
           "x0=x1", "E(x0,x1)", "!", "&", "|", "(", ")", "#", "x9", "linord", "{1}{0}",
           "[{0}{1}|size=2: E(0,1)]", "[{0,1}|size=1:]", "[{a}|size=1:]")
_REL_LINES = ("  rel R/2 := E(x0,x1) | x0=x1", "  rel S/1 := !E(x0,x0)",
              "  rel T/2 := lt(x0,x1) & !(x0=x1)", "  rel Q/2 := F(x0,x1)",
              "  rel W/0 := x0=x0", "  rel V/3 := E(x0,x3)",
              "  rel O/2 := orbits [ [{0}{1}|size=2: E(0,1)] ]",
              "  rel P/2 := orbits [ [{0}{1}|size=3:] ]", "  rel Z/2 := orbits [ ]")
_NUMBERS = st.one_of(st.integers(-2, 9), st.sampled_from((25, 99999999999)))
# the catalog files declare relations by formulas only
_ORBIT_REDUCT = """reduct Lit over linord
  rel lt/2 := orbits [ [{0}{1}|size=2: lt(0,1)] ]
  rel neq/2 := orbits [ [{0}{1}|size=2: lt(0,1)], [{0}{1}|size=2: lt(1,0)] ]
  rel le3/3 := orbits [ [{0,2}{1}|size=2: lt(0,1)] ]
end
"""
_SEEDS = tuple(catalog_text(name) for name in CATALOG_FILES) + (
    catalog_text("linord.cls") + _ORBIT_REDUCT,)


@st.composite
def mutated_catalog_text(draw):
    lines = [line for line in draw(st.sampled_from(_SEEDS)).splitlines()
             if line.strip() and not line.startswith("#")]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(("token", "char", "number", "arity", "rel", "line")))
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if kind == "token" and lines:
            tokens = lines[i].split()
            j = draw(st.integers(0, len(tokens)))
            tokens[j:j + draw(st.integers(0, 1))] = [draw(st.sampled_from(_TOKENS))]
            lines[i] = "  " + " ".join(tokens)
        elif kind == "char" and lines and lines[i]:
            j = draw(st.integers(0, len(lines[i]) - 1))
            lines[i] = lines[i][:j] + draw(st.sampled_from("a{}[]|,()=:!x0-/ ")) + lines[i][j + 1:]
        elif kind == "number" and lines:
            spans = [m.span() for m in re.finditer(r"\d+", lines[i])]
            if spans:
                a, b = draw(st.sampled_from(spans))
                lines[i] = lines[i][:a] + str(draw(_NUMBERS)) + lines[i][b:]
        elif kind == "arity":
            sigs = [j for j, line in enumerate(lines) if line.strip().startswith("sig")]
            if sigs:
                j = draw(st.sampled_from(sigs))
                arity = draw(st.sampled_from((0, 1, 2, 3, 25, 99999999999)))
                lines[j] = re.sub(r"/\d+", f"/{arity}", lines[j], count=1)
        elif kind == "rel":
            # next to a rel line, which sits inside a reduct block
            rels = [j for j, line in enumerate(lines) if line.strip().startswith("rel")]
            j = draw(st.sampled_from(rels)) if rels else i
            op = draw(st.sampled_from(("insert", "delete", "duplicate", "arity")))
            if op == "insert" or not rels:
                lines.insert(j, draw(st.sampled_from(_REL_LINES)))
            elif op == "delete":
                del lines[j]
            elif op == "duplicate":
                lines.insert(j, lines[j])
            else:
                lines[j] = re.sub(r"/\d+", f"/{draw(_NUMBERS)}", lines[j], count=1)
        elif lines:
            if draw(st.booleans()):
                del lines[i]
            else:
                lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


class TestGrammarFuzz:
    """A mutated catalog file is an answer or an input error, never an
    engine failure; the checks the value classes' constructors used to make
    now sit at the input boundary."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(text=mutated_catalog_text())
    def test_exit_code_and_no_traceback(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.cls"
            path.write_text(text)
            for argv in (["check", str(path), "--ap-cap", "1"],
                         ["orbits", str(path), "--k", "2"]):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(err):
                    code = main(argv)
                err = err.getvalue()
                assert code in (0, 1, 2, 3), (argv, text, err)
                assert "Traceback" not in err and "internal error" not in err, (text, err)


# formula fuzz: --query strings built as formulas with whitespace between
# their parts, or glued from formula fragments
_FORMULA_PIECES = ("lt(", "E(", "x0", "x1", "x2", "x9", ",", "(", ")", "!", "&", "|",
                   "=", " ", "\t", "lt(x0,x1)", "x0=x1", "lt(x1,x0)")
_SPACE = st.sampled_from(("", "", " ", "  ", "\t"))
_VAR = st.integers(0, 1)
_ATOMS = st.builds("{}lt({}x{},{}x{}{}){}".format, _SPACE, _SPACE, _VAR, _SPACE, _VAR,
                   _SPACE, _SPACE) | st.builds("{}x{}{}={}x{}{}".format, _SPACE, _VAR,
                                               _SPACE, _SPACE, _VAR, _SPACE)
_FORMULAS = st.recursive(_ATOMS, lambda inner: st.builds(
    "{}!{}".format, _SPACE, inner) | st.builds(
    "{}({}{}{}){}".format, _SPACE, inner, st.sampled_from("&|"), inner, _SPACE),
    max_leaves=4)


class TestFormulaFuzz:
    """A --query formula is an answer or an input error, never an engine
    failure, and whitespace around it changes nothing."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(text=_FORMULAS | st.lists(st.sampled_from(_FORMULA_PIECES), max_size=12).map(
               "".join),
           arity=st.sampled_from((2, 2, 1)), mode=st.sampled_from(("ep", "pp")))
    def test_exit_code_and_no_traceback(self, text, arity, mode):
        runs = []
        for query in (text, f" {text}\t "):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["definable", catalog_path("linord.cls"), "--reduct", "Qlt",
                             "--mode", mode, "--query", query,
                             "--query-arity", str(arity)])
            err = err.getvalue()
            assert code in (0, 1, 2, 3), (query, err)
            assert "Traceback" not in err and "internal error" not in err, (query, err)
            runs.append((code, out.getvalue()))
        assert runs[0] == runs[1], text


class TestDeterminism:
    def test_reports_byte_identical_across_runs(self, capsys):
        argvs = (
            ["orbits", catalog_path("linord.cls")],
            ["behaviours", catalog_path("graphs.cls")],
            ["core", catalog_path("graphs.cls"), "--reduct", "Rg"],
            ["bidef", catalog_path("linord.cls"), catalog_path("linord.cls"),
             "--reducts", "Qlt", "QltRev"],
            ["probe", catalog_path("linord.cls"), "--trials", "10", "--seed", "3"],
            ["definable", catalog_path("linord.cls"), "--reduct", "Qlt",
             "--mode", "pp"],
        )
        for argv in argvs:
            _, first = run_cli(list(argv), capsys)
            _, second = run_cli(list(argv), capsys)
            assert first == second, argv

    def test_reports_stable_in_fresh_process(self):
        # caches empty vs warm must not change bytes
        argv = [sys.executable, "-m", "agekit.cli", "bidef",
                catalog_path("linord.cls"), catalog_path("linord.cls"),
                "--reducts", "Qlt", "QltRev"]
        a = subprocess.run(argv, capture_output=True, text=True)
        b = subprocess.run(argv, capture_output=True, text=True)
        assert a.returncode == 0 and a.stdout == b.stdout

    def test_timings_go_to_stderr(self):
        argv = [sys.executable, "-m", "agekit.cli", "orbits",
                catalog_path("linord.cls")]
        r = subprocess.run(argv, capture_output=True, text=True)
        assert "elapsed" in r.stderr and "elapsed" not in r.stdout


class TestCertificateFiles:
    def test_emitted_files_reload(self, tmp_path, capsys):
        w = tmp_path / "w"
        run_cli(["core", catalog_path("bipartite.cls"), "--reduct", "Kww",
                 "--witness-out", str(w)], capsys)
        cat = parse_input((w / "core_base.cls").read_text())
        cat = parse_input((w / "core_reduct.cls").read_text(), cat)
        assert cat.reducts
        from agekit.parser import Catalog
        from conftest import parse_behaviour
        base_cat = parse_input(catalog_text("bipartite.cls"))
        xi = parse_behaviour((w / "core_witness.bhv").read_text(),
                             base_cat.bounded_class("bipartite"),
                             base_cat.bounded_class("bipartite"), 2)
        assert xi.table == (0, 0, 2)

    def test_every_benchmark_certificate_verifies(self, tmp_path, capsys):
        # the certificate queries of perfbench/queries.py, and a core of the
        # Henson graph
        linord = catalog_path("linord.cls")
        queries = {
            "core-Qleq": ["core", linord, "--reduct", "Qleq", "--k", "3"],
            "bidef-fo": ["bidef", linord, "--reducts", "Qlt", "QltRev", "--mode", "fo",
                         "--k", "3"],
            "biint-pp": ["biint", linord, "--reducts", "Qlt", "QltRev", "--mode", "pp"],
            "bidef-Tf-pp": ["bidef", catalog_path("trifree.cls"), "--reducts", "Tf", "Tf",
                            "--mode", "pp"],
            "definable-neq-pp": ["definable", linord, "--reduct", "Qlt", "--mode", "pp",
                                 "--query", "!(x0=x1)", "--query-arity", "2"],
            "core-Tf": ["core", catalog_path("trifree.cls"), "--reduct", "Tf", "--k", "3"],
        }
        for name, argv in queries.items():
            out = tmp_path / name
            code, _ = run_cli(argv + ["--witness-out", str(out)], capsys)
            assert code in (0, 1) and (out / "certificate.json").exists(), name
            code, report = run_cli(["verify", str(out)], capsys)
            assert code == 0 and "verdict: CERTIFICATE-OK" in report, (name, report)


class TestMalformedCertificates:
    """A malformed certificate.json is rejected with the field's name, not a traceback."""

    @pytest.fixture(scope="class")
    def core_cert(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("core-Qleq")
        assert main(["core", catalog_path("linord.cls"), "--reduct", "Qleq",
                     "--witness-out", str(out)]) == 0
        return json.loads((out / "certificate.json").read_text())

    @pytest.mark.parametrize("field, edit", [
        ("core.k", lambda c: c["core"].update(k="two")),
        ("core", lambda c: c.pop("core")),
        ("core.image_types", lambda c: c["core"].update(image_types=["[{0,x,2}|size=1:]"])),
        ("core.witness", lambda c: c["core"].update(witness=5)),
        ("core.witness_realize_cap", lambda c: c["core"].update(witness_realize_cap=0)),
        ("core.scan_cap", lambda c: c["core"].update(scan_cap=0)),
        # a cap of 1 would re-derive a base with one bound, the loop, which
        # presents every loopless digraph
        pytest.param("core.scan_cap", lambda c: c["core"].update(
            scan_cap=1, base=re.sub(r"(  bound .*\n)+", "  bound size=1: lt(0,0)\n",
                                    c["core"]["base"])), id="core.scan_cap-lowered"),
        # a cap of 6 would scan every digraph on up to 6 points
        pytest.param("core.scan_cap", lambda c: c["core"].update(scan_cap=6),
                     id="core.scan_cap-raised"),
        # rows of 2 positions read before any type on 12 positions is built
        pytest.param("core.witness", lambda c: c["core"].update(k=12),
                     id="core.witness-level"),
        # types the file grammar refuses: blocks out of first-occurrence
        # order, and a quotient whose size is not the number of blocks
        pytest.param("core.image_types", lambda c: c["core"].update(
            image_types=["[{1}{0,2}|size=2: lt(0,1)]"]), id="core.image_types-order"),
        pytest.param("core.image_types", lambda c: c["core"].update(
            image_types=["[{0,1,2}|size=2:]"]), id="core.image_types-size"),
        pytest.param("core.witness", lambda c: c["core"].update(
            witness=c["core"]["witness"].replace("[{0,1}|size=1:]", "[{0,1}|size=2:]", 1)),
            id="core.witness-size"),
    ])
    def test_rejected_with_field_name(self, core_cert, tmp_path, field, edit):
        cert = copy.deepcopy(core_cert)
        edit(cert)
        (tmp_path / "certificate.json").write_text(json.dumps(cert))
        r = subprocess.run([sys.executable, "-m", "agekit.cli", "verify", str(tmp_path)],
                           capture_output=True, text=True, timeout=20)
        assert r.returncode == 1
        assert re.search(rf"FAILED: certificate field {re.escape(field)}[ :]", r.stdout)
        assert "Traceback" not in r.stderr

    def test_empty_witness_at_high_level_rejected_quickly(self, core_cert, tmp_path):
        # no rows, types on 12 positions: the types are counted block count
        # by block count and the table refused before members on 2 points
        cert = copy.deepcopy(core_cert)
        cert["core"].update(witness="", k=12)
        (tmp_path / "certificate.json").write_text(json.dumps(cert))
        start = time.monotonic()
        r = subprocess.run([sys.executable, "-m", "agekit.cli", "verify", str(tmp_path)],
                           capture_output=True, text=True, timeout=20)
        assert time.monotonic() - start < 5.0
        assert r.returncode == 1
        assert "FAILED: behaviour table is not total" in r.stdout
        assert "Traceback" not in r.stderr


class TestVerifierRejections:
    """A fresh certificate with one field tampered fails the check that the
    field feeds, with exit 1."""

    @pytest.fixture(scope="class")
    def certs(self, tmp_path_factory):
        linord = catalog_path("linord.cls")
        definable = ["definable", linord, "--reduct", "Qlt", "--mode", "pp",
                     "--query-arity", "2", "--query"]
        root = tmp_path_factory.mktemp("fresh")
        out = {}
        for name, (argv, code) in {
            "core-Qleq": (["core", linord, "--reduct", "Qleq"], 0),
            "core-Qlt": (["core", linord, "--reduct", "Qlt", "--k", "3"], 0),
            "core-Tf": (["core", catalog_path("trifree.cls"), "--reduct", "Tf", "--k", "2"], 0),
            "bidef-fo": (["bidef", linord, "--reducts", "Qlt", "QltRev", "--mode", "fo",
                          "--k", "3"], 0),
            "definable-neq": (definable + ["!(x0=x1)"], 1),
            "definable-gt": (definable + ["lt(x1,x0)"], 0),
        }.items():
            assert _in_process(argv + ["--witness-out", str(root / name)])[0] == code
            out[name] = json.loads((root / name / "certificate.json").read_text())
        code, text, _ = _in_process(["behaviours", linord, "--k", "3", "--format", "json"])
        # in serialization order: the collapse, the identity and the reversal
        out["collapse"], out["identity"], out["reversal"] = json.loads(text)["behaviours"]
        return out

    @pytest.mark.parametrize("name, edit, message", [
        ("core-Qleq", lambda c, b: c["core"].update(
            base=re.sub(r"  bound [^\n]*\n(  assert)", r"\1", c["core"]["base"])),
         "output bounds differ from an independent scan"),
        ("core-Qlt", lambda c, b: c["core"].update(witness=b["reversal"]),
         "witness is not range-rigid"),
        ("core-Qlt", lambda c, b: c["core"].update(witness=b["collapse"]),
         "witness does not preserve lt"),
        ("bidef-fo", lambda c, b: c["witness"].update(xi=b["identity"], eta=b["identity"]),
         "xi does not carry "),
        # the first two pairs match U1_1/1 and U2_1/2 to their namesakes
        ("bidef-fo", lambda c, b: c["witness"]["matching"][1].__setitem__(1, "U1_1"),
         "matching is not a bijection onto the second signature"),
        ("bidef-fo", lambda c, b: c["witness"].update(matching=[
            ["U1_1", "U2_1"], ["U2_1", "U1_1"], *c["witness"]["matching"][2:]]),
         "matching pairs U1_1 with U2_1 of different arity"),
        ("core-Qleq", lambda c, b: c["core"].update(
            reduct=c["core"]["reduct"].replace("rel leq/2", "rel le/2")),
         "output reduct changes the relation list"),
        ("core-Qlt", lambda c, b: c["core"].update(
            reduct=c["core"]["reduct"].replace("lt(x0,x1)", "lt(x1,x0)")),
         "relation lt: formula not carried verbatim"),
        # non-edges to edges is compatible, but three independent points
        # then have a triangle as image
        ("core-Tf", lambda c, b: c["core"].update(witness=c["core"]["witness"].replace(
            "[{0}{1}|size=2:] -> [{0}{1}|size=2:]",
            "[{0}{1}|size=2:] -> [{0}{1}|size=2: E(0,1) E(1,0)]")),
         "image of a size-3 age member leaves the target age"),
        ("definable-neq", lambda c, b: c["relation"].update(
            members=["[{0}{1}{2}|size=3: lt(0,1) lt(0,2) lt(1,2)]"]),
         "certificate field relation.members holds a type that is not a type of the core "
         "at a level up to core.k"),
    ], ids=["base-bound-dropped", "witness-reversal", "witness-collapse",
            "xi-eta-identity", "matching-not-onto", "matching-arity",
            "core-reduct-renamed", "core-formula-reversed", "core-witness-unrealizable",
            "definable-member-above-k"])
    def test_rejected(self, certs, tmp_path, capsys, name, edit, message):
        cert = copy.deepcopy(certs[name])
        edit(cert, certs)
        (tmp_path / "certificate.json").write_text(json.dumps(cert))
        code, out = run_cli(["verify", str(tmp_path)], capsys)
        assert code == 1 and f"FAILED: {message}" in out

    def test_bound_dropped_by_augment_is_rejected(self, linord, tmp_path, capsys,
                                                  monkeypatch):
        # the search grows the carved age with structures.augment; a pruning
        # bug there that drops a bound must not drop it from the verifier's
        # scan too.  The core's bound the 2-point chain is grown by augment;
        # the incomparable pair, a bound of linord, is not
        from agekit import core, structures, verify
        chain2 = structures.canonical_form(
            structures.structure(linord.signature, 2, [("lt", (0, 1))]))
        real = structures.augment

        def pruned(bases, extensions):
            return tuple(s for s in real(bases, extensions) if s != chain2)

        monkeypatch.setattr(structures, "augment", pruned)
        monkeypatch.setattr(core, "augment", pruned)
        caches = (core.compute_core, verify._v_age)
        for cache in caches:
            cache.cache_clear()
        try:
            code, _ = run_cli(["core", catalog_path("linord.cls"), "--reduct", "Qleq",
                               "--witness-out", str(tmp_path)], capsys)
            base = json.loads((tmp_path / "certificate.json").read_text())["core"]["base"]
            code_verify, out = run_cli(["verify", str(tmp_path)], capsys)
        finally:
            for cache in caches:
                cache.cache_clear()
        assert code == 0 and "  bound size=2: lt(1,0)\n" not in base
        assert code_verify == 1
        assert "FAILED: output bounds differ from an independent scan" in out

    def test_verifier_reads_no_structure_enumeration(self):
        # the verifier's own age scan stands in for the search's generators;
        # of the type machinery it shares the value and the file grammar only
        import ast
        from agekit import verify
        tree = ast.parse(Path(verify.__file__).read_text())
        imported: dict[str, set[str]] = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom):
                imported.setdefault(node.module, set()).update(a.name for a in node.names)
        assert imported["structures"] == {
            "FinStructure", "Signature", "canonical_form", "embeds", "empty_structure",
            "eval_qf", "extension_slots", "find_embedding", "induced", "sort_key"}
        assert imported["ktypes"] == {"KType", "parse_type", "serialize_type"}
        assert not imported.keys() & {"ages", "canonical", "core", "definability", "decide"}

    def test_definable_verdict_is_cap_relative(self, certs, tmp_path, capsys):
        assert certs["definable-gt"]["verdict"] == "DEFINABLE"
        (tmp_path / "certificate.json").write_text(json.dumps(certs["definable-gt"]))
        code, out = run_cli(["verify", str(tmp_path)], capsys)
        assert code == 0 and "verdict DEFINABLE is cap-relative" in out


# parser goldens: written with Python 3.11's argparse before the parser
# built only the named subcommand's flags; the file names are the keys below
HELP = Path(__file__).parent / "golden" / "help"
_REFUSED = {
    "check": ["check", "x.cls", "--k", "3"],
    "orbits": ["orbits", "x.cls", "--seed", "5"],
    "behaviours": ["behaviours", "x.cls", "--witness-out", "D"],
    "probe": ["probe", "x.cls", "--ap-cap", "2"],
    "core": ["core", "x.cls", "--reduct", "Qlt", "--arity-cap", "2"],
    "definable": ["definable", "x.cls", "--reduct", "Qlt", "--seed", "1"],
    "bidef": ["bidef", "x.cls", "--reducts", "C", "D", "--ap-cap", "2"],
    "biint": ["biint", "x.cls", "--reducts", "C", "D", "--seed", "2"],
    "verify": ["verify", "x.cls", "--k", "3"],
}
# golden name: (argv, exit code, stream the golden holds)
_PARSER_CASES = {
    "agekit": (["--help"], 0, "out"),
    "agekit.version": (["--version"], 0, "out"),
    **{cmd: ([cmd, "--help"], 0, "out") for cmd in _REFUSED},
    **{f"{cmd}.refused": (argv, 3, "err") for cmd, argv in _REFUSED.items()},
    "agekit.missing": ([], 3, "err"),
    "agekit.invalid": (["no-such-command", "x.cls"], 3, "err"),
    "agekit.flag": (["--jobs", "4", "orbits", "x.cls"], 3, "err"),
    "core.required": (["core", "x.cls"], 3, "err"),
    "orbits.badint": (["orbits", "x.cls", "--k", "two"], 3, "err"),
    "definable.choice": (["definable", "x.cls", "--reduct", "Qlt", "--mode", "fo"], 3, "err"),
}


class TestParserGoldens:
    """Help, version and usage errors are byte-identical to the parser that
    gave every subcommand its flags on every query."""

    def test_every_golden_has_a_case(self):
        assert sorted(path.stem for path in HELP.iterdir()) == sorted(_PARSER_CASES)

    @pytest.mark.parametrize("name", sorted(_PARSER_CASES))
    def test_matches_golden(self, name, monkeypatch, capsys):
        argv, code, stream = _PARSER_CASES[name]
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps at the terminal width
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == code
        text, other = (captured.out, captured.err) if stream == "out" else (
            captured.err, captured.out)
        assert other == ""
        assert_golden(text, HELP / f"{name}.txt")


# strict reader: argv built from a subcommand's declared flags, then bent
# by up to two near misses that argparse reads otherwise than the plain
# form, or refuses
_VALUES = {int: ("3", "2"), str: ("Qlt", "QltRev")}
_ODD_VALUES = ("-1", "\u0663", " 3", "3_0", "", "-x", "x y", "ep")
_STRAY = ("--", "-h", "--help", "--version")


@st.composite
def _near_query_argv(draw):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    flags = [(names[0], options) for names, options in cli._COMMANDS[command][1]
             if names[0].startswith("-")]
    chosen = [f for f in flags if f[1].get("required")]
    chosen += draw(st.lists(st.sampled_from(flags), max_size=4))  # repeats too
    pieces = [["a.cls", "b.cls"][:1 if command == "verify" else draw(st.integers(1, 2))]]
    for flag, options in chosen:
        pool = options.get("choices") or _VALUES[options.get("type", str)]
        pieces.append([flag, *(draw(st.sampled_from(pool))
                               for _ in range(options.get("nargs") or 1))])
    pieces = draw(st.permutations(pieces))
    for miss in draw(st.lists(st.sampled_from(
            ("abbreviate", "equals", "value", "stray", "split", "file")), max_size=2)):
        with_flag = [piece for piece in pieces if piece[0].startswith("--") and len(piece) > 1]
        long_flag = [piece for piece in with_flag if len(piece[0]) > 3]
        if miss == "abbreviate" and long_flag:
            piece = draw(st.sampled_from(long_flag))
            piece[0] = piece[0][:draw(st.integers(3, len(piece[0]) - 1))]
        elif miss == "equals" and with_flag:
            piece = draw(st.sampled_from(with_flag))
            piece[:2] = [f"{piece[0]}={piece[1]}"]
        elif miss == "value" and with_flag:
            piece = draw(st.sampled_from(with_flag))
            piece[draw(st.integers(1, len(piece) - 1))] = draw(st.sampled_from(_ODD_VALUES))
        elif miss == "stray":
            pieces.insert(draw(st.integers(0, len(pieces))), [draw(st.sampled_from(_STRAY))])
        elif miss == "split":  # files after a flag, as well as before it
            pieces.insert(draw(st.integers(1, len(pieces))), ["c.cls"])
        elif miss == "file":
            pieces.insert(draw(st.integers(0, len(pieces))), [draw(st.sampled_from(("", "-")))])
    return [command, *(word for piece in pieces for word in piece)]


def _argparse_namespace(argv):
    """vars() of argparse's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser(argv).parse_args(argv))
        except SystemExit:
            return None


class TestStrictReader:
    """A query's argv is read from the declared flags without argparse, and
    the reader returns argparse's namespace exactly, or None to hand argv to
    argparse."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(argv=_near_query_argv())
    @example(argv=["core", "a.cls", "--reduct", "Qlt", "--re", "3"])  # --realize-cap or --reduct
    @example(argv=["check", "a.cls", "--ap-cap", "2", "--ap-cap", "3"])
    def test_none_or_the_argparse_namespace(self, argv):
        read = cli._read_argv(argv)
        assert read is None or vars(read) == _argparse_namespace(argv), argv

    @pytest.mark.parametrize("name", [q.name for q in BENCH_QUERIES])
    def test_benchmark_query_is_read_without_argparse(self, name):
        argv = next(q for q in BENCH_QUERIES if q.name == name).argv(7, "certs")
        read = cli._read_argv(argv)
        assert read is not None and cli._unread_flag(read) is None
        assert vars(read) == _argparse_namespace(argv)


def _in_process(argv):
    """Exit code, stdout and stderr of main(argv) in this interpreter."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _without_elapsed(err: str) -> str:
    return "".join(line for line in err.splitlines(keepends=True)
                   if not line.startswith("# elapsed:"))


class TestProcessExit:
    """A query run as its own process, which freezes the heap before the
    interpreter's teardown, prints and exits exactly as main(argv) does in
    process, which leaves the collector as it was."""

    SRC = Path(__file__).resolve().parent.parent / "src"
    # name: (argv, exit code); verify reads the certificate core wrote
    QUERIES = {
        "orbits": (["orbits", catalog_path("linord.cls"), "--k", "2"], 0),
        "core": (["core", catalog_path("linord.cls"), "--reduct", "Qleq",
                  "--witness-out", "cert"], 0),
        "verify": (["verify", "cert"], 0),
        "usage-error": (["orbits", catalog_path("linord.cls"), "--seed", "5"], 3),
        "input-error": (["orbits", "no-such-file.cls"], 3),
        "not-definable": (["definable", catalog_path("linord.cls"), "--reduct", "Qlt",
                           "--mode", "pp", "--query", "!(x0=x1)", "--query-arity", "2"], 1),
    }

    def _env(self):
        return dict(os.environ, PYTHONPATH=str(self.SRC), COLUMNS="80")

    def test_process_matches_in_process(self, tmp_path, monkeypatch):
        # each side writes its certificate under its own cwd and verifies
        # it there, so the process's certificate verifies in a process
        (tmp_path / "proc").mkdir()
        (tmp_path / "inproc").mkdir()
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path / "inproc")
        for name, (argv, expected) in self.QUERIES.items():
            r = subprocess.run([sys.executable, "-m", "agekit.cli", *argv],
                               cwd=tmp_path / "proc", env=self._env(),
                               capture_output=True, text=True, timeout=60)
            code, out, err = _in_process(argv)
            assert r.returncode == code == expected, (name, r.stderr)
            assert r.stdout == out, name
            assert _without_elapsed(r.stderr) == _without_elapsed(err), name
            assert "Traceback" not in r.stderr
        written = sorted(p.name for p in (tmp_path / "proc" / "cert").iterdir())
        assert written == sorted(p.name for p in (tmp_path / "inproc" / "cert").iterdir())
        for name in written:
            assert ((tmp_path / "proc" / "cert" / name).read_bytes()
                    == (tmp_path / "inproc" / "cert" / name).read_bytes()), name

    def test_entry_point_freezes_the_heap(self):
        # main() with no argv is what the console script and -m call
        script = ("import gc, sys\nfrom agekit.cli import main\n"
                  f"sys.argv = ['agekit', 'orbits', {catalog_path('linord.cls')!r}]\n"
                  "code = main()\n"
                  "print(code, gc.get_freeze_count() > 0, file=sys.stderr)\n")
        r = subprocess.run([sys.executable, "-c", script], env=self._env(),
                           capture_output=True, text=True, timeout=60)
        assert r.stderr.splitlines()[-1] == "0 True", r.stderr

    def test_in_process_main_never_freezes(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        before = gc.get_freeze_count()
        for argv, _ in self.QUERIES.values():
            _in_process(argv)
        assert gc.get_freeze_count() == before


def _nodes(node, path=()):
    """(path, value) of every value in a certificate, containers included."""
    yield path, node
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _parent(cert, path):
    for key in path[:-1]:
        cert = cert[key]
    return cert


# a value of another JSON type than the one it replaces
_RETYPED = (None, True, -1, 0, 3, 2.5, "", "x", [], [0], {}, {"k": 1})
_STRINGS = st.text(alphabet="[]{}|,:=()!&x01lt- \n", max_size=12)


class TestCertificateFuzz:
    """A certificate with keys dropped, values retyped or strings replaced
    is accepted, rejected or refused as input: never an engine failure."""

    @pytest.fixture(scope="class")
    def certs(self, tmp_path_factory):
        linord = catalog_path("linord.cls")
        out = {}
        for name, argv in (("core", ["core", linord, "--reduct", "Qleq"]),
                           ("bidef", ["bidef", linord, "--reducts", "Qlt", "QltRev",
                                      "--mode", "fo"])):
            path = tmp_path_factory.mktemp(name)
            assert _in_process(argv + ["--witness-out", str(path)])[0] == 0
            out[name] = json.loads((path / "certificate.json").read_text())
        return out

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_verify_exit_code_and_no_traceback(self, certs, data):
        cert = copy.deepcopy(certs[data.draw(st.sampled_from(sorted(certs)))])
        for _ in range(data.draw(st.integers(1, 3))):
            kind = data.draw(st.sampled_from(("drop", "retype", "string")))
            paths = [path for path, value in _nodes(cert)
                     if path and (kind != "string" or isinstance(value, str))]
            if not paths:
                continue
            path = data.draw(st.sampled_from(paths))
            parent, key = _parent(cert, path), path[-1]
            if kind == "drop":
                del parent[key]
            elif kind == "retype":
                old = parent[key]
                parent[key] = data.draw(st.sampled_from(
                    [v for v in _RETYPED if type(v) is not type(old)]))
            else:
                others = [value for _, value in _nodes(cert) if isinstance(value, str)]
                parent[key] = data.draw(st.sampled_from(others) | _STRINGS | st.builds(
                    lambda s, i: s[:i], st.just(parent[key]), st.integers(0, 40)))
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "certificate.json").write_text(json.dumps(cert))
            code, _, err = _in_process(["verify", tmp])
        assert code in (0, 1, 3), err
        assert "Traceback" not in err and "internal error" not in err, err


def _mutate_rows(rows: list[str], kind: str, i: int, j: int) -> list[str]:
    """The rows of a behaviour table after one mutation of row i (j picks
    the second row or the character a mutation needs)."""
    rows = list(rows)
    if kind == "drop":
        del rows[i]
    elif kind == "duplicate":
        rows.insert(j % (len(rows) + 1), rows[i])
    elif kind == "arrow":
        rows[i] = rows[i].replace("->", "|", 1)
    elif kind == "bracket":
        cuts = [n for n, ch in enumerate(rows[i]) if ch in "[]"]
        if cuts:
            cut = cuts[j % len(cuts)]
            rows[i] = rows[i][:cut] + rows[i][cut + 1:]
    else:  # move row i's value to row j
        j %= len(rows)
        rows[j] = rows[j].rpartition(" -> ")[0] + " -> " + rows[i].rpartition(" -> ")[2]
    return rows


class TestBehaviourTableFuzz:
    """A behaviour or polymorphism table in a certificate with rows dropped,
    duplicated, garbled or given another row's value never fails as an
    engine error, and a table the verifier reads is accepted only when its
    rows are unchanged as a set."""

    # certificate, path of the table in it, whether the verifier reads it: a
    # bidef check trusts its core blocks apart from their base classes
    TABLES = (("bidef", ("witness", "xi"), True), ("bidef", ("witness", "eta"), True),
              ("bidef", ("core_c", "witness"), False), ("core", ("core", "witness"), True),
              ("definable", ("witness",), True))

    @pytest.fixture(scope="class")
    def certs(self, tmp_path_factory):
        linord = catalog_path("linord.cls")
        out = {}
        for name, argv, code in (
                ("bidef", ["bidef", linord, "--reducts", "Qlt", "QltRev", "--mode", "fo"], 0),
                ("core", ["core", linord, "--reduct", "Qlt"], 0),
                ("definable", ["definable", linord, "--reduct", "Qlt", "--mode", "pp",
                               "--query", "!(x0=x1)", "--query-arity", "2"], 1)):
            path = tmp_path_factory.mktemp(name)
            assert _in_process(argv + ["--witness-out", str(path)])[0] == code
            out[name] = json.loads((path / "certificate.json").read_text())
        assert out["definable"]["witness_arity"] == 2
        return out

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_verify_accepts_only_the_same_rows(self, certs, data):
        name, path, read = data.draw(st.sampled_from(self.TABLES))
        cert = copy.deepcopy(certs[name])
        parent = _parent(cert, path)
        rows = parent[path[-1]].split("\n")
        mutated = rows
        for _ in range(data.draw(st.integers(1, 3))):
            if not mutated:
                break
            kind = data.draw(st.sampled_from(("drop", "duplicate", "arrow", "bracket",
                                              "move")))
            i = data.draw(st.integers(0, len(mutated) - 1))
            mutated = _mutate_rows(mutated, kind, i, data.draw(st.integers(0, 99)))
        parent[path[-1]] = "\n".join(mutated)
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "certificate.json").write_text(json.dumps(cert))
            code, _, err = _in_process(["verify", tmp])
        assert code in (0, 1, 3), err
        assert "Traceback" not in err and "internal error" not in err, err
        assert code != 0 or not read or set(mutated) == set(rows)
