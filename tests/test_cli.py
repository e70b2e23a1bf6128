"""CLI surface: grammar errors with positions, round-trips, subcommands,
exit codes, certificate paths, determinism."""

import contextlib
import copy
import io
import json
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agekit.cli import main
from agekit.errors import ParseError
from agekit.parser import Catalog, parse_input, render_class, render_reduct
from conftest import CATALOG_FILES, catalog_path, catalog_text


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


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
            assert (out_dir / name).read_bytes() == (golden / name).read_bytes()

    def test_core_report_matches_golden(self, capsys):
        golden = Path(__file__).parent / "golden" / "qleq_core" / "report.txt"
        code, out = run_cli(
            ["core", catalog_path("linord.cls"), "--reduct", "Qleq"], capsys)
        assert code == 0 and out == golden.read_text()

    def test_probe_report_matches_golden(self, capsys):
        # realize cap 2 admits behaviours whose images fail: 88 incoherent
        # and 56 outside-target-age lines over 40 trials
        golden = Path(__file__).parent / "golden" / "probe_trifree_cap2.txt"
        code, out = run_cli(
            ["probe", catalog_path("trifree.cls"), "--realize-cap", "2",
             "--trials", "40", "--seed", "3"], capsys)
        assert code == 1 and out == golden.read_text()

    def test_behaviours_graphs_k4_matches_golden(self, capsys):
        # realizability stops at 3 points, not at 2k = 8, and reports the
        # same behaviours and caps as the check to 8 points
        golden = Path(__file__).parent / "golden" / "behaviours_graphs_k4.txt"
        code, out = run_cli(["behaviours", catalog_path("graphs.cls"), "--k", "4"],
                            capsys)
        assert code == 0 and out == golden.read_text()

    def test_behaviours_linord_k5_matches_golden(self, capsys):
        # 541 rows at level 5, written before the row search was rebuilt on
        # arc consistency alone
        golden = Path(__file__).parent / "golden" / "behaviours_linord_k5.txt"
        code, out = run_cli(["behaviours", catalog_path("linord.cls"), "--k", "5"],
                            capsys)
        assert code == 0 and out == golden.read_text()

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


THOMAS = str(Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / "thomas.cls")


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
        (["definable", "linord.cls", "--reduct", "Qlt", "--n", "0"], "--n must be >= 1"),
        (["definable", "linord.cls", "--reduct", "Qlt", "--query", "x0=x0",
          "--query-arity", "0"], "--query-arity must be >= 1"),
    ], ids=["probe-realize-cap-0", "behaviours-realize-cap-negative", "check-ap-cap-0",
            "definable-arity-cap-0", "orbits-k-negative", "behaviours-k-0",
            "probe-k-below-arity", "core-k-below-arity", "bidef-k-below-arity",
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

    def test_huge_arity(self, tmp_path):
        # refused with the signature, before any slot count or tuple is built
        bad = tmp_path / "huge.cls"
        bad.write_text("class c\n  sig E/99999999999\nend\n")
        r = subprocess.run([sys.executable, "-m", "agekit.cli", "orbits", str(bad),
                            "--k", "2"], capture_output=True, text=True, timeout=60)
        assert r.returncode == 3 and r.stdout == ""
        assert "line 2" in r.stderr and "arity 99999999999" in r.stderr
        assert "Traceback" not in r.stderr and "internal error" not in r.stderr

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

    @pytest.mark.parametrize("argv,flag", [
        (["orbits", "linord.cls", "--seed", "5"], "--seed"),
        (["orbits", "linord.cls", "--witness-out", "D"], "--witness-out"),
        (["orbits", "linord.cls", "--realize-cap", "7"], "--realize-cap"),
        (["check", "trifree.cls", "--k", "3"], "--k"),
        (["check", "trifree.cls", "--realize-cap", "3"], "--realize-cap"),
        (["check", "trifree.cls", "--seed", "1"], "--seed"),
        (["behaviours", "graphs.cls", "--witness-out", "D"], "--witness-out"),
        (["behaviours", "graphs.cls", "--arity-cap", "2"], "--arity-cap"),
        (["probe", "graphs.cls", "--ap-cap", "2"], "--ap-cap"),
        (["core", "linord.cls", "--reduct", "Qlt", "--arity-cap", "2"], "--arity-cap"),
        (["definable", "linord.cls", "--reduct", "Qlt", "--seed", "1"], "--seed"),
        (["definable", "linord.cls", "--reduct", "Qlt", "--ap-cap", "2"], "--ap-cap"),
        (["bidef", "linord.cls", "--reducts", "Qlt", "QltRev", "--ap-cap", "2"],
         "--ap-cap"),
        (["biint", "linord.cls", "--reducts", "Qlt", "QltRev", "--seed", "2"], "--seed"),
        (["verify", "linord.cls", "--k", "3"], "--k"),
    ], ids=["orbits-seed", "orbits-witness-out", "orbits-realize-cap", "check-k",
            "check-realize-cap", "check-seed", "behaviours-witness-out",
            "behaviours-arity-cap", "probe-ap-cap", "core-arity-cap", "definable-seed",
            "definable-ap-cap", "bidef-ap-cap", "biint-seed", "verify-k"])
    def test_unread_flag_refused(self, capsys, argv, flag):
        # a subcommand declares only the flags its handler reads
        with pytest.raises(SystemExit) as exc:
            main([argv[0], catalog_path(argv[1]), *argv[2:]])
        captured = capsys.readouterr()
        assert exc.value.code == 3 and captured.out == ""
        assert "unrecognized arguments" in captured.err and flag in captured.err

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
        # rows of 2 positions read before any type on 12 positions is built
        pytest.param("core.witness", lambda c: c["core"].update(k=12),
                     id="core.witness-level"),
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
