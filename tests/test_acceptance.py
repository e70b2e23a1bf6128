"""Acceptance criteria, one test per criterion, with stated time limits.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion.
"""

import time
from itertools import product
from pathlib import Path

import pytest

from agekit.ages import enumerate_age
from agekit.canonical import (
    Behaviour,
    greedy_extension_probe,
    is_realizable,
    serialize_behaviour,
)
from agekit.certs import bidef_certificate, definable_certificate
from agekit.cli import main
from agekit.core import compute_core, is_optimally_presented
from agekit.decide import decide_bidef
from agekit.definability import definable
from agekit.ktypes import enumerate_types, serialize_type
from agekit.parser import parse_input, render_class, render_reduct
from agekit.reducts import behaviour_preserves_relation, compile_orbit_union
from agekit.structures import Signature, render_literal, structure
from agekit.verify import VerificationFailure, _VBehaviour, verify_certificate
from conftest import (CATALOG_FILES, age_equal_upto, apply_types, catalog_path,
                      catalog_text, compose, is_identity, mask_types, realizable_behaviours,
                      types_mask)

GOLDEN = Path(__file__).parent / "golden"
ALL_REDUCTS = ("Qlt", "Qleq", "QltRev", "Qneq", "Rg", "Tf", "Kww", "M1", "Pt")


def timed(limit_s):
    """Run the wrapped criterion body under a wall-clock limit."""

    class _Timer:
        def __enter__(self):
            self.start = time.perf_counter()
            return self

        def __exit__(self, exc_type, exc, tb):
            self.elapsed = time.perf_counter() - self.start
            if exc_type is None:
                assert self.elapsed < limit_s, (
                    f"exceeded time limit: {self.elapsed:.2f}s >= {limit_s}s")
            return False

    return _Timer()


def report(n, text, elapsed):
    print(f"PASS criterion {n}: {text} ({elapsed:.2f}s)")


def test_criterion_1_qleq_core_golden(catalog, tmp_path):
    """Core of (Q,<=) is the one-point class with a total order relation."""
    with timed(1.0) as t:
        out = tmp_path / "c1"
        code = main(["core", catalog_path("linord.cls"), "--reduct", "Qleq",
                     "--witness-out", str(out)])
        assert code == 0
        for name in ("core_base.cls", "core_reduct.cls", "core_witness.bhv"):
            assert (out / name).read_bytes() == \
                (GOLDEN / "qleq_core" / name).read_bytes(), f"golden mismatch: {name}"
        p = compute_core(catalog.reduct("Qleq"))
        assert [len(enumerate_age(p.base_out, n)) for n in range(4)] == [1, 1, 0, 0]
        u = compile_orbit_union(p.reduct_out, "leq")
        assert mask_types(p.base_out, 2, u) == frozenset(enumerate_types(p.base_out, 2))
    report(1, "core of (Q,<=) is the one-point class, golden files match", t.elapsed)


def test_criterion_2_qlt_core_identity(catalog, linord):
    """Core of (Q,<) is (Q,<): same age up to size 4, identity witness."""
    with timed(1.0) as t:
        p = compute_core(catalog.reduct("Qlt"))
        assert is_identity(p.witness)
        assert age_equal_upto(p.base_out, linord, 4)
    report(2, "core of (Q,<) is (Q,<) up to size 4 with identity witness", t.elapsed)


def test_criterion_3_random_graph_core(catalog):
    """Core of the random graph is the clique class: non-edge pair forbidden."""
    with timed(1.0) as t:
        p = compute_core(catalog.reduct("Rg"))
        assert {render_literal(b) for b in p.base_out.bounds} == \
            {"size=1: E(0,0)", "size=2:", "size=2: E(1,0)"}
        for n in range(1, 5):
            assert len(enumerate_age(p.base_out, n)) == 1
    report(3, "core of the random graph is the clique class", t.elapsed)


def test_criterion_4_kww_core(catalog):
    """Core of the complete bipartite graph is a single edge (the K2 class)."""
    with timed(5.0) as t:
        p = compute_core(catalog.reduct("Kww"))
        assert [len(enumerate_age(p.base_out, n)) for n in range(5)] == \
            [1, 1, 1, 0, 0]
        gsig = Signature((("E", 2),))
        k2 = structure(gsig, 2, [("E", (0, 1)), ("E", (1, 0))])
        assert enumerate_age(p.base_out, 2) == (k2,)
    report(4, "core of K_w,w is the K2 class", t.elapsed)


def test_criterion_5_bidef_verdicts(catalog):
    """YES with a verifier-passing reversal witness; NO for (Q,<=) vs (Q,<)."""
    with timed(10.0) as t:
        v = decide_bidef(catalog.reduct("Qlt"), catalog.reduct("QltRev"), "fo", k=2)
        assert v.answer == "YES"
        assert v.witness.xi.table == (0, 2, 1), "expected the reversal witness"
        cert = bidef_certificate("bidef", catalog.reduct("Qlt"),
                                 catalog.reduct("QltRev"), v)
        verify_certificate(cert)
    with timed(10.0) as t2:
        v = decide_bidef(catalog.reduct("Qleq"), catalog.reduct("Qlt"), "fo", k=2)
        assert v.answer == "NO"
    report(5, "bidef: reversal pair YES (verified), (Q,<=) vs (Q,<) NO",
           t.elapsed + t2.elapsed)


def test_criterion_6_pp_definability(catalog):
    """{<,>} NOT-DEFINABLE with a verifier-passing binary witness; {<} DEFINABLE."""
    with timed(10.0) as t:
        c = catalog.reduct("Qlt")
        p = compute_core(c)
        types = enumerate_types(p.base_out, 2)
        neq = types_mask(p.base_out, 2, {types[1], types[2]})
        verdict = definable(p, 2, neq, "pp")
        assert not verdict.definable
        w = verdict.witness
        assert w.arity == 2
        # componentwise-minimum signature: the pair ((<),(>)) collapses to (=)
        assert apply_types(w, (types[1], types[2])) == types[0]
        lt = types_mask(p.base_out, 2, {types[1]})
        assert behaviour_preserves_relation(w, 2, lt, lt)
        assert not behaviour_preserves_relation(w, 2, neq, neq)
        assert is_realizable(w, verdict.realize_cap)
        cert = definable_certificate(c, p, verdict)
        notes = verify_certificate(cert)
        assert any("violates" in n for n in notes)

        assert definable(p, 2, lt, "pp").definable
    report(6, "pp: {<,>} NOT-DEFINABLE (verified min witness), {<} DEFINABLE",
           t.elapsed)


def test_criterion_7_behaviour_count(linord):
    """Exactly 3 realizable self-behaviours of linear orders at k=2, matching
    a brute-force oracle over all 27 candidate tables run through the
    independent verifier implementation."""
    with timed(30.0) as t:
        got = realizable_behaviours(linord, linord, 2)
        assert len(got) == 3
        assert {b.table for b in got} == {(0, 1, 2), (0, 2, 1), (0, 0, 0)}

        types = enumerate_types(linord, 2)
        accepted = set()
        for table in product(range(3), repeat=3):
            lines = "\n".join(
                f"{serialize_type(p)} -> {serialize_type(types[v])}"
                for p, v in zip(types, table))
            vb = _VBehaviour(linord, linord, 2, lines)
            try:
                vb.check_compatible()
                vb.check_realizable(4)
            except VerificationFailure:
                continue
            accepted.add(table)
        assert accepted == {b.table for b in got}
    report(7, "3 linear-order self-behaviours, matching the 27-table oracle",
           t.elapsed)


def test_criterion_8_property_suites(catalog, tmp_path):
    """(a) probes clean; (b) cores optimally presented, re-core = identity;
    (c) bidef reflexive/symmetric/transitive; (d) certificates re-verify;
    (e) parsing round-trips byte-identically.  Total under 2 minutes."""
    with timed(120.0) as t:
        # (a) every realizable behaviour survives the randomized probe
        for name in ("linord", "graphs", "trifree", "bipartite", "maxdeg1",
                     "point"):
            cls = catalog.bounded_class(name)
            for xi in realizable_behaviours(cls, cls, 2):
                probe = greedy_extension_probe((xi,), 8, 200, seed=0)[0]
                assert probe.ok, (
                    f"probe failures on {name}: {probe.failures[:3]}")

        # (b) core outputs are optimally presented; re-coring is trivial
        for name in ALL_REDUCTS:
            p = compute_core(catalog.reduct(name))
            ok, _ = is_optimally_presented(p.reduct_out, p.k)
            assert ok, name
            p2 = compute_core(p.reduct_out, p.k)
            assert is_identity(p2.witness), name

        # (c) decision relation properties
        certs = []
        for name in ALL_REDUCTS:
            v = decide_bidef(catalog.reduct(name), catalog.reduct(name), "fo")
            assert v.answer == "YES", name
            certs.append(bidef_certificate(
                "bidef", catalog.reduct(name), catalog.reduct(name), v))
        for a, b in (("Qlt", "QltRev"), ("Qleq", "Qlt"), ("Rg", "Kww"),
                     ("Pt", "Qleq")):
            fwd = decide_bidef(catalog.reduct(a), catalog.reduct(b), "fo")
            bwd = decide_bidef(catalog.reduct(b), catalog.reduct(a), "fo")
            assert fwd.answer == bwd.answer
            if fwd.answer == "YES":
                certs.append(bidef_certificate(
                    "bidef", catalog.reduct(a), catalog.reduct(b), fwd))
        qlt2_cat = parse_input(
            catalog_text("linord.cls")
            + "\nreduct Qlt2 over linord\n  rel s/2 := lt(x0,x1)\nend\n")
        ab = decide_bidef(catalog.reduct("Qlt"), qlt2_cat.reduct("Qlt2"), "fo")
        bc = decide_bidef(qlt2_cat.reduct("Qlt2"), catalog.reduct("QltRev"), "fo")
        ac = decide_bidef(catalog.reduct("Qlt"), catalog.reduct("QltRev"), "fo")
        assert ab.answer == bc.answer == ac.answer == "YES"
        assert compose(bc.witness.xi, ab.witness.xi).table == ac.witness.xi.table

        # (d) every YES certificate re-verifies through the independent path
        for cert in certs:
            notes = verify_certificate(cert)
            assert any("carried both ways" in n for n in notes)

        # (e) round-trip byte-identity on the catalog and on emitted files
        for name in CATALOG_FILES:
            cat = parse_input(catalog_text(name))
            rendered = "".join(render_class(c) for c in cat.classes.values()) \
                + "".join(render_reduct(r) for r in cat.reducts.values())
            cat2 = parse_input(rendered)
            rendered2 = "".join(render_class(c) for c in cat2.classes.values()) \
                + "".join(render_reduct(r) for r in cat2.reducts.values())
            assert rendered == rendered2
        out = tmp_path / "emitted"
        assert main(["core", catalog_path("bipartite.cls"), "--reduct", "Kww",
                     "--witness-out", str(out)]) == 0
        emitted = (out / "core_base.cls").read_text()
        cat3 = parse_input(emitted)
        assert render_class(cat3.sole_class()) == emitted
    report(8, "property suites (probe, cores, decision laws, certificates, "
              "round-trips)", t.elapsed)
