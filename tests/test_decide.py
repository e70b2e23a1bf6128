"""Deciders: reference verdicts, reflexivity/symmetry/transitivity,
witness verification, bi-interpretability preconditions."""

import pytest

from agekit.certs import bidef_certificate
from agekit.decide import decide_bidef, decide_biint
from agekit.errors import InputError
from agekit.parser import parse_input
from agekit.verify import VerificationFailure, verify_certificate
from conftest import compose, is_identity


class TestBidefVerdicts:
    def test_reversal_pair_yes_with_reversal_witness(self, catalog):
        v = decide_bidef(catalog.reduct("Qlt"), catalog.reduct("QltRev"), "fo")
        assert v.answer == "YES"
        assert v.witness.xi.table == (0, 2, 1)
        assert is_identity(compose(v.witness.eta, v.witness.xi))
        assert is_identity(compose(v.witness.xi, v.witness.eta))

    def test_leq_vs_lt_is_no(self, catalog):
        v = decide_bidef(catalog.reduct("Qleq"), catalog.reduct("Qlt"), "fo")
        assert v.answer == "NO"
        assert "type counts" in v.reason

    def test_identical_inputs_yes_with_identity(self, catalog):
        for name in ("Qlt", "Rg", "Kww", "Pt"):
            v = decide_bidef(catalog.reduct(name), catalog.reduct(name), "fo")
            assert v.answer == "YES"
            assert is_identity(v.witness.xi)

    def test_random_graph_vs_kww_is_no(self, catalog):
        v = decide_bidef(catalog.reduct("Rg"), catalog.reduct("Kww"), "fo")
        assert v.answer == "NO"

    def test_point_vs_qleq_core_yes(self, catalog):
        # both cores are a single point; signatures match after expansion
        v = decide_bidef(catalog.reduct("Pt"), catalog.reduct("Qleq"), "fo")
        assert v.answer == "YES"

    def test_pp_mode_agrees_on_reversal_pair(self, catalog):
        v = decide_bidef(catalog.reduct("Qlt"), catalog.reduct("QltRev"), "pp")
        assert v.answer == "YES"

    def test_pp_no_is_flagged_cap_relative(self, catalog):
        v = decide_bidef(catalog.reduct("Qleq"), catalog.reduct("Qlt"), "pp")
        assert v.answer == "NO" and v.cap_relative

    def test_missing_flags_is_input_error(self, catalog, linord):
        from agekit.ages import BoundedClass
        from agekit.reducts import Reduct
        bare = BoundedClass("bare", linord.signature, linord.bounds, True, False)
        c = Reduct("c", bare, catalog.reduct("Qlt").relations)
        with pytest.raises(InputError):
            decide_bidef(c, catalog.reduct("Qlt"), "fo")

    def test_bad_mode_rejected(self, catalog):
        with pytest.raises(InputError):
            decide_bidef(catalog.reduct("Qlt"), catalog.reduct("Qlt"), "xx")


class TestRelationProperties:
    PAIRS = (("Qlt", "QltRev"), ("Qleq", "Qlt"), ("Rg", "Kww"), ("Rg", "Rg"),
             ("Qneq", "Qlt"), ("Pt", "Qleq"))

    def test_reflexive_across_catalog(self, catalog):
        for name in ("Qlt", "Qleq", "QltRev", "Qneq", "Rg", "Tf", "Kww", "M1", "Pt"):
            v = decide_bidef(catalog.reduct(name), catalog.reduct(name), "fo")
            assert v.answer == "YES", name

    def test_symmetric_verdicts(self, catalog):
        for a, b in self.PAIRS:
            fwd = decide_bidef(catalog.reduct(a), catalog.reduct(b), "fo")
            bwd = decide_bidef(catalog.reduct(b), catalog.reduct(a), "fo")
            assert fwd.answer == bwd.answer, (a, b)
            if fwd.answer == "YES":
                # witnesses swap roles
                assert fwd.witness.xi.table in (bwd.witness.eta.table,
                                                bwd.witness.xi.table)

    def test_transitive_on_witnessed_triples(self, catalog, linord):
        # a renamed copy of the atomic order gives a YES triple
        text = """
reduct Qlt2 over linord
  rel s/2 := lt(x0,x1)
end
"""
        from agekit.parser import Catalog
        cat2 = Catalog()
        cat2.classes["linord"] = linord
        parse_input(text, cat2)
        qlt2 = cat2.reduct("Qlt2")
        ab = decide_bidef(catalog.reduct("Qlt"), qlt2, "fo")
        bc = decide_bidef(qlt2, catalog.reduct("QltRev"), "fo")
        ac = decide_bidef(catalog.reduct("Qlt"), catalog.reduct("QltRev"), "fo")
        assert ab.answer == bc.answer == ac.answer == "YES"
        composed = compose(bc.witness.xi, ab.witness.xi)
        assert composed.table == ac.witness.xi.table
        back = compose(ab.witness.eta, bc.witness.eta)
        assert is_identity(compose(back, composed))


class TestWitnessCertificates:
    def test_yes_certificates_verify(self, catalog):
        for a, b, mode in (("Qlt", "QltRev", "fo"), ("Qlt", "Qlt", "ep"),
                           ("Pt", "Qleq", "fo"), ("Qlt", "QltRev", "pp")):
            ra, rb = catalog.reduct(a), catalog.reduct(b)
            v = decide_bidef(ra, rb, mode)
            assert v.answer == "YES"
            cert = bidef_certificate("bidef", ra, rb, v)
            notes = verify_certificate(cert)
            assert any("carried both ways" in n for n in notes)

    def test_tampered_certificate_rejected(self, catalog):
        ra, rb = catalog.reduct("Qlt"), catalog.reduct("QltRev")
        v = decide_bidef(ra, rb, "fo")
        cert = bidef_certificate("bidef", ra, rb, v)
        # swap two lines of xi: breaks either compatibility or composition
        lines = cert["witness"]["xi"].splitlines()
        lines[1], lines[2] = (lines[2].split(" -> ")[0] + " -> " +
                              lines[1].split(" -> ")[1],
                              lines[1].split(" -> ")[0] + " -> " +
                              lines[2].split(" -> ")[1])
        cert["witness"]["xi"] = "\n".join(lines)
        with pytest.raises(VerificationFailure):
            verify_certificate(cert)

    def test_no_certificate_verifies_trivially(self, catalog):
        ra, rb = catalog.reduct("Qleq"), catalog.reduct("Qlt")
        v = decide_bidef(ra, rb, "fo")
        cert = bidef_certificate("bidef", ra, rb, v)
        notes = verify_certificate(cert)
        assert any("no witness" in n for n in notes)


class TestBiint:
    def test_reversal_pair_ep_yes(self, catalog):
        v = decide_biint(catalog.reduct("Qlt"), catalog.reduct("QltRev"), "ep")
        assert v.answer == "YES"

    def test_pp_transitivity_check_passes_for_linord(self, catalog):
        v = decide_biint(catalog.reduct("Qlt"), catalog.reduct("QltRev"), "pp")
        assert v.answer == "YES"

    def test_maxdeg1_fails_sap_proxy(self, catalog):
        v = decide_biint(catalog.reduct("M1"), catalog.reduct("M1"), "ep")
        assert v.answer == "PRECONDITION-FAILED"
        assert "strong amalgamation" in v.reason

    def test_finite_cores_fail_the_proxy(self, catalog):
        # the point and the single edge have algebraicity
        for name in ("Qleq", "Kww", "Pt"):
            v = decide_biint(catalog.reduct(name), catalog.reduct(name), "ep")
            assert v.answer == "PRECONDITION-FAILED", name

    def test_ap_cap_recorded(self, catalog):
        v = decide_biint(catalog.reduct("M1"), catalog.reduct("M1"), "ep",
                         ap_cap=3)
        assert v.answer == "PRECONDITION-FAILED"
        assert "cap 3" in v.reason
