"""The benchmark's workloads: agekit CLI queries with hand-derived answers.

Every expected answer below comes from the mathematics of the input
structure, stated in the query's ``why`` line, never from agekit's output.
A query's argv is ``command, *files, *opts``; ``{seed}`` in an option is
replaced by the run's seed and ``{certs}`` by the run's certificate
directory.
"""

from __future__ import annotations

from dataclasses import dataclass

CAT = "src/agekit/catalog"
THOMAS = "perfbench/inputs/thomas.cls"
LINORD = f"{CAT}/linord.cls"

# Wall-clock limit of one query; a query past it is killed, counts as
# undecided and as a failed operation.
QUERY_TIMEOUT_S = 60


@dataclass(frozen=True)
class Query:
    name: str
    command: str
    files: tuple[str, ...]
    opts: tuple[str, ...]
    code: int
    line: str
    why: str
    # Non-empty when the program is known to answer this query wrongly: the
    # wrong answer is still counted in correct_frac but does not fail the run.
    defect: str = ""

    def inputs(self, seed: int, certs: str) -> list[str]:
        return [f.format(seed=seed, certs=certs) for f in self.files]

    def argv(self, seed: int, certs: str) -> list[str]:
        opts = [o.format(seed=seed, certs=certs) for o in self.opts]
        return [self.command, *self.inputs(seed, certs), *opts]

    @property
    def cert_dir(self) -> str | None:
        """The certificate directory the query writes, if any, unformatted."""
        if "--witness-out" not in self.opts:
            return None
        return self.opts[self.opts.index("--witness-out") + 1]

    @property
    def verdict_prefix(self) -> str:
        return self.line.split(":", 1)[0] + ":"


def _verify(name: str) -> Query:
    return Query(f"verify-{name}", "verify", ("{certs}/" + name,), (), 0,
                 "verdict: CERTIFICATE-OK",
                 "a certificate for a correct verdict must pass the independent check")


SEARCH_K3 = (
    Query("behaviours-graphs-k3", "behaviours", (f"{CAT}/graphs.cls",), ("--k", "3"),
          0, "realizable behaviours: 5",
          "canonical self-maps of the random graph: identity, complement, e_E, e_N, constant"),
    Query("core-Tf-k3", "core", (f"{CAT}/trifree.cls",), ("--reduct", "Tf", "--k", "3"),
          0, "image types: 14 of 14",
          "the Henson graph is a model-complete core: a common neighbour of a non-edge bars "
          "mapping it to an edge, a path x-z-z'-y bars collapsing it; 1+3*2+7=14 3-types"),
)

AGE_SCAN = (
    Query("check-trifree", "check", (f"{CAT}/trifree.cls",), (), 0, "verdict: OK",
          "triangle-free graphs have free amalgamation: add no edge between new points"),
    Query("orbits-graphs-k4", "orbits", (f"{CAT}/graphs.cls",), ("--k", "4"),
          0, "orbit count at level 4: 127",
          "sum over set partitions of graphs on the blocks: 1*1+7*2+6*8+1*64=127"),
    Query("orbits-linord-k4", "orbits", (LINORD,), ("--k", "4"),
          0, "orbit count at level 4: 75",
          "ordered set partitions of 4 points (Fubini number): 1*1+7*2+6*6+1*24=75"),
    Query("probe-graphs", "probe", (f"{CAT}/graphs.cls",),
          ("--trials", "200", "--seed", "{seed}"), 0, "verdict: OK",
          "every canonical behaviour of the random graph is realized, and the extension "
          "property lets every random one-point extension succeed"),
)

DECIDE_CERT = (
    Query("core-Qleq-k3", "core", (LINORD,),
          ("--reduct", "Qleq", "--k", "3", "--witness-out", "{certs}/core-Qleq"),
          0, "image types: 1 of 13",
          "a constant map preserves x<=y (x<=x), so the core is one point: one 3-type of 13"),
    _verify("core-Qleq"),
    Query("bidef-Qlt-QltRev-fo", "bidef", (LINORD,),
          ("--reducts", "Qlt", "QltRev", "--mode", "fo", "--k", "3",
           "--witness-out", "{certs}/bidef-Qlt-QltRev-fo"),
          0, "verdict: YES", "x>y iff y<x defines each order from the other"),
    _verify("bidef-Qlt-QltRev-fo"),
    Query("bidef-Qlt-QltRev-pp", "bidef", (LINORD,),
          ("--reducts", "Qlt", "QltRev", "--mode", "pp", "--k", "3"),
          0, "verdict: YES", "rev(x,y) := lt(y,x) is a primitive positive definition, and back"),
    Query("bidef-Qleq-Qlt-fo", "bidef", (LINORD,),
          ("--reducts", "Qleq", "Qlt", "--mode", "fo", "--k", "3"),
          1, "verdict: NO",
          "the core of (Q,<=) is one point, the core of (Q,<) is itself: 1 vs 13 3-types"),
    Query("bidef-Qlt-Qneq-fo", "bidef", (LINORD,),
          ("--reducts", "Qlt", "Qneq", "--mode", "fo"),
          1, "verdict: NO",
          "Cameron: (Q,!=) has automorphism group Sym(Q), so < is not fo-definable from !=",
          defect="answers YES: ep_expand adds orbit unions of the base class, "
                 "not of the reduct"),
    Query("biint-M1-M1-ep", "biint", (f"{CAT}/maxdeg1.cls",),
          ("--reducts", "M1", "M1", "--mode", "ep"),
          2, "verdict: PRECONDITION-FAILED",
          "a matched vertex fixes its partner (algebraicity): two partners of one vertex "
          "cannot amalgamate strongly"),
    Query("biint-Qlt-QltRev-pp", "biint", (LINORD,),
          ("--reducts", "Qlt", "QltRev", "--mode", "pp",
           "--witness-out", "{certs}/biint-Qlt-QltRev-pp"),
          0, "verdict: YES",
          "(Q,<) is transitive with strong amalgamation, and > is pp-definable from <"),
    _verify("biint-Qlt-QltRev-pp"),
    Query("bidef-Tf-Tf-pp", "bidef", (f"{CAT}/trifree.cls",),
          ("--reducts", "Tf", "Tf", "--mode", "pp", "--witness-out", "{certs}/bidef-Tf-Tf-pp"),
          0, "verdict: YES", "bi-definability is reflexive: the identity witnesses it"),
    _verify("bidef-Tf-Tf-pp"),
    Query("definable-Qlt-neq-pp", "definable", (LINORD,),
          ("--reduct", "Qlt", "--mode", "pp", "--query", "!(x0=x1)", "--query-arity", "2",
           "--witness-out", "{certs}/definable-Qlt-neq-pp"),
          1, "verdict: NOT-DEFINABLE",
          "min preserves < but maps (1,2),(2,1) to (1,1), so != is not pp-definable in (Q,<)"),
    _verify("definable-Qlt-neq-pp"),
    Query("definable-M1-ep-n3", "definable", (f"{CAT}/maxdeg1.cls",),
          ("--reduct", "M1", "--mode", "ep", "--n", "3"),
          0, "added relations: 2054",
          "canonical self-maps of M1 keep its 1, 3, 11 types: (2^1-1)+(2^3-2)+(2^11-1)=2054 "
          "new unions, E being declared"),
    Query("core-Betw-k3", "core", (LINORD, THOMAS), ("--reduct", "Betw", "--k", "3"),
          0, "image types: 13 of 13",
          "a Betw-preserving map is injective and keeps the middle of each triple, so it "
          "embeds: 13 3-types"),
    Query("core-Cyc-k3", "core", (LINORD, THOMAS), ("--reduct", "Cyc", "--k", "3"),
          0, "image types: 13 of 13",
          "a Cyc-preserving map is injective and keeps the orientation of each triple, so "
          "it embeds: 13 3-types"),
)

WORKLOADS = {
    "search-k3": SEARCH_K3,
    "age-scan": AGE_SCAN,
    "decide-cert": DECIDE_CERT,
}
