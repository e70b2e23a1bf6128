"""Top-level deciders: bi-definability and the bi-interpretability wrapper.

Both inputs are taken to their model-complete cores and expanded by all
mode-definable relations of bounded arity; the search then runs over
arity-preserving signature matchings and pairs of mutually inverse
realizable behaviours between the two optimal presentations, checking that
matched relations are carried into each other in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

from .ages import check_amalgamation, default_ap_cap
from .canonical import (
    Behaviour,
    enumerate_behaviours,
    inverse,
    is_realizable,
)
from .core import CorePresentation, compute_core, require_core_flags
from .definability import ep_expand, pp_expand
from .errors import InputError
from .ktypes import default_level, enumerate_types
from .reducts import Reduct, behaviour_preserves_relation, compiled_unions

MODES = ("fo", "ep", "pp")


@dataclass(frozen=True)
class Caps:
    k: int
    expand_arity: int
    realize_cap: int | None = None
    arity_cap: int | None = None
    ap_cap: int | None = None

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "expand_arity": self.expand_arity,
            "realize_cap": self.realize_cap,
            "arity_cap": self.arity_cap,
            "ap_cap": self.ap_cap,
        }


@dataclass(frozen=True)
class Witness:
    matching: tuple[tuple[str, str], ...]
    xi: Behaviour
    eta: Behaviour


@dataclass(frozen=True)
class Verdict:
    answer: str  # YES | NO | PRECONDITION-FAILED
    mode: str
    caps: Caps
    witness: Witness | None = None
    reason: str = ""
    core_c: CorePresentation | None = None
    core_d: CorePresentation | None = None
    expanded_c: Reduct | None = None
    expanded_d: Reduct | None = None
    cap_relative: bool = False

    @property
    def exit_code(self) -> int:
        return {"YES": 0, "NO": 1, "PRECONDITION-FAILED": 2}[self.answer]


def _check_mode(mode: str) -> None:
    if mode not in MODES:
        raise InputError(f"mode must be one of {MODES}, got {mode!r}")


def _expand(p: CorePresentation, mode: str, caps: Caps) -> Reduct:
    # fo and ep definability agree on model-complete cores
    if mode in ("fo", "ep"):
        return ep_expand(p, caps.expand_arity)
    return pp_expand(p, caps.expand_arity, caps.arity_cap, caps.realize_cap)


def _matchings(crels, drels):
    """Arity-preserving bijections, lexicographic by D-relation positions."""
    arities = sorted({r.arity for r in crels})
    by_c = {a: [r for r in crels if r.arity == a] for a in arities}
    by_d = {a: [r for r in drels if r.arity == a] for a in arities}
    if {r.arity for r in drels} != set(arities):
        return
    if any(len(by_c[a]) != len(by_d[a]) for a in arities):
        return
    pools = [permutations(by_d[a]) for a in arities]
    for combo in product(*pools):
        pairs = []
        for a, perm in zip(arities, combo):
            pairs.extend((c.name, d.name) for c, d in zip(by_c[a], perm))
        yield tuple(sorted(pairs))


def default_caps(c: Reduct, d: Reduct, k: int | None = None,
                 expand_arity: int | None = None,
                 realize_cap: int | None = None,
                 arity_cap: int | None = None,
                 ap_cap: int | None = None) -> Caps:
    level = default_level(c, d)
    if k is None:
        k = level
    if k < level:
        raise InputError(f"k must be >= {level} for these inputs")
    n = max(c.max_arity, d.max_arity)
    if expand_arity is None:
        expand_arity = n
    if expand_arity < n:
        raise InputError(f"expansion arity must be >= {n}")
    return Caps(k, expand_arity, realize_cap, arity_cap, ap_cap)


def decide_bidef(c: Reduct, d: Reduct, mode: str, k: int | None = None,
                 expand_arity: int | None = None,
                 realize_cap: int | None = None,
                 arity_cap: int | None = None) -> Verdict:
    """Are the model-complete cores of c and d (fo/ep/pp)-bi-definable?

    In pp mode a NO is relative to the arity and realizability caps (and the
    verdict says so); YES answers always carry a re-checkable witness.
    """
    _check_mode(mode)
    require_core_flags(c)
    require_core_flags(d)
    caps = default_caps(c, d, k, expand_arity, realize_cap, arity_cap)
    pc = compute_core(c, caps.k, caps.realize_cap)
    pd = compute_core(d, caps.k, caps.realize_cap)
    cc = _expand(pc, mode, caps)
    dd = _expand(pd, mode, caps)
    relative = mode == "pp"

    base_kwargs = dict(mode=mode, caps=caps, core_c=pc, core_d=pd,
                       expanded_c=cc, expanded_d=dd, cap_relative=relative)

    n_src = len(enumerate_types(pc.base_out, caps.k))
    n_tgt = len(enumerate_types(pd.base_out, caps.k))
    if n_src != n_tgt:
        return Verdict("NO", reason=(
            f"type counts at k={caps.k} differ: {n_src} vs {n_tgt}"),
            **base_kwargs)

    c_unions = dict(compiled_unions(cc))
    d_unions = dict(compiled_unions(dd))
    matchings = list(_matchings(cc.relations, dd.relations))
    if not matchings:
        return Verdict("NO", reason="no arity-preserving signature matching",
                       **base_kwargs)

    candidates = [
        xi for xi in enumerate_behaviours(pc.base_out, pd.base_out, caps.k,
                                          realize_cap=caps.realize_cap)
        if xi.is_bijective()
    ]
    eta_ok: dict[Behaviour, Behaviour | None] = {}
    for tau in matchings:
        for xi in candidates:
            if not all(
                behaviour_preserves_relation(xi, c_unions[cn], d_unions[dn])
                for cn, dn in tau
            ):
                continue
            if xi not in eta_ok:
                eta = inverse(xi)
                eta_ok[xi] = eta if is_realizable(eta, caps.realize_cap) else None
            eta = eta_ok[xi]
            if eta is None:
                continue
            if not all(
                behaviour_preserves_relation(eta, d_unions[dn], c_unions[cn])
                for cn, dn in tau
            ):
                continue
            return Verdict("YES", witness=Witness(tau, xi, eta), **base_kwargs)
    return Verdict("NO", reason="no witness pair over any matching", **base_kwargs)


def decide_biint(c: Reduct, d: Reduct, mode: str, k: int | None = None,
                 expand_arity: int | None = None,
                 realize_cap: int | None = None,
                 arity_cap: int | None = None,
                 ap_cap: int | None = None) -> Verdict:
    """Bi-interpretability of the cores, reduced to bi-definability.

    Preconditions: both cores without algebraicity, checked through the
    strong-amalgamation proxy on their optimal presentations up to a cap;
    in pp mode additionally transitivity of both input base classes.
    """
    _check_mode(mode)
    require_core_flags(c)
    require_core_flags(d)
    caps = default_caps(c, d, k, expand_arity, realize_cap, arity_cap, ap_cap)
    pc = compute_core(c, caps.k, caps.realize_cap)
    pd = compute_core(d, caps.k, caps.realize_cap)

    if mode == "pp":
        for name, reduct in (("first", c), ("second", d)):
            n1 = len(enumerate_types(reduct.base, 1))
            if n1 != 1:
                return Verdict(
                    "PRECONDITION-FAILED", mode=mode, caps=caps,
                    core_c=pc, core_d=pd,
                    reason=(f"{name} input base {reduct.base.name} is not "
                            f"transitive: {n1} 1-types"))

    for name, pres in (("first", pc), ("second", pd)):
        cap = caps.ap_cap if caps.ap_cap is not None else default_ap_cap(pres.base_out)
        result = check_amalgamation(pres.base_out, cap, strong=True)
        if not result.ok:
            return Verdict(
                "PRECONDITION-FAILED", mode=mode, caps=caps,
                core_c=pc, core_d=pd,
                reason=(f"{name} core base {pres.base_out.name} fails strong "
                        f"amalgamation (no-algebraicity proxy) at cap {cap}"))

    verdict = decide_bidef(c, d, mode, caps.k, caps.expand_arity,
                           caps.realize_cap, caps.arity_cap)
    return Verdict(verdict.answer, mode=mode, caps=caps, witness=verdict.witness,
                   reason=verdict.reason, core_c=pc, core_d=pd,
                   expanded_c=verdict.expanded_c, expanded_d=verdict.expanded_d,
                   cap_relative=verdict.cap_relative)
