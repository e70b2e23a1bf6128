"""Top-level deciders: bi-definability and the bi-interpretability wrapper.

Both inputs are taken to their model-complete cores and expanded by all
mode-definable relations of bounded arity.  On cores, a bijective
behaviour xi forces the signature matching: the relation with orbit union U
goes to the relation with union xi(U), the lowest unused one among duplicate
declarations.  The witness is the first xi, by matched positions and then by
serialization, that is realizable and whose inverse is realizable.
"""

from __future__ import annotations

from .ages import check_amalgamation
from .canonical import (
    Behaviour,
    enumerate_behaviours,
    inverse,
    is_realizable,
)
from .core import CorePresentation, compute_core, require_core_flags
from .definability import expand
from .errors import InputError
from .ktypes import default_level, enumerate_types
from .reducts import Reduct, compiled_unions
from .value import Value

MODES = ("fo", "ep", "pp")


class Caps(Value):
    __slots__ = ("k", "expand_arity", "realize_cap", "arity_cap", "ap_cap")
    _defaults = {"realize_cap": None, "arity_cap": None, "ap_cap": None}

    def as_dict(self) -> dict:
        return dict(zip(self._fields, self._key()))


class Witness(Value):
    __slots__ = ("matching", "xi", "eta")


class Verdict(Value):
    # answer: YES | NO | PRECONDITION-FAILED
    __slots__ = ("answer", "mode", "caps", "witness", "reason", "core_c", "core_d",
                 "expanded_c", "expanded_d", "cap_relative")
    _defaults = {"witness": None, "reason": "", "core_c": None, "core_d": None,
                 "expanded_c": None, "expanded_d": None, "cap_relative": False}

    @property
    def exit_code(self) -> int:
        return {"YES": 0, "NO": 1, "PRECONDITION-FAILED": 2}[self.answer]


def _forced_positions(xi: Behaviour, c_masks, d_index) -> tuple[int, ...] | None:
    """The D position each C mask goes to under xi, in the order of c_masks,
    or None when some image mask is not (or no longer) available in D."""
    used: set[int] = set()
    out = []
    for arity, mask in c_masks:
        level = xi.level_map(arity)
        image = 0
        for i, v in enumerate(level):
            if mask >> i & 1:
                image |= 1 << v
        pos = next((q for q in d_index.get((arity, image), ()) if q not in used), None)
        if pos is None:
            return None
        used.add(pos)
        out.append(pos)
    return tuple(out)


def default_caps(c: Reduct, d: Reduct, k: int | None = None,
                 expand_arity: int | None = None,
                 realize_cap: int | None = None,
                 arity_cap: int | None = None,
                 ap_cap: int | None = None) -> Caps:
    level = default_level(c, d)
    n = max(c.max_arity, d.max_arity)
    if expand_arity is None:
        expand_arity = n
    if expand_arity < n:
        raise InputError(f"--n must be >= {n} for these inputs, got {expand_arity}")
    if k is None:
        k = max(level, expand_arity)
    if k < level:
        raise InputError(f"k must be >= {level} for these inputs")
    if expand_arity > k:
        raise InputError(f"--n {expand_arity} exceeds --k {k}: the behaviour level "
                         f"must cover every expanded arity")
    return Caps(k, expand_arity, realize_cap, arity_cap, ap_cap)


def decide_bidef(c: Reduct, d: Reduct, mode: str, k: int | None = None,
                 expand_arity: int | None = None,
                 realize_cap: int | None = None,
                 arity_cap: int | None = None) -> Verdict:
    """Are the model-complete cores of c and d (fo/ep/pp)-bi-definable?

    In pp mode a NO is relative to the arity and realizability caps (and the
    verdict says so); YES answers always carry a re-checkable witness.
    """
    return _decide_cores(mode, *_caps_and_cores(c, d, mode, k, expand_arity,
                                                realize_cap, arity_cap))


def _caps_and_cores(c: Reduct, d: Reduct, mode: str, *caps_args) -> tuple:
    """The set-up both deciders share: the checked mode and core flags, the
    caps (from default_caps's arguments) and both core presentations."""
    if mode not in MODES:
        raise InputError(f"mode must be one of {MODES}, got {mode!r}")
    require_core_flags(c)
    require_core_flags(d)
    caps = default_caps(c, d, *caps_args)
    return (caps, compute_core(c, caps.k, caps.realize_cap),
            compute_core(d, caps.k, caps.realize_cap))


def _decide_cores(mode: str, caps: Caps, pc: CorePresentation,
                  pd: CorePresentation) -> Verdict:
    """Bi-definability of two core presentations under the caps, which the
    verdict records as given."""
    cc = expand(pc, caps.expand_arity, mode, caps.arity_cap, caps.realize_cap)
    dd = expand(pd, caps.expand_arity, mode, caps.arity_cap, caps.realize_cap)
    relative = mode == "pp"

    base_kwargs = dict(mode=mode, caps=caps, core_c=pc, core_d=pd,
                       expanded_c=cc, expanded_d=dd, cap_relative=relative)

    n_src = len(enumerate_types(pc.base_out, caps.k))
    n_tgt = len(enumerate_types(pd.base_out, caps.k))
    if n_src != n_tgt:
        return Verdict("NO", reason=(
            f"type counts at k={caps.k} differ: {n_src} vs {n_tgt}"),
            **base_kwargs)

    if sorted(r.arity for r in cc.relations) != sorted(r.arity for r in dd.relations):
        return Verdict("NO", reason="no arity-preserving signature matching",
                       **base_kwargs)
    c_unions = compiled_unions(cc)
    # arities ascending, declaration order within one arity (sorted is stable)
    c_order = sorted(range(len(c_unions)), key=lambda i: c_unions[i][1])
    c_masks = [c_unions[i][1:] for i in c_order]
    d_index: dict[tuple[int, int], list[int]] = {}
    for q, (_, arity, mask) in enumerate(compiled_unions(dd)):
        d_index.setdefault((arity, mask), []).append(q)

    candidates = [xi for xi in enumerate_behaviours(pc.base_out, pd.base_out, caps.k)
                  if xi.is_bijective()]
    forced = sorted((positions, n, xi) for n, xi in enumerate(candidates)
                    if (positions := _forced_positions(xi, c_masks, d_index)) is not None)
    for positions, _, xi in forced:
        if not is_realizable(xi, caps.realize_cap):
            continue
        eta = inverse(xi)
        if is_realizable(eta, caps.realize_cap):
            tau = tuple(sorted((cc.relations[i].name, dd.relations[q].name)
                               for i, q in zip(c_order, positions)))
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
    caps, pc, pd = _caps_and_cores(c, d, mode, k, expand_arity, realize_cap,
                                   arity_cap, ap_cap)

    def failed(reason: str) -> Verdict:
        return Verdict("PRECONDITION-FAILED", mode=mode, caps=caps, core_c=pc,
                       core_d=pd, reason=reason)

    if mode == "pp":
        for name, reduct in (("first", c), ("second", d)):
            n1 = len(enumerate_types(reduct.base, 1))
            if n1 != 1:
                return failed(f"{name} input base {reduct.base.name} is not "
                              f"transitive: {n1} 1-types")
    for name, pres in (("first", pc), ("second", pd)):
        result = check_amalgamation(pres.base_out, caps.ap_cap, strong=True)
        if not result.ok:
            return failed(f"{name} core base {pres.base_out.name} fails strong "
                          f"amalgamation (no-algebraicity proxy) at cap {result.cap}")
    return _decide_cores(mode, caps, pc, pd)
