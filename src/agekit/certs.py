"""Witness certificates: emission and loading.

A certificate directory holds `certificate.json` (the single source of
truth for the verifier) plus the same content as re-loadable class, reduct
and behaviour files for human consumption.

`json` is imported by the two functions that read or write the file: every
CLI query imports this module, and only a certificate needs `json`.
"""

from __future__ import annotations

from pathlib import Path

from . import __version__
from .canonical import effective_realize_cap, serialize_behaviour
from .core import CorePresentation
from .decide import Verdict
from .definability import DefinableVerdict
from .errors import InputError
from .parser import render_class, render_reduct
from .reducts import Reduct, serialize_mask

FORMAT = "agekit-certificate/1"


def _core_block(p: CorePresentation) -> dict:
    return {
        "base": render_class(p.base_out),
        "reduct": render_reduct(p.reduct_out),
        "witness": serialize_behaviour(p.witness),
        "witness_realize_cap": effective_realize_cap(p.realize_cap, p.witness.target, p.k),
        "image_types": serialize_mask(p.witness.target, p.k, p.image_types),
        "k": p.k,
        "scan_cap": p.scan_cap,
    }


def _input_block(c: Reduct) -> str:
    return render_class(c.base) + "\n" + render_reduct(c)


def bidef_certificate(kind: str, c: Reduct, d: Reduct, verdict: Verdict) -> dict:
    cert = {
        "format": FORMAT,
        "kind": kind,
        "tool_version": __version__,
        "mode": verdict.mode,
        "caps": verdict.caps.as_dict(),
        "verdict": verdict.answer,
        "reason": verdict.reason,
        "cap_relative": verdict.cap_relative,
        "input_c": _input_block(c),
        "input_d": _input_block(d),
    }
    if verdict.core_c is not None:
        cert["core_c"] = _core_block(verdict.core_c)
    if verdict.core_d is not None:
        cert["core_d"] = _core_block(verdict.core_d)
    if verdict.expanded_c is not None:
        cert["expanded_c"] = render_reduct(verdict.expanded_c)
    if verdict.expanded_d is not None:
        cert["expanded_d"] = render_reduct(verdict.expanded_d)
    if verdict.witness is not None:
        w = verdict.witness
        cert["witness"] = {
            "matching": [list(pair) for pair in w.matching],
            "xi": serialize_behaviour(w.xi),
            "eta": serialize_behaviour(w.eta),
            "xi_realize_cap": effective_realize_cap(verdict.caps.realize_cap,
                                                    w.xi.target, w.xi.k),
            "eta_realize_cap": effective_realize_cap(verdict.caps.realize_cap,
                                                     w.eta.target, w.eta.k),
        }
    return cert


def core_certificate(c: Reduct, p: CorePresentation) -> dict:
    return {
        "format": FORMAT,
        "kind": "core",
        "tool_version": __version__,
        "caps": {"k": p.k, "realize_cap": p.realize_cap, "scan_cap": p.scan_cap},
        "verdict": "CORE",
        "input": _input_block(c),
        "core": _core_block(p),
    }


def definable_certificate(c: Reduct, p: CorePresentation,
                          verdict: DefinableVerdict) -> dict:
    cert = {
        "format": FORMAT,
        "kind": "definable",
        "tool_version": __version__,
        "caps": {
            "k": p.k,
            "arity_cap": verdict.arity_cap,
            "realize_cap": verdict.realize_cap,
        },
        "verdict": "DEFINABLE" if verdict.definable else "NOT-DEFINABLE",
        "input": _input_block(c),
        "core": _core_block(p),
        "relation": {
            "arity": verdict.arity,
            "members": serialize_mask(p.base_out, verdict.arity, verdict.mask),
        },
    }
    if verdict.witness is not None:
        cert["witness"] = serialize_behaviour(verdict.witness)
        cert["witness_arity"] = verdict.witness.arity
    return cert


def write_certificate(cert: dict, outdir: str | Path) -> Path:
    import json
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "certificate.json"
    path.write_text(json.dumps(cert, indent=2, sort_keys=True) + "\n")
    for name, key in (("core_c", "core_c"), ("core_d", "core_d"), ("core", "core")):
        block = cert.get(key)
        if isinstance(block, dict) and "base" in block:
            (out / f"{name}_base.cls").write_text(block["base"])
            (out / f"{name}_reduct.cls").write_text(block["reduct"])
            (out / f"{name}_witness.bhv").write_text(block["witness"] + "\n")
    if isinstance(cert.get("witness"), dict):
        (out / "xi.bhv").write_text(cert["witness"]["xi"] + "\n")
        (out / "eta.bhv").write_text(cert["witness"]["eta"] + "\n")
    elif isinstance(cert.get("witness"), str):
        (out / "witness.poly").write_text(cert["witness"] + "\n")
    for key in ("expanded_c", "expanded_d"):
        if key in cert:
            (out / f"{key}.cls").write_text(cert[key])
    return path


def load_certificate(path: str | Path) -> dict:
    import json
    p = Path(path)
    if p.is_dir():
        p = p / "certificate.json"
    if not p.exists():
        raise InputError(f"no certificate at {p}")
    try:
        cert = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise InputError(f"unreadable certificate: {exc}")
    if not isinstance(cert, dict):
        raise InputError("unreadable certificate: not a JSON object")
    if cert.get("format") != FORMAT:
        raise InputError(f"unknown certificate format {cert.get('format')!r}")
    return cert
