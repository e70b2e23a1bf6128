"""Command-line interface: input parsing, dispatch, reports and certificates.

Reports on stdout are byte-identical across runs with identical inputs,
caps, seed and version; wall-clock timings go to stderr so they never
perturb the determinism contract.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__
from .ages import check_amalgamation, default_ap_cap
from .canonical import (
    default_realize_cap,
    enumerate_behaviours,
    greedy_extension_probe,
    serialize_behaviour,
)
from .certs import (
    bidef_certificate,
    core_certificate,
    definable_certificate,
    load_certificate,
    write_certificate,
)
from .core import compute_core, is_optimally_presented
from .decide import decide_bidef, decide_biint, default_caps
from .definability import definable, expand
from .errors import AgekitError, InputError, InternalError
from .ktypes import default_level, enumerate_types, parse_type, serialize_type
from .parser import (Catalog, parse_formula, parse_input, render_class,
                     render_reduct, split_type_columns)
from .reducts import OrbitUnion, compile_orbit_union, Reduct, Relation, FormulaDef
from .structures import render_literal
from .verify import VerificationFailure, verify_certificate

EXIT_YES = 0
EXIT_NO = 1
EXIT_PRECONDITION = 2
EXIT_INPUT_ERROR = 3
EXIT_INTERNAL_ERROR = 4


def _load(files) -> Catalog:
    cat = Catalog()
    for f in files:
        path = Path(f)
        if not path.exists():
            raise InputError(f"no such file: {f}")
        parse_input(path.read_text(), cat)
    return cat


def _caps_line(**caps) -> str:
    parts = []
    for key, val in caps.items():
        parts.append(f"{key}={'default' if val is None else val}")
    return " ".join(parts)


class Report:
    """Accumulates a deterministic text report and its structured mirror."""

    def __init__(self, command: str):
        self.lines = [f"agekit {command}", f"version: {__version__}"]
        self.data = {"command": command, "version": __version__}

    def line(self, text: str, key: str | None = None, value=None):
        self.lines.append(text)
        if key is not None:
            self.data[key] = value if value is not None else text

    def block(self, header: str, body: str):
        self.lines.append(header)
        for raw in body.splitlines():
            self.lines.append(f"  {raw}")

    def emit(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(self.data, indent=2, sort_keys=True) + "\n"
        return "\n".join(self.lines) + "\n"


# flags that count points, arities or levels: each must be at least 1
_POSITIVE_FLAGS = (("--k", "k"), ("--realize-cap", "realize_cap"),
                   ("--arity-cap", "arity_cap"), ("--ap-cap", "ap_cap"),
                   ("--n", "expand_arity"), ("--query-arity", "query_arity"),
                   ("--max-size", "max_size"))


def _check_positive_flags(args: argparse.Namespace) -> None:
    for flag, dest in _POSITIVE_FLAGS:
        value = getattr(args, dest, None)
        if value is not None and value < 1:
            raise InputError(f"{flag} must be >= 1, got {value}")


def _level(args: argparse.Namespace, *inputs) -> int:
    """--k, or by default the largest arity of the inputs, which --k must cover."""
    level = default_level(*inputs)
    if args.k is None:
        return level
    if args.k < level:
        raise InputError(f"--k must be >= {level} for these inputs, got {args.k}")
    return args.k


def run(args: argparse.Namespace) -> tuple[int, str]:
    """Dispatch parsed arguments; returns (exit code, report text)."""
    _check_positive_flags(args)
    handler = {
        "check": _run_check,
        "orbits": _run_orbits,
        "behaviours": _run_behaviours,
        "core": _run_core,
        "definable": _run_definable,
        "bidef": _run_decide,
        "biint": _run_decide,
        "verify": _run_verify,
        "probe": _run_probe,
    }[args.command]
    return handler(args)


def _run_check(args: argparse.Namespace) -> tuple[int, str]:
    cat = _load(args.files)
    rep = Report("check")
    rep.data["classes"] = {}
    worst = EXIT_YES
    for name in sorted(cat.classes):
        k = cat.classes[name]
        cap = args.ap_cap if args.ap_cap is not None else default_ap_cap(k)
        rep.line(f"class {name}: {len(k.bounds)} bounds "
                 f"(sizes {min((b.size for b in k.bounds), default=0)}"
                 f"..{k.max_bound_size})")
        entry = {"bounds": len(k.bounds), "ap_cap": cap}
        for strong in (False, True):
            label = "strong" if strong else "weak"
            result = check_amalgamation(k, cap, strong)
            if result.ok:
                rep.line(f"  amalgamation {label}: verified up to cap {cap}")
                entry[label] = "pass"
            else:
                b0, b1, b2 = result.counterexample
                rep.line(f"  amalgamation {label}: FAILS at cap {cap} with "
                         f"B0 = {render_literal(b0)}; B1 = {render_literal(b1)}; "
                         f"B2 = {render_literal(b2)}")
                entry[label] = "fail"
                worst = EXIT_PRECONDITION
        rep.data["classes"][name] = entry
    rep.line(f"verdict: {'OK' if worst == EXIT_YES else 'AMALGAMATION-FAILURE'}",
             "verdict", "OK" if worst == EXIT_YES else "AMALGAMATION-FAILURE")
    return worst, rep.emit(args.fmt)


def _run_orbits(args: argparse.Namespace) -> tuple[int, str]:
    cat = _load(args.files)
    k = cat.bounded_class(args.class_name) if args.class_name else cat.sole_class()
    level = args.k if args.k is not None else default_level(k)
    types = enumerate_types(k, level)
    rep = Report("orbits")
    rep.line(f"class: {k.name}")
    rep.line(f"caps: {_caps_line(k=level)}")
    rep.line(f"orbit count at level {level}: {len(types)}", "count", len(types))
    rep.data.update({"class": k.name, "k": level,
                     "orbits": [serialize_type(t) for t in types]})
    for t in types:
        rep.line(f"  {serialize_type(t)}")
    return EXIT_YES, rep.emit(args.fmt)


def _run_behaviours(args: argparse.Namespace) -> tuple[int, str]:
    cat = _load(args.files)
    src = cat.bounded_class(args.source or cat.sole_class().name)
    tgt = cat.bounded_class(args.target or src.name)
    level = _level(args, src, tgt)
    bs = enumerate_behaviours(src, tgt, level, realize_cap=args.realize_cap)
    eff = args.realize_cap if args.realize_cap is not None else (
        default_realize_cap(bs[0]) if bs else None)
    rep = Report("behaviours")
    rep.line(f"source: {src.name}  target: {tgt.name}")
    rep.line(f"caps: {_caps_line(k=level, realize_cap=eff)}")
    rep.line(f"realizable behaviours: {len(bs)}", "count", len(bs))
    rep.data.update({"source": src.name, "target": tgt.name, "k": level,
                     "realize_cap": eff,
                     "behaviours": [serialize_behaviour(b) for b in bs]})
    for i, b in enumerate(bs):
        rep.block(f"behaviour {i}:", serialize_behaviour(b))
    return EXIT_YES, rep.emit(args.fmt)


def _run_probe(args: argparse.Namespace) -> tuple[int, str]:
    if args.trials < 0:
        raise InputError(f"--trials must be >= 0, got {args.trials}")
    cat = _load(args.files)
    src = cat.bounded_class(args.source or cat.sole_class().name)
    tgt = cat.bounded_class(args.target or src.name)
    level = _level(args, src, tgt)
    bs = enumerate_behaviours(src, tgt, level, realize_cap=args.realize_cap)
    rep = Report("probe")
    rep.line(f"source: {src.name}  target: {tgt.name}")
    rep.line(f"caps: {_caps_line(k=level, realize_cap=args.realize_cap)} "
             f"trials={args.trials} max-size={args.max_size} seed={args.seed}")
    total_failures = 0
    rep.data["reports"] = []
    reports = greedy_extension_probe(bs, args.max_size, args.trials, args.seed)
    for i, r in enumerate(reports):
        total_failures += len(r.failures)
        rep.line(f"behaviour {i}: {len(r.failures)} failures")
        rep.data["reports"].append({"behaviour": i, "failures": list(r.failures)})
        for f in r.failures:
            rep.line(f"  {f}")
    rep.line(f"verdict: {'OK' if not total_failures else 'PROBE-FAILURES'}",
             "verdict", "OK" if not total_failures else "PROBE-FAILURES")
    return (EXIT_YES if not total_failures else EXIT_NO), rep.emit(args.fmt)


def _run_core(args: argparse.Namespace) -> tuple[int, str]:
    cat = _load(args.files)
    c = cat.reduct(args.reduct)
    p = compute_core(c, _level(args, c), args.realize_cap)
    optimal, _ = is_optimally_presented(p.reduct_out, p.k, args.realize_cap)
    rep = Report("core")
    rep.line(f"input: {c.name} over {c.base.name}")
    rep.line(f"caps: {_caps_line(k=p.k, realize_cap=args.realize_cap)} "
             f"scan-cap={p.scan_cap} "
             f"witness-realize-cap={args.realize_cap if args.realize_cap is not None else default_realize_cap(p.witness)}")
    rep.line(f"image types: {len(p.image_types)} of "
             f"{len(enumerate_types(c.base, p.k))}")
    rep.line(f"optimally presented: {'yes' if optimal else 'NO'}")
    rep.block("base_out:", render_class(p.base_out).rstrip("\n"))
    rep.block("reduct_out:", render_reduct(p.reduct_out).rstrip("\n"))
    rep.block("witness:", serialize_behaviour(p.witness))
    rep.data.update({
        "input": c.name,
        "caps": {"k": p.k, "realize_cap": args.realize_cap, "scan_cap": p.scan_cap},
        "base_out": render_class(p.base_out),
        "reduct_out": render_reduct(p.reduct_out),
        "witness": serialize_behaviour(p.witness),
        "image_types": sorted(serialize_type(t) for t in p.image_types),
        "optimally_presented": bool(optimal),
    })
    if args.witness_out:
        write_certificate(core_certificate(c, p), args.witness_out)
        rep.line(f"certificate: {args.witness_out}")
    return EXIT_YES, rep.emit(args.fmt)


def _query_arity(args: argparse.Namespace, sig) -> tuple[int, str] | None:
    """The arity of the queried relation and the flag that sets it, or None
    without a query; --query-orbits types are checked to share one level."""
    if args.query is not None:
        if args.query_arity is None:
            raise InputError("--query needs --query-arity")
        return args.query_arity, "--query-arity"
    if args.query_orbits is None:
        return None
    levels = {parse_type(sig, chunk).k for chunk in split_type_columns(args.query_orbits)}
    if not levels:
        raise InputError("--query-orbits lists no types")
    if len(levels) != 1:
        raise InputError("--query-orbits types must share one level")
    return levels.pop(), "--query-orbits level"


def _query_union(args: argparse.Namespace, p) -> OrbitUnion:
    """The queried relation as an orbit union of the core base."""
    if args.query is not None:
        phi = parse_formula(args.query)
        probe = Reduct("_query", p.base_out,
                       (Relation("q", args.query_arity, FormulaDef(phi)),))
        return compile_orbit_union(probe, "q")
    members = [parse_type(p.base_out.signature, chunk)
               for chunk in split_type_columns(args.query_orbits)]
    universe = set(enumerate_types(p.base_out, members[0].k))
    for t in members:
        if t not in universe:
            raise InputError(f"{serialize_type(t)} is not a type of the core base")
    return OrbitUnion(members[0].k, frozenset(members))


def _run_definable(args: argparse.Namespace) -> tuple[int, str]:
    cat = _load(args.files)
    c = cat.reduct(args.reduct)
    _level(args, c)
    query = _query_arity(args, c.base.signature)
    if query is None and args.witness_out:
        raise InputError("--witness-out needs --query or --query-orbits: "
                         "only a query verdict has a certificate")
    if query is None:
        n = args.expand_arity if args.expand_arity is not None else c.max_arity
    else:
        n, flag = query
        if args.k is not None and n > args.k:
            raise InputError(f"{flag} {n} exceeds --k {args.k}: the behaviour "
                             f"level must cover the query's arity")
    # the input's own arities bound --n from below only for bidef and biint
    caps = default_caps(c, c, args.k, max(n, c.max_arity))
    p = compute_core(c, caps.k, args.realize_cap)
    rep = Report("definable")
    rep.line(f"input: {c.name} over {c.base.name}")
    rep.line(f"mode: {args.mode}")

    if query is not None:
        verdict = definable(p, _query_union(args, p), args.mode, args.arity_cap,
                            args.realize_cap)
        rep.line(f"caps: {_caps_line(k=p.k)} arity-cap={verdict.arity_cap} "
                 f"realize-cap={verdict.realize_cap}")
        rep.line(f"relation: {{{', '.join(serialize_type(t) for t in verdict.relation.sorted_members())}}}")
        rep.line(f"verdict: {verdict.label}", "verdict",
                 "DEFINABLE" if verdict.definable else "NOT-DEFINABLE")
        rep.data["caps"] = {"k": p.k, "arity_cap": verdict.arity_cap,
                            "realize_cap": verdict.realize_cap}
        if verdict.witness is not None:
            rep.block("witness:", serialize_behaviour(verdict.witness))
            rep.data["witness"] = serialize_behaviour(verdict.witness)
        if args.witness_out:
            write_certificate(definable_certificate(c, p, verdict), args.witness_out)
            rep.line(f"certificate: {args.witness_out}")
        code = EXIT_YES if verdict.definable else EXIT_NO
        return code, rep.emit(args.fmt)

    expanded = expand(p, n, args.mode, args.arity_cap, args.realize_cap)
    added = expanded.relations[len(p.reduct_out.relations):]
    rep.line(f"caps: {_caps_line(k=p.k, realize_cap=args.realize_cap, arity_cap=args.arity_cap)} expand-arity={n}")
    rep.line(f"added relations: {len(added)}", "added", len(added))
    for r in added:
        u = compile_orbit_union(expanded, r.name)
        body = ", ".join(serialize_type(t) for t in u.sorted_members())
        rep.line(f"  {r.name}/{r.arity} = {{{body}}}")
    rep.data["expanded"] = render_reduct(expanded)
    return EXIT_YES, rep.emit(args.fmt)


def _run_decide(args: argparse.Namespace) -> tuple[int, str]:
    cat = _load(args.files)
    c, d = (cat.reduct(name) for name in args.reducts)
    _level(args, c, d)
    if args.command == "bidef":
        verdict = decide_bidef(c, d, args.mode, args.k, args.expand_arity,
                               args.realize_cap, args.arity_cap)
    else:
        verdict = decide_biint(c, d, args.mode, args.k, args.expand_arity,
                               args.realize_cap, args.arity_cap, args.ap_cap)
    rep = Report(args.command)
    rep.line(f"inputs: {c.name} over {c.base.name}  vs  {d.name} over {d.base.name}")
    rep.line(f"mode: {verdict.mode}")
    caps = verdict.caps
    rep.line("caps: " + _caps_line(k=caps.k, expand_arity=caps.expand_arity,
                                   realize_cap=caps.realize_cap,
                                   arity_cap=caps.arity_cap, ap_cap=caps.ap_cap))
    rep.data["caps"] = caps.as_dict()
    rep.data["mode"] = verdict.mode
    if verdict.core_c is not None:
        rep.line(f"core of {c.name}: base {verdict.core_c.base_out.name} "
                 f"({len(verdict.core_c.base_out.bounds)} bounds, "
                 f"{len(verdict.core_c.image_types)} image types)")
    if verdict.core_d is not None:
        rep.line(f"core of {d.name}: base {verdict.core_d.base_out.name} "
                 f"({len(verdict.core_d.base_out.bounds)} bounds, "
                 f"{len(verdict.core_d.image_types)} image types)")
    if verdict.expanded_c is not None:
        rep.line(f"expanded signatures: {len(verdict.expanded_c.relations)} vs "
                 f"{len(verdict.expanded_d.relations)} relations")
    if verdict.cap_relative and verdict.answer == "NO":
        rep.line("note: pp-mode NO is relative to the caps above")
    if verdict.reason:
        rep.line(f"reason: {verdict.reason}", "reason", verdict.reason)
    rep.line(f"verdict: {verdict.answer}", "verdict", verdict.answer)
    if verdict.witness is not None:
        w = verdict.witness
        rep.line("witness matching: "
                 + " ".join(f"{a}->{b}" for a, b in w.matching))
        rep.block("witness xi:", serialize_behaviour(w.xi))
        rep.block("witness eta:", serialize_behaviour(w.eta))
        rep.data["witness"] = {
            "matching": [list(pair) for pair in w.matching],
            "xi": serialize_behaviour(w.xi),
            "eta": serialize_behaviour(w.eta),
        }
    if args.witness_out:
        cert = bidef_certificate(args.command, c, d, verdict)
        write_certificate(cert, args.witness_out)
        rep.line(f"certificate: {args.witness_out}")
    return verdict.exit_code, rep.emit(args.fmt)


def _run_verify(args: argparse.Namespace) -> tuple[int, str]:
    rep = Report("verify")
    cert = load_certificate(args.files[0])
    rep.line(f"certificate: kind={cert.get('kind')} verdict={cert.get('verdict')}")
    try:
        notes = verify_certificate(cert)
    except VerificationFailure as exc:
        rep.line(f"FAILED: {exc}", "verdict", "INVALID")
        return EXIT_NO, rep.emit(args.fmt)
    for note in notes:
        rep.line(f"  {note}")
    rep.data["checks"] = notes
    rep.line("verdict: CERTIFICATE-OK", "verdict", "CERTIFICATE-OK")
    return EXIT_YES, rep.emit(args.fmt)


# -- argument parsing ------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors exit with the input-error code: argparse's own code 2
    means PRECONDITION-FAILED here.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="agekit",
        description="decision engine for finitely bounded homogeneous classes")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, *flags: str):
        """A subcommand over input files with the --format flag and the
        named shared flags, and no other: a flag it would ignore is refused."""
        p = sub.add_parser(name, help=summary)
        p.add_argument("files", nargs="+", help="input class/reduct files")
        for flag in flags:
            if flag == "witness-out":
                p.add_argument("--witness-out", default=None)
            else:  # --k, --seed and the caps
                p.add_argument(f"--{flag}", type=int, default=0 if flag == "seed" else None)
        p.add_argument("--format", choices=("text", "json"), default="text",
                       dest="fmt")
        return p

    command("check", "validate classes and probe amalgamation", "ap-cap")

    p = command("orbits", "enumerate k-types of a class", "k")
    p.add_argument("--class", dest="class_name", default=None)

    p = command("behaviours", "enumerate realizable behaviours", "k", "realize-cap")
    p.add_argument("--source", default=None)
    p.add_argument("--target", default=None)

    p = command("probe", "randomized extension probe of behaviours",
                "k", "realize-cap", "seed")
    p.add_argument("--source", default=None)
    p.add_argument("--target", default=None)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--max-size", type=int, default=8, dest="max_size")

    p = command("core", "compute the model-complete core", "k", "realize-cap", "witness-out")
    p.add_argument("--reduct", required=True)

    p = command("definable", "definability expansion / queries",
                "k", "realize-cap", "arity-cap", "witness-out")
    p.add_argument("--reduct", required=True)
    p.add_argument("--mode", choices=("ep", "pp"), default="ep")
    p.add_argument("--n", type=int, default=None, dest="expand_arity")
    p.add_argument("--query", default=None,
                   help="quantifier-free formula naming an orbit union")
    p.add_argument("--query-arity", type=int, default=None, dest="query_arity")
    p.add_argument("--query-orbits", default=None, dest="query_orbits",
                   help="pipe-separated type serializations")

    for cmd, caps in (("bidef", ()), ("biint", ("ap-cap",))):
        p = command(cmd, f"decide {cmd} of two reducts",
                    "k", "realize-cap", "arity-cap", *caps, "witness-out")
        p.add_argument("--reducts", nargs=2, required=True, metavar=("C", "D"))
        p.add_argument("--mode", choices=("fo", "ep", "pp"), default="fo")
        p.add_argument("--n", type=int, default=None, dest="expand_arity")

    p = sub.add_parser("verify", help="re-check a witness certificate")
    p.add_argument("files", nargs=1, help="certificate directory or file")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   dest="fmt")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        code, report = run(args)
    except InternalError as exc:
        message = str(exc)
    except AgekitError as exc:
        print(f"agekit {args.command}\nerror: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except Exception as exc:  # RecursionError, MemoryError: an engine failure, never a NO
        message = repr(exc)
    else:
        sys.stdout.write(report)
        print(f"# elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
        return code
    print(f"agekit {args.command}\ninternal error: {message}\n"
          "this is a bug in agekit, not a problem with the input",
          file=sys.stderr)
    return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
