"""Command-line interface: input parsing, dispatch, reports and certificates.

Reports on stdout are byte-identical across runs with identical inputs,
caps, seed and version; wall-clock timings go to stderr so they never
perturb the determinism contract.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path

from . import __version__
from .ages import check_amalgamation
from .canonical import (
    effective_realize_cap,
    enumerate_behaviours,
    greedy_extension_probe,
    is_realizable,
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
from .definability import definable, definable_unions, expansion
from .errors import AgekitError, InputError, InternalError
from .ktypes import default_level, enumerate_types, parse_type, serialize_type, type_index
from .parser import (Catalog, parse_formula, parse_input, render_class,
                     render_reduct, split_type_columns)
from .reducts import Reduct, Relation, FormulaDef, compile_orbit_union, serialize_mask
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
            import json  # off the start-up path: only --format json needs it
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
    return _COMMANDS[args.command][2](args)


def _run_check(args: argparse.Namespace) -> tuple[int, str]:
    cat = _load(args.files)
    rep = Report("check")
    rep.data["classes"] = {}
    worst = EXIT_YES
    for name in sorted(cat.classes):
        k = cat.classes[name]
        rep.line(f"class {name}: {len(k.bounds)} bounds "
                 f"(sizes {min((b.size for b in k.bounds), default=0)}"
                 f"..{k.max_bound_size})")
        strong = check_amalgamation(k, args.ap_cap, strong=True)
        # the weak scan tests a subset of the strong scan's diagrams, by the
        # same amalgam test: a strong pass is a weak pass
        weak = strong if strong.ok else check_amalgamation(k, args.ap_cap, strong=False)
        entry = {"bounds": len(k.bounds), "ap_cap": strong.cap}
        for label, result in (("weak", weak), ("strong", strong)):
            if result.ok:
                rep.line(f"  amalgamation {label}: verified up to cap {result.cap}")
                entry[label] = "pass"
            else:
                b0, b1, b2 = result.counterexample
                rep.line(f"  amalgamation {label}: FAILS at cap {result.cap} with "
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
    level = args.k if args.k is not None else max(1, k.signature.max_arity)
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


def _realizable_behaviours(args: argparse.Namespace) -> tuple:
    """The source and target classes, the level, and the realizable
    behaviours between them in serialization order."""
    cat = _load(args.files)
    src = cat.bounded_class(args.source or cat.sole_class().name)
    tgt = cat.bounded_class(args.target or src.name)
    level = _level(args, src, tgt)
    return src, tgt, level, [xi for xi in enumerate_behaviours(src, tgt, level)
                             if is_realizable(xi, args.realize_cap)]


def _run_behaviours(args: argparse.Namespace) -> tuple[int, str]:
    src, tgt, level, bs = _realizable_behaviours(args)
    eff = effective_realize_cap(args.realize_cap, tgt, level) if bs else args.realize_cap
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
    src, tgt, level, bs = _realizable_behaviours(args)
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
             f"witness-realize-cap={effective_realize_cap(args.realize_cap, c.base, p.k)}")
    rep.line(f"image types: {p.image_types.bit_count()} of "
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
        "image_types": serialize_mask(c.base, p.k, p.image_types),
        "optimally_presented": bool(optimal),
    })
    if args.witness_out:
        write_certificate(core_certificate(c, p), args.witness_out)
        rep.line(f"certificate: {args.witness_out}")
    return EXIT_YES, rep.emit(args.fmt)


def _read_query(args: argparse.Namespace, sig) -> tuple[int, str, object] | None:
    """The arity of the queried relation, the flag that sets it and the
    query: the --query formula text, or the --query-orbits types, which are
    parsed here and checked to share one level.  None without a query."""
    if args.query is not None:
        if args.query_arity is None:
            raise InputError("--query needs --query-arity")
        return args.query_arity, "--query-arity", args.query
    if args.query_orbits is None:
        return None
    # split_type_columns yields at least one chunk, and an empty one fails to parse
    members = [parse_type(sig, chunk) for chunk in split_type_columns(args.query_orbits)]
    if len({t.k for t in members}) != 1:
        raise InputError("--query-orbits types must share one level")
    return members[0].k, "--query-orbits level", members


def _query_mask(query: tuple[int, str, object], p) -> int:
    """The relation _read_query read, as a mask over the core base's type
    indices at its arity."""
    arity, _, spec = query
    if isinstance(spec, str):
        probe = Reduct("_query", p.base_out,
                       (Relation("q", arity, FormulaDef(parse_formula(spec))),))
        mask = compile_orbit_union(probe, "q")
        if not mask:
            raise InputError(f"--query holds on no {arity}-type of "
                             f"the core base {p.base_out.name}")
        return mask
    idx = type_index(p.base_out, arity)
    mask = 0
    for t in spec:
        if t not in idx:
            raise InputError(f"{serialize_type(t)} is not a type of the core base")
        mask |= 1 << idx[t]
    return mask


def _run_definable(args: argparse.Namespace) -> tuple[int, str]:
    cat = _load(args.files)
    c = cat.reduct(args.reduct)
    _level(args, c)
    query = _read_query(args, c.base.signature)
    if query is None and args.witness_out:
        raise InputError("--witness-out needs --query or --query-orbits: "
                         "only a query verdict has a certificate")
    if query is None:
        n = args.expand_arity if args.expand_arity is not None else c.max_arity
    else:
        n, flag, _ = query
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
        verdict = definable(p, query[0], _query_mask(query, p), args.mode,
                            args.arity_cap, args.realize_cap)
        rep.line(f"caps: {_caps_line(k=p.k)} arity-cap={verdict.arity_cap} "
                 f"realize-cap={verdict.realize_cap}")
        rep.line(f"relation: {{{', '.join(serialize_mask(p.base_out, verdict.arity, verdict.mask))}}}")
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

    added = definable_unions(p, n, args.mode, args.arity_cap, args.realize_cap)
    rep.line(f"caps: {_caps_line(k=p.k, realize_cap=args.realize_cap, arity_cap=args.arity_cap)} expand-arity={n}")
    rep.line(f"added relations: {len(added)}", "added", len(added))
    for name, arity, mask in added:
        rep.line(f"  {name}/{arity} = {{{', '.join(serialize_mask(p.base_out, arity, mask))}}}")
    if args.fmt == "json":
        rep.data["expanded"] = render_reduct(expansion(p, n, args.mode, added))
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
    for r, core in ((c, verdict.core_c), (d, verdict.core_d)):
        if core is not None:
            rep.line(f"core of {r.name}: base {core.base_out.name} "
                     f"({len(core.base_out.bounds)} bounds, "
                     f"{core.image_types.bit_count()} image types)")
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


def _add_inputs(p: argparse.ArgumentParser, *flags: str) -> None:
    """Input files, the named shared flags and --format: a subcommand
    declares only the flags its handler reads, so a flag it would ignore is
    refused."""
    p.add_argument("files", nargs="+", help="input class/reduct files")
    for flag in flags:
        if flag == "witness-out":
            p.add_argument("--witness-out", default=None)
        else:  # --k, --seed and the caps
            p.add_argument(f"--{flag}", type=int, default=0 if flag == "seed" else None)
    p.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")


def _add_source_target(p: argparse.ArgumentParser) -> None:
    p.add_argument("--source", default=None)
    p.add_argument("--target", default=None)


def _add_check(p: argparse.ArgumentParser) -> None:
    _add_inputs(p, "ap-cap")


def _add_orbits(p: argparse.ArgumentParser) -> None:
    _add_inputs(p, "k")
    p.add_argument("--class", dest="class_name", default=None)


def _add_behaviours(p: argparse.ArgumentParser) -> None:
    _add_inputs(p, "k", "realize-cap")
    _add_source_target(p)


def _add_probe(p: argparse.ArgumentParser) -> None:
    _add_inputs(p, "k", "realize-cap", "seed")
    _add_source_target(p)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--max-size", type=int, default=8, dest="max_size")


def _add_core(p: argparse.ArgumentParser) -> None:
    _add_inputs(p, "k", "realize-cap", "witness-out")
    p.add_argument("--reduct", required=True)


def _add_definable(p: argparse.ArgumentParser) -> None:
    _add_inputs(p, "k", "realize-cap", "arity-cap", "witness-out")
    p.add_argument("--reduct", required=True)
    p.add_argument("--mode", choices=("ep", "pp"), default="ep")
    p.add_argument("--n", type=int, default=None, dest="expand_arity")
    p.add_argument("--query", default=None,
                   help="quantifier-free formula naming an orbit union")
    p.add_argument("--query-arity", type=int, default=None, dest="query_arity")
    p.add_argument("--query-orbits", default=None, dest="query_orbits",
                   help="pipe-separated type serializations")


def _add_decide(*caps: str):
    def add(p: argparse.ArgumentParser) -> None:
        _add_inputs(p, "k", "realize-cap", "arity-cap", *caps, "witness-out")
        p.add_argument("--reducts", nargs=2, required=True, metavar=("C", "D"))
        p.add_argument("--mode", choices=("fo", "ep", "pp"), default="fo")
        p.add_argument("--n", type=int, default=None, dest="expand_arity")
    return add


def _add_verify(p: argparse.ArgumentParser) -> None:
    p.add_argument("files", nargs=1, help="certificate directory or file")
    p.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")


# name: (summary, flag adder, handler), in the order --help lists them
_COMMANDS = {
    "check": ("validate classes and probe amalgamation", _add_check, _run_check),
    "orbits": ("enumerate k-types of a class", _add_orbits, _run_orbits),
    "behaviours": ("enumerate realizable behaviours", _add_behaviours, _run_behaviours),
    "probe": ("randomized extension probe of behaviours", _add_probe, _run_probe),
    "core": ("compute the model-complete core", _add_core, _run_core),
    "definable": ("definability expansion / queries", _add_definable, _run_definable),
    "bidef": ("decide bidef of two reducts", _add_decide(), _run_decide),
    "biint": ("decide biint of two reducts", _add_decide("ap-cap"), _run_decide),
    "verify": ("re-check a witness certificate", _add_verify, _run_verify),
}


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for argv: every subcommand is listed with its summary, but
    only the one argv names gets its flags, as a query parses no other and
    each add_argument reads the terminal size.  The top level has no flag
    that takes a value, so the first word of argv that is not a flag names
    the subcommand."""
    named = next((word for word in argv if not word.startswith("-")), None)
    ap = _Parser(
        prog="agekit",
        description="decision engine for finitely bounded homogeneous classes")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (summary, add_flags, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        if name == named:
            add_flags(p)
    return ap


def main(argv=None) -> int:
    """Runs one query and returns its exit code.

    As the process entry point (argv None) it ends with gc.freeze(): the
    interpreter's teardown then skips its last cyclic collection over
    everything the query built, while streams are still flushed and atexit
    handlers still run.  An in-process caller's heap is left as it was."""
    code = _query(sys.argv[1:] if argv is None else argv)
    if argv is None:
        gc.freeze()
    return code


def _unread_flag(args: argparse.Namespace) -> str | None:
    """A usage error for a flag given where the mode or another flag leaves
    it unread, or None: such a flag would be accepted and do nothing."""
    if getattr(args, "arity_cap", None) is not None and args.mode != "pp":
        return "argument --arity-cap: read only with --mode pp"
    if args.command != "definable":
        return None
    if args.query is not None and args.query_orbits is not None:
        return "argument --query-orbits: not allowed with argument --query"
    if args.expand_arity is not None and (args.query is not None
                                          or args.query_orbits is not None):
        return "argument --n: not read with --query or --query-orbits"
    if args.query_arity is not None and args.query is None:
        return "argument --query-arity: read only with --query"
    return None


def _query(argv) -> int:
    parser = _build_parser(argv)
    args = parser.parse_args(argv)
    unread = _unread_flag(args)
    if unread is not None:
        parser.error(unread)
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
