"""agekit benchmark: workloads of real CLI queries, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an agekit checkout; it reads the package from
``src/`` and writes only under ``.perfbench/``.  Workloads and their
hand-derived answers are in ``queries.py``.

Closed loop, one client: each query runs in a fresh interpreter, one after
another, so caches start cold as they do for a CLI user.  A pass runs the
workload's queries once, in order; passes cycle through the queries for
``--seconds``.  Every verdict is checked against its expected answer, every
emitted certificate is re-checked by a ``verify`` query in a fresh process,
and the sha256 of each query's stdout must repeat across passes and runs of
the same source tree.

Times are taken at the reference CPU speed: a query's time from launch to
exit, times the speed of its CPU that launch.py measures while it runs.  A
core of a shared host runs by phases up to about 1.4 times slower while
another tenant loads it, in phases of seconds to minutes, and one query of
a workload can last 20 s, so no number of samples in one run averages that
out; scaled by the measured speed, it cancels.  Each row prints both times.

``--trace 0`` prints the end-to-end metrics:

- ``wall_s``: the time of one pass, summed over the queries from the median
  of each query's times (launch to exit, at the reference speed) in the
  window, partial passes included.
- ``setup_s``: start-up summed over the queries, at the reference speed,
  see startup.py.
- ``peak_rss_mb``: the largest peak RSS of any query process.
- ``decided_frac``: the share of the workload's queries whose every run
  ended within QUERY_TIMEOUT_S.
- ``correct_frac``: the share of queries whose every run gave the expected
  exit code and verdict line.
- ``certs_ok_frac``: the share of certificate-writing queries whose
  certificate every ``verify`` run accepted; 1 when a workload writes none.

``--trace 1`` runs one plain pass and one pass under tracer.py and prints
the per-layer metrics, with ``tracing.overhead_s`` the traced pass's time
minus the plain one's.

Each query is printed as a row; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from queries import QUERY_TIMEOUT_S, WORKLOADS, Query
from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
STATE = Path(".perfbench")
CERTS = STATE / "certs"
SETUP_REPS = 5
# No child process runs later than this after the start, so a run always
# ends well within three minutes, whatever the queries do.
RUN_LIMIT_S = 165


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _source_digest() -> str:
    """Fingerprint of the program and inputs; digests are compared within one."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE / "inputs"):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _machine(seed: int) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": model or platform.machine(), "seed": seed}


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.seed = seed
        self.queries: tuple[Query, ...] = WORKLOADS[workload]
        self.deadline = deadline
        self.env = _child_env()
        self.out_dir = STATE / "out" / workload
        self.trace_dir = STATE / "trace" / f"{workload}-seed{seed}"
        self.digest_path = STATE / "digests.json"
        self.tree = _source_digest()
        self.rows: list[dict] = []
        for d in (self.out_dir, self.trace_dir, CERTS):
            d.mkdir(parents=True, exist_ok=True)

    def launch(self, cmd: list[str], stdout: Path, cap: float) -> dict:
        """Runs one child through launch.py to completion or its time limit."""
        timeout = min(cap, self.deadline - time.monotonic())
        if timeout < 1:
            return {"seconds": 0.0, "norm_s": 0.0, "exit": None, "rss_mb": 0.0,
                    "status": "SKIPPED"}
        read_fd, write_fd = os.pipe()
        try:
            with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
                proc = subprocess.Popen(
                    [sys.executable, "-S", str(HERE / "launch.py"), str(write_fd),
                     repr(timeout), *cmd],
                    cwd=ROOT, env=self.env, stdout=out, stderr=err,
                    pass_fds=(write_fd,), start_new_session=True)
            os.close(write_fd)
            write_fd = None
            try:
                proc.wait(timeout + 10)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            report = os.read(read_fd, 256).decode().split()
        finally:
            os.close(read_fd)
            if write_fd is not None:
                os.close(write_fd)
        if len(report) != 5:
            return {"seconds": timeout, "norm_s": timeout, "exit": None, "rss_mb": 0.0,
                    "status": "TIMEOUT"}
        seconds, code, rss_kib, expired, speed = report
        return {"seconds": float(seconds), "norm_s": float(seconds) * float(speed),
                "exit": int(code), "rss_mb": int(rss_kib) / 1024,
                "status": "TIMEOUT" if expired == "1" else None}

    def run_query(self, q: Query, index: int, traced: bool) -> dict:
        """Runs one query, plain or under tracer.py, and records its row."""
        argv = q.argv(self.seed, str(CERTS))
        if q.cert_dir:
            shutil.rmtree(q.cert_dir.format(certs=CERTS), ignore_errors=True)
        stdout = self.out_dir / f"{q.name}.out"
        if traced:
            trace_file = self.trace_dir / f"{q.name}.json"
            trace_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_file), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "agekit.cli", *argv]
        row = self._judge(q, index, traced, argv, stdout,
                          self.launch(cmd, stdout, QUERY_TIMEOUT_S))
        self.rows.append(row)
        return row

    def run_pass(self, index: int, traced: bool) -> float:
        """Runs every query once; returns the summed query time at the
        reference CPU speed."""
        return sum(self.run_query(q, index, traced)["norm_s"] for q in self.queries)

    def _judge(self, q: Query, index: int, traced: bool, argv, stdout: Path, res: dict) -> dict:
        row = {"pass": index, "traced": traced, "query": q.name, **res,
               "verdict": "", "sha256": "", "expected": q.line, "match": False, "stable": True}
        if res["status"] is not None:
            return row
        text = stdout.read_bytes()
        row["sha256"] = hashlib.sha256(text).hexdigest()
        row["verdict"] = next((ln for ln in text.decode(errors="replace").splitlines()
                               if ln.startswith(q.verdict_prefix)), "")
        row["match"] = res["exit"] == q.code and row["verdict"] == q.line
        row["stable"] = self._same_digest(argv, row["sha256"])
        if b"Traceback" in stdout.with_suffix(".err").read_bytes() or res["exit"] not in (0, 1, 2, 3):
            row["status"] = "CRASH"
        elif not row["match"]:
            row["status"] = "KNOWN-DEFECT" if q.defect else "WRONG"
        else:
            row["status"] = "OK"
        return row

    def _same_digest(self, argv, digest: str) -> bool:
        """Records the stdout digest of a query, or compares it with the
        digest recorded earlier for the same source tree."""
        try:
            store = json.loads(self.digest_path.read_text())
        except (OSError, ValueError):
            store = {}
        seen = store.setdefault(self.tree, {})
        key = json.dumps(argv)
        if key in seen:
            return seen[key] == digest
        seen[key] = digest
        tmp = self.digest_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store))
        tmp.replace(self.digest_path)
        return True

    def setup_seconds(self) -> float:
        """Summed start-up time of the queries.  Queries with the same inputs
        start up alike, so each distinct start-up is measured SETUP_REPS
        times and its median counted once per query."""
        inputs = Counter(() if q.command == "verify" else tuple(q.files)
                         for q in self.queries)
        times: dict[tuple, list[float]] = {files: [] for files in inputs}
        out = self.out_dir / "startup.out"
        for _ in range(SETUP_REPS):
            for files in inputs:
                res = self.launch([sys.executable, str(HERE / "startup.py"), *files], out, 30)
                if res["status"] is not None or res["exit"] != 0:
                    raise BenchError(f"start-up with inputs {files} failed ({res['status']}, "
                                     f"exit {res['exit']}); see {out.with_suffix('.err')}")
                times[files].append(res["norm_s"])
        return sum(n * statistics.median(times[files]) for files, n in inputs.items())

    def end_to_end(self, seconds: int) -> dict:
        """Cycles through the queries for the time window: after the first
        pass, a query starts only while its last time still fits."""
        setup = self.setup_seconds()
        samples: dict[str, list[float]] = {q.name: [] for q in self.queries}
        last: dict[str, float] = {}
        start = time.monotonic()
        for index, q in ((i, q) for i in itertools.count() for q in self.queries):
            if index and (time.monotonic() - start + last[q.name] > seconds
                          or time.monotonic() + last[q.name] > self.deadline):
                break
            row = self.run_query(q, index, traced=False)
            last[q.name] = row["seconds"]
            samples[q.name].append(row["norm_s"])
        runs: dict[str, list[dict]] = {q.name: [] for q in self.queries}
        for r in self.rows:
            runs[r["query"]].append(r)
        decided = [q for q in self.queries
                   if all(r["status"] not in ("TIMEOUT", "SKIPPED") for r in runs[q.name])]
        correct = [q for q in self.queries if all(r["match"] for r in runs[q.name])]
        # a certificate counts as accepted when every verify run of its directory did
        emitted = [q.cert_dir for q in self.queries if q.cert_dir]
        accepted = [q.files[0] for q in correct if q.command == "verify"]
        return {
            "wall_s": (sum(statistics.median(v) for v in samples.values()), "s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (max(r["rss_mb"] for r in self.rows), "MB"),
            "decided_frac": (len(decided) / len(self.queries), "ratio"),
            "correct_frac": (len(correct) / len(self.queries), "ratio"),
            # a workload that emits no certificate has none rejected
            "certs_ok_frac": (sum(d in accepted for d in emitted) / len(emitted)
                              if emitted else 1.0, "ratio"),
        }

    def per_layer(self) -> dict:
        plain = self.run_pass(0, traced=False)
        traced = self.run_pass(1, traced=True)
        reports = []
        for q in self.queries:
            path = self.trace_dir / f"{q.name}.json"
            if path.exists():
                reports.append(json.loads(path.read_text()))
        metrics = layer_metrics(reports)
        metrics["tracing.overhead_s"] = (traced - plain, "s")
        return metrics


def _check_checkout(workload: str) -> None:
    needed = {Path("src/agekit/cli.py")}
    for q in WORKLOADS[workload]:
        needed.update(Path(f) for f in q.files if "{" not in f)
    missing = sorted(str(p) for p in needed if not (ROOT / p).is_file())
    if missing:
        raise BenchError("not an agekit checkout, missing: " + ", ".join(missing))
    # also writes the bytecode an installed package would have
    try:
        warm = subprocess.run([sys.executable, "-c", "import agekit.cli"], cwd=ROOT,
                              env=_child_env(), capture_output=True, timeout=30)
    except subprocess.TimeoutExpired:
        raise BenchError("importing agekit took more than 30 s")
    if warm.returncode != 0:
        raise BenchError("cannot import agekit: " + warm.stderr.decode(errors="replace"))


def _declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        _check_checkout(args.workload)
        runner = Runner(args.workload, args.seed, deadline)
        metrics = runner.per_layer() if args.trace else runner.end_to_end(args.seconds)
        declared = _declared_metrics(bool(args.trace))
        got = {name: unit for name, (_, unit) in metrics.items()}
        if got != declared:
            raise BenchError(f"metrics differ from BENCHMARK.json: {got} vs {declared}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    rows = runner.rows
    machine = _machine(args.seed)
    print(f"# workload={args.workload} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in machine.items()))
    for r in rows:
        print(f"{r['pass']} {'T' if r['traced'] else '-'} {r['query']:<24} "
              f"{r['seconds']:8.3f}s ref={r['norm_s']:8.3f}s exit={r['exit']} "
              f"rss={r['rss_mb']:.1f}MB "
              f"{r['status']:<12} {'' if r['stable'] else 'NONDETERMINISTIC '}"
              f"sha256={r['sha256'][:12]} verdict={r['verdict']!r}")
    for q in runner.queries:
        if q.defect:
            print(f"# known defect in {q.name}: {q.defect}")
    wrong = [r for r in rows if r["status"] in ("WRONG", "CRASH")]
    # a stdout digest that differs between runs of one source tree fails too
    failed = [r for r in rows if r["status"] in ("TIMEOUT", "SKIPPED", "CRASH")
              or not r["stable"]]
    result = {
        "correct": not wrong,
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    detail = {"machine": machine, "rows": rows, **result}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
