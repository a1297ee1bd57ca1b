"""treeopt benchmark: fixed CLI workloads checked against independent oracles.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src. The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.

--trace 0 runs each workload's operations through the `treeopt` CLI as
separate processes, once at --workers 1 and once at --workers 2 per round,
and reports the end-to-end metrics. Each operation's times are divided by
the mean time of a fixed reference loop timed just before and just after
it, so they read in units of that loop (`ref`), a unit that does not drift
with the machine's speed. --trace 1 runs the same operations in-process at
one worker, once plain and once with spans recorded around the package's
public functions (tracing.py), and reports the per-layer metrics. Either way the run repeats whole rounds for about --seconds and
reports the median over rounds.

All inputs are fixed graph classes and graph6 strings, so --seed changes
nothing; it is accepted because every run is labelled with one.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402

OUT = "{out}"  # stands for a spool file path in argv and in normalized stdout
TORN_RECORD = b'{"graphs": ["G?'  # a checkpoint record cut off mid-line
SETUP_PER_ROUND = 5
OP_TIMEOUT_S = 120
# the reference loop: fixed pure-Python work from the benchmark's own oracles
REFERENCE_GRAPHS = tuple(oracles.decode_graph6(g6)
                         for g6 in ("IheA@GUAo", "I~{?GKF@w", "IUX|}vh|G"))
REFERENCE_PAIRS = tuple((g, oracles.relabel(g, perm))
                        for g in REFERENCE_GRAPHS
                        for perm in ([9, 8, 7, 6, 5, 4, 3, 2, 1, 0],
                                     [3, 4, 5, 6, 7, 8, 9, 0, 1, 2],
                                     [2, 7, 0, 9, 4, 1, 8, 5, 3, 6]))
REFERENCE_REPEATS = 32


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    exit_code: int
    check: Callable  # (normalized output, RegularClasses) -> list of problems

    @property
    def spools(self) -> bool:
        return OUT in self.argv


def _verify(mode: str, n: int, d: int, g6: str, exit_code: int) -> Op:
    return Op(f"verify {mode} n={n} d={d} {g6}",
              ("verify", mode, "--n", str(n), "--d", str(d), "--g6", g6,
               "--format", "structured"), exit_code,
              lambda out, cls: checks.check_verify(out, mode, n, d, g6, cls))


SPOOL = Op("enumerate --class s --n 8 --m 14 --out",
           ("enumerate", "--class", "s", "--n", "8", "--m", "14", "--out", OUT), 0,
           lambda out, cls: checks.check_spool(out[0], out[1], OUT, 8, 14))

WORKLOADS = {
    "edges-report": [
        Op("report --n 8 --m 12",
           ("report", "--n", "8", "--m", "12", "--format", "structured"), 0,
           lambda out, cls: checks.check_report(out, 8, 12)),
    ],
    "regular-duality": [
        Op("duality --n 10 --d 4",
           ("duality", "--n", "10", "--d", "4", "--format", "structured"), 0,
           lambda out, cls: checks.check_duality(out, 10, 4, cls)),
    ],
    "spool": [SPOOL],
    "verify-shortcut": [
        _verify("trace-min", 10, 3, "IheA@GUAo", 0),    # Petersen graph
        _verify("ltrace-min", 10, 6, "IUX|}vh|G", 0),   # its complement
        _verify("trace-min", 10, 4, "I~{?GKF@w", 1),    # K5 u K5, REFUTED
    ],
}


@dataclass
class Result:
    code: int
    stdout: str
    stderr: str
    data: bytes | None  # spool file contents
    path: str  # spool file path in argv
    wall: float
    cpu: float = 0.0
    rss_mib: float = 0.0


class Bench:
    def __init__(self, root: str, work: str):
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(root, "src") + (
            os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        # cached bytecode, as an installed package has, kept inside the checkout
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPYCACHEPREFIX"] = os.path.join(os.path.dirname(work), "pycache")
        self.env.pop("TREEOPT_WORKERS", None)
        self.classes = checks.RegularClasses(self._fetch_regular)
        self.reference: dict = {}  # op label -> first normalized output, checked
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.check_s = 0.0  # time spent checking outputs, outside the run budget
        self._failures: set[str] = set()
        self._files = 0

    # -- processes ---------------------------------------------------------

    def out_path(self) -> str:
        self._files += 1
        return os.path.join(self.work, f"spool{self._files}.g6")

    def _spawn(self, args: list[str], stdout, stderr) -> subprocess.Popen:
        return subprocess.Popen([sys.executable, *args], stdout=stdout,
                                stderr=stderr, env=self.env, cwd=self.work)

    def _wait(self, proc: subprocess.Popen):
        """Reap proc with its resource usage; pool children it reaped count too."""
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage

    def run_cli(self, op: Op, workers: int, out_path: str | None = None) -> Result:
        path = out_path or self.out_path()
        argv = [path if a == OUT else a for a in op.argv]
        with tempfile.TemporaryFile(dir=self.work) as fo, \
                tempfile.TemporaryFile(dir=self.work) as fe:
            start = time.perf_counter()
            proc = self._spawn(["-m", "treeopt.cli", *argv, "--workers", str(workers)],
                               fo, fe)
            code, usage = self._wait(proc)
            wall = time.perf_counter() - start
            fo.seek(0)
            fe.seek(0)
            stdout, stderr = fo.read().decode(), fe.read().decode()
        return Result(code, stdout, stderr, self._take(path, op), path, wall,
                      usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)

    def run_inprocess(self, op: Op, out_path: str | None = None) -> Result:
        from treeopt import cli

        path = out_path or self.out_path()
        argv = [path if a == OUT else a for a in op.argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main([*argv, "--workers", "1"])
            wall = time.perf_counter() - start
        return Result(code, out.getvalue(), err.getvalue(), self._take(path, op), path,
                      wall)

    def _take(self, path: str, op: Op) -> bytes | None:
        """Read and remove the spool file an operation wrote, if any."""
        if not op.spools:
            return None
        data = None
        if os.path.exists(path):
            with open(path, "rb") as fh:
                data = fh.read()
        for leftover in (path, path + ".checkpoint"):
            if os.path.exists(leftover):
                os.remove(leftover)
        return data

    def _fetch_regular(self, n: int, d: int) -> list[str]:
        argv = ("enumerate", "--class", "r", "--n", str(n), "--d", str(d),
                "--format", "structured")
        res = self.run_cli(Op("reference class", argv, 0, None), 1)
        if res.code != 0:
            raise AssertionError(f"enumerate --class r --n {n} --d {d} exited "
                                 f"{res.code}: {res.stderr.strip()[-300:]}")
        return json.loads(res.stdout)["graphs"]

    def import_seconds(self) -> float:
        """Wall time of a fresh interpreter importing the CLI."""
        start = time.perf_counter()
        code, _ = self._wait(self._spawn(["-c", "import treeopt.cli"],
                                         subprocess.DEVNULL, subprocess.DEVNULL))
        if code != 0:
            raise SystemExit(f"import treeopt.cli failed with exit code {code}")
        return time.perf_counter() - start

    def tear_checkpoint(self, path: str) -> None:
        """Interrupt a real spool run once its checkpoint header is on disk,
        keep that header and append a record cut off mid-line."""
        ck = path + ".checkpoint"
        argv = [path if a == OUT else a for a in SPOOL.argv]
        proc = self._spawn(["-m", "treeopt.cli", *argv, "--workers", "1"],
                           subprocess.DEVNULL, subprocess.DEVNULL)
        header = None
        deadline = time.perf_counter() + OP_TIMEOUT_S
        while proc.poll() is None and time.perf_counter() < deadline:
            try:
                with open(ck, "rb") as fh:
                    head = fh.read()
            except FileNotFoundError:
                head = b""
            if b"\n" in head:
                header = head[:head.index(b"\n") + 1]
                break
            time.sleep(0.001)
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if header is None:
            raise SystemExit("spool run ended before its checkpoint header appeared")
        if os.path.exists(path):
            os.remove(path)
        with open(ck, "wb") as fh:
            fh.write(header + TORN_RECORD)

    # -- outcomes ----------------------------------------------------------

    def record(self, op: Op, res: Result, how: str):
        """Count one attempted operation and check its output.

        The first output of each operation is checked against the oracles;
        every later one, at any worker count and after a resume, must equal
        it. Returns the normalized output, None if the operation failed or
        its output could not be read.
        """
        self.attempted += 1
        if res.code != op.exit_code:
            self.failed += 1
            note = (f"FAILED {op.label} ({how}): exit {res.code}, want {op.exit_code}: "
                    f"{res.stderr.strip().splitlines()[-1:]}")
            if note not in self._failures:
                self._failures.add(note)
                print(note, file=sys.stderr)
            return None
        if op.spools:
            out = (res.stdout.replace(res.path, OUT), res.data)
        else:
            try:
                out = json.loads(res.stdout)
            except ValueError:
                self.problems.append(f"{op.label} ({how}): standard output is not JSON")
                return None
            out.pop("elapsed_ms", None)
            out.pop("tool_version", None)
        if op.label not in self.reference:
            start = time.perf_counter()
            try:
                found = op.check(out, self.classes)
            except (AssertionError, KeyError, TypeError, ValueError) as e:
                found = [f"{type(e).__name__}: {e}"]
            self.check_s += time.perf_counter() - start
            self.problems += [f"{op.label}: {p}" for p in found]
            self.reference[op.label] = out
        elif out != self.reference[op.label]:
            self.problems.append(f"{op.label} ({how}): output differs from the "
                                 "checked output of an earlier run")
        return out


# ---------------------------------------------------------------------------
# rounds

def reference_loop() -> float:
    """Seconds the reference loop takes now: a gauge of the machine's speed
    that no change to treeopt can move. It mixes exact arithmetic with the
    refinement and search of an isomorphism test, as the program does."""
    start = time.perf_counter()
    for _ in range(REFERENCE_REPEATS):
        for g in REFERENCE_GRAPHS:
            oracles.spanning_trees(g)
            oracles.adjacency_traces(g)
        for _ in range(3):
            for g, h in REFERENCE_PAIRS:
                oracles.isomorphic(g, h)
    return time.perf_counter() - start


def resume(bench: Bench, run) -> Result:
    """Once per spool round: resume from a torn checkpoint. The operation
    succeeds when it exits 0 and writes the fresh spool's bytes."""
    path = bench.out_path()
    bench.tear_checkpoint(path)
    res = run(path)
    bench.record(SPOOL, res, "resume")
    return res


def end_to_end_round(bench: Bench, workload: str) -> dict:
    ops = WORKLOADS[workload]
    # set-up is sampled in every round, so its median spans the whole run
    setup = statistics.median(bench.import_seconds() for _ in range(SETUP_PER_ROUND))
    sample = dict.fromkeys(["wall_s", "wall_s_w2", "cpu_s_w2", *END_TO_END_UNITS], 0.0)
    sample["setup_s"] = setup
    loops = [reference_loop()]
    for workers in (1, 2):
        wall = cpu = 0.0
        for op in ops:
            res = bench.run_cli(op, workers)
            bench.record(op, res, f"--workers {workers}")
            wall += res.wall
            cpu += res.cpu
            sample["peak_rss_mib"] = max(sample["peak_rss_mib"], res.rss_mib)
        loops.append(reference_loop())
        # The machine's speed drifts by tens of percent within a minute. Read
        # against the reference loop timed either side of them, the times of
        # the operations do not.
        loop = (loops[-2] + loops[-1]) / 2
        if workers == 1:
            sample["wall_s"] = wall
            sample["wall_ref"] = wall / loop
        else:
            sample["wall_s_w2"], sample["cpu_s_w2"] = wall, cpu
            sample["wall_ref_w2"], sample["cpu_ref_w2"] = wall / loop, cpu / loop
    sample["reference_loop_s"] = statistics.median(loops)
    if workload == "spool":
        res = resume(bench, lambda path: bench.run_cli(SPOOL, 1, path))
        sample["peak_rss_mib"] = max(sample["peak_rss_mib"], res.rss_mib)
    return sample


def traced_round(bench: Bench, workload: str) -> dict:
    tracer = tracing.Tracer()
    untraced = wall = 0.0
    hits = 0
    for op in WORKLOADS[workload]:
        # plain and traced runs of one operation back to back, so that drift
        # in machine speed between them stays out of trace.overhead_s
        res = bench.run_inprocess(op)
        bench.record(op, res, "in-process")
        untraced += res.wall
        with tracing.traced(tracer):
            res = bench.run_inprocess(op)
        out = bench.record(op, res, "traced")
        wall += res.wall
        if op.argv[0] == "verify" and out is not None:
            hits += out.get("method") == "GIRTH_CERTIFICATE"
    self_s, calls, covered = tracer.totals()
    if abs(sum(self_s.values()) - covered) > 1e-6:
        raise SystemExit("span self times do not add up to the covered time")
    resume_s = 0.0
    if workload == "spool":
        resume_s = resume(bench, lambda path: bench.run_inprocess(SPOOL, path)).wall
    sample = {f"{layer}_s": self_s[layer] for layer in tracing.LAYERS}
    sample.update({
        "enumeration.canonical_relabel_calls": calls["canonical_relabel"],
        "enumeration.members": tracer.members,
        "enumeration.spool_resume_s": resume_s,
        "linalg.spanning_tree_count_calls": calls["spanning_tree_count"],
        "linalg.matmul_calls": calls["IntMatrix.mul"],
        "graphs.graph6_calls": calls["from_graph6"] + calls["to_graph6"],
        "bounds.shortcut_hits": hits,
        "trace.outside_spans_s": wall - covered,
        "trace.wall_s": wall,
        "trace.overhead_s": wall - untraced,
    })
    return sample


END_TO_END_UNITS = {"setup_s": "s", "wall_ref": "ref", "wall_ref_w2": "ref",
                    "cpu_ref_w2": "ref", "peak_rss_mib": "MiB"}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in ("wall_s_w2", "cpu_s_w2"):
        return "s"
    return "s" if name.endswith("_s") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="accepted and unused: every input is fixed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "treeopt", "cli.py")):
        print("error: run from the repository root; src/treeopt/cli.py not found",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    base = os.path.join(root, ".bench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=base)
    try:
        bench = Bench(root, work)
        metrics = {}
        if not args.trace:
            bench.import_seconds()  # fills the bytecode cache
        one_round = traced_round if args.trace else end_to_end_round
        samples = []
        start = time.perf_counter()
        while True:
            samples.append(one_round(bench, args.workload))
            spent = time.perf_counter() - start - bench.check_s
            # stop when one more round would end further past the budget than
            # stopping now falls short of it
            if spent + spent / len(samples) / 2 >= args.seconds:
                break
        for name in samples[0]:
            middle = statistics.median if unit_of(name) != "count" else statistics.median_low
            metrics[name] = middle(s[name] for s in samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}: {len(samples)} rounds, "
          f"{bench.attempted} operations, {bench.failed} failed; medians over rounds; "
          f"checking outputs took {bench.check_s:.1f} s")
    # the raw times and the reference loop are printed for reading, not reported
    reported = [name for name in metrics if args.trace or name in END_TO_END_UNITS]
    for name, value in metrics.items():
        rounds = " ".join(f"{s[name]:.4g}" for s in samples)
        mark = "" if name in reported else "(not reported) "
        print(f"  {mark + name:38s} {value:<10.6g} {unit_of(name):6s} {rounds}")
    if not args.trace and metrics.get("wall_ref_w2"):
        print(f"  (reference only) speed-up wall_ref / wall_ref_w2 = "
              f"{metrics['wall_ref'] / metrics['wall_ref_w2']:.3f}")
    for p in bench.problems:
        print(f"WRONG: {p}")
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit_of(name)}
                    for name in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
