"""mptsu2 benchmark: real CLI runs, checked against independent references.

Usage (from the root of a source checkout)::

    python3 bench/run.py --workload oracle-deep --seed 1 --seconds 28 --trace 0

One closed-loop client runs the workload's commands one at a time, each in a
fresh ``python -m mptsu2`` process with one BLAS thread, and repeats the
command list for about ``--seconds`` seconds (see ``finished``).  Every
output is checked against a reference computed in this process, outside the
timed region.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (one pass through
the command list) and ``setup_s`` (a fresh interpreter importing the CLI),
both scaled to a reference machine speed by the calibration kernel of
``speed.py``, whose raw values are printed too; ``peak_rss_mb`` (largest
peak RSS of any CLI process); ``ops_passed_frac`` (commands that exited 0
and met their reference); and ``ref_digits_min`` (fewest correct digits of
any checked output).  ``--trace 1`` alternates untraced passes with passes
run under ``traced_cli.py`` and reports per-layer metrics from the traced
spans, plus the tracing overhead.  The last stdout line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

from spans import SpanTree, layer_metrics, layer_self_times
from spawner import COMMAND_TIMEOUT_S
from speed import kernel_seconds, scaled
from workloads import WORKLOADS, build_commands, known_defects, mirrored

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 7

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class Child(NamedTuple):
    """One finished child process."""

    exit_code: int
    stdout: str
    stderr: str
    seconds: float
    peak_rss_mb: float
    kernel_s: float = 0.0   # calibration kernel time around the process

    @property
    def scaled_seconds(self) -> float:
        return scaled(self.seconds, self.kernel_s)


class Spawner:
    """Client of ``spawner.py``: runs CLI processes from a small helper process."""

    def __init__(self, env: dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "spawner.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str]) -> Child:
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended unexpectedly")
        return Child(**json.loads(line))

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def calibrated(spawner: Spawner, argv: list[str], before: float) -> tuple[Child, float]:
    """Run a child between two calibration kernels; returns it and the second."""
    child = spawner.run(argv)
    after = kernel_seconds()
    return child._replace(kernel_s=0.5 * (before + after)), after


def measure_setup(spawner: Spawner) -> list[Child]:
    """Fresh interpreters importing the CLI, after one warm-up import."""
    argv = [sys.executable, "-c", "import mptsu2.cli"]
    children = []
    kernel_s = kernel_seconds()
    for _ in range(SETUP_REPEATS + 1):
        child, kernel_s = calibrated(spawner, argv, kernel_s)
        if child.exit_code != 0:
            raise RuntimeError(f"importing mptsu2.cli failed:\n{child.stderr}")
        children.append(child)
    return children[1:]


def run_pass(commands, spawner: Spawner, traced: bool, pass_no: int):
    """Run every command once; returns {cid: Child} and the spans if traced."""
    children, spans = {}, []
    kernel_s = kernel_seconds()
    for cmd in commands:
        if traced:
            out = WORK / f"spans-{pass_no}-{cmd.cid}.json"
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(out),
                    str(cmd.cid), "--", *cmd.args]
        else:
            argv = [sys.executable, "-m", "mptsu2", *cmd.args]
        children[cmd.cid], kernel_s = calibrated(spawner, argv, kernel_s)
        if traced and out.exists():
            spans.extend(json.loads(out.read_text(encoding="utf-8")))
            out.unlink()
    return children, spans


def finished(passes: int, unit: int, elapsed: float, seconds: float) -> bool:
    """Whether to stop after ``passes`` passes, run in whole units of ``unit``.

    A unit is the smallest balanced group: a traced pass with the untraced
    one before it, or a timed pass with its mirrored-coupling twin (a single
    pass when no command takes a coupling).  Runs
    stop at the first unit boundary after ``seconds``, or earlier when one
    more unit would overrun ``seconds`` by more than half.
    """
    if passes == 0 or passes % unit:
        return False
    per_unit = elapsed * unit / passes
    return elapsed >= seconds or elapsed + per_unit > 1.5 * seconds


def pass_wall(passes: list[dict], field: str = "seconds") -> float:
    """Wall time of one pass: sum over commands of their median time across passes."""
    cids = passes[0].keys()
    return sum(statistics.median(getattr(p[c], field) for p in passes) for c in cids)


def report_pass(number: int, traced: bool, commands, children: dict, outcomes) -> None:
    """One line per command: check result, exit code, time and deviation."""
    for cmd, o in zip(commands, outcomes):
        dev = "-" if o.deviation is None else f"{o.deviation:.3g} ({o.digits:.2f} digits)"
        print(f"pass {number} {'traced' if traced else 'timed'} cmd {cmd.cid:2d} "
              f"{'ok  ' if o.ok else 'FAIL'} exit={o.exit_code} "
              f"t={children[cmd.cid].seconds:.3f}s dev={dev} tol={o.tolerance} "
              f"| {cmd.label} | {o.detail}")


def report_known_defects(workload: str, spawner: Spawner, refs) -> None:
    """Run the workload's known-defect commands once and print their outcome.

    They use the oracle's default quadrature, which fails at the seed; they
    are neither timed nor counted in ``attempted``/``failed``, so the
    gated workload stays free of failing operations while the defect shows.
    """
    probes = known_defects(workload)
    children = {c.cid: spawner.run([sys.executable, "-m", "mptsu2", *c.args])
                for c in probes}
    checked = refs.check_pass(
        probes, {c: (ch.exit_code, ch.stdout) for c, ch in children.items()})
    for cmd, o in zip(probes, checked):
        dev = "-" if o.deviation is None else f"{o.deviation:.3g} ({o.digits:.2f} digits)"
        print(f"known defect (not counted) {'now passes' if o.ok else 'FAIL'} "
              f"exit={o.exit_code} dev={dev} | {cmd.label} | {o.detail}")


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args, pass_sets, exit_codes) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "commands": [{c.cid: c.label for c in pass_set} for pass_set in pass_sets],
        "exit_codes": exit_codes,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mptsu2" / "cli.py").is_file():
        sys.stderr.write(f"error: no mptsu2 source tree under {SRC}; run from a "
                         "checkout of the repository\n")
        return 2
    # Fixed before numpy loads here, and inherited by every child.
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    spawner = Spawner(child_env())   # started while this process is still small
    try:
        return run_workload(args, spawner)
    finally:
        spawner.close()


def run_workload(args, spawner: Spawner) -> int:
    sys.path.insert(0, str(SRC))
    from references import References, failure_counts, ref_digits_min

    commands = build_commands(args.workload, args.seed)
    pass_sets = (commands, mirrored(commands))
    unit = 2 if args.trace or pass_sets[0] != pass_sets[1] else 1
    refs = References()
    setup = [] if args.trace else measure_setup(spawner)

    WORK.mkdir(exist_ok=True)
    plain, traced, outcomes, layer_runs = [], [], [], []
    exit_codes: list[list[int]] = []
    begin = perf_counter()
    try:
        while not finished(len(exit_codes), unit, perf_counter() - begin, args.seconds):
            use_trace = bool(args.trace) and len(traced) < len(plain)
            # Timed passes alternate the drawn couplings with their mirror
            # images; a traced pass repeats the untraced pass before it.
            pass_set = pass_sets[0 if args.trace else len(plain) % 2]
            children, spans = run_pass(pass_set, spawner, use_trace, len(exit_codes))
            (traced if use_trace else plain).append(children)
            if use_trace:
                layer_runs.append(SpanTree(spans))
            checked = refs.check_pass(
                pass_set, {c: (ch.exit_code, ch.stdout) for c, ch in children.items()})
            outcomes.extend(checked)
            exit_codes.append([children[c.cid].exit_code for c in pass_set])
            report_pass(len(exit_codes), use_trace, pass_set, children, checked)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    report_known_defects(args.workload, spawner, refs)

    attempted, failed = failure_counts(outcomes)
    wall_s = pass_wall(plain)
    print(f"wall_s raw = {wall_s:.4f} s, scaled = {pass_wall(plain, 'scaled_seconds'):.4f} s; "
          f"calibration kernel median = "
          f"{statistics.median(ch.kernel_s for p in plain for ch in p.values()):.5f} s")
    print("env " + json.dumps(environment(args, pass_sets, exit_codes)))
    print(f"ops_failed_frac = {failed / attempted:.4f} ratio ({failed} failed of "
          f"{attempted} commands attempted over {len(exit_codes)} passes)")
    if args.trace:
        per_pass = [layer_metrics(t) for t in layer_runs]
        metrics = {n: statistics.median(r[n] for r in per_pass) for n in per_pass[0]}
        # Scaled to the reference speed, so a speed change between the two
        # passes does not show up as tracing overhead.
        untraced_s = pass_wall(plain, "scaled_seconds")
        traced_s = pass_wall(traced, "scaled_seconds")
        metrics["trace.overhead_s"] = traced_s - untraced_s
        print(f"scaled wall_s untraced = {untraced_s:.4f} s, traced = {traced_s:.4f} s")
        selfs = layer_self_times(layer_runs[0])
        for layer, s in sorted(selfs.items(), key=lambda kv: -kv[1]):
            print(f"layer self time {layer:10s} {s:9.4f} s")
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = {
            "wall_s": pass_wall(plain, "scaled_seconds"),
            "setup_s": statistics.median(ch.scaled_seconds for ch in setup),
            "peak_rss_mb": max(ch.peak_rss_mb for p in plain for ch in p.values()),
            "ops_passed_frac": 1.0 - failed / attempted,
            "ref_digits_min": ref_digits_min(outcomes),
        }
        print(f"setup_s raw = {statistics.median(ch.seconds for ch in setup):.4f} s")
        units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                 "ops_passed_frac": "ratio", "ref_digits_min": "digits"}
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
