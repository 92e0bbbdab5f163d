#!/usr/bin/env python3
"""Benchmark of the tropms checker, as a user runs it.

    python3 perfbench/run.py --workload torus2-validate --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Set-up generates the workload's input files through the public ``tropms``
API (timed as ``setup_s``, median of several set-ups). With ``--trace 0``
one client runs a closed loop: each operation is a fresh ``tropms`` child
process, launched only after the previous one exited, and its answer is
checked against answers known from how the input was built. With
``--trace 1`` the same operations run in this process, alternating
untraced and traced repetitions, and the tracer in ``layers.py`` reports
per-layer self times, call counts and object sizes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Without
``src/tropms`` the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPS = 5
STARTUP_PAIRS = 5
SMALL_REPS = 3
TAIL_SAMPLES = 10  # samples that must lie beyond the reported tail percentile
ROUND_SECONDS = 10  # nominal length of one cli-session round
CHILD_TIMEOUT_S = 60  # a child still running then is killed and counts as failed

# workload -> (torus side n, side of the smaller torus for the scaling
# exponent); None for the small-input session
SIZES = {
    "torus2-validate": (8, 4),
    "torus3-validate": (9, 6),
    "cli-session": (None, None),
}

SECONDS_FIELD = re.compile(r'"seconds": [-+0-9.eE]+')


def build(workload: str, outdir: str, seed: int, n):
    import inputs

    os.makedirs(outdir)
    if workload == "torus2-validate":
        return inputs.build_torus2(outdir, n, seed)
    if workload == "torus3-validate":
        return inputs.build_torus3(outdir, n, seed)
    return inputs.build_cli_session(outdir, seed)


class Answers:
    """Checks every answer and requires repeats of one operation to print
    the same bytes, with the ``seconds`` fields masked."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, str] = {}
        self.problems: list[str] = []

    def record(self, op, code: int, out: str) -> bool:
        self.attempted += 1
        problems = op.check(code, out)
        masked = SECONDS_FIELD.sub('"seconds": 0', out)
        if self.first.setdefault(op.key, masked) != masked:
            problems = problems + ["output differs from the first repeat"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{op.key}: {p}" for p in problems)
        return not problems


# -- child processes ------------------------------------------------------------


def child_env() -> dict:
    paths = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def run_child(cmd, env, tmpdir):
    """Run one child to completion: (exit code, stdout, stderr, wall s,
    user+sys CPU s, max RSS in KiB)."""
    with tempfile.TemporaryFile(dir=tmpdir) as errf:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=errf, env=env)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        errf.seek(0)
        err = errf.read()
    return (proc.returncode, out.decode(), err.decode(), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_SAMPLES samples beyond it: (value,
    percentile). With too few samples it is the maximum."""
    xs = sorted(samples)
    k = len(xs) - TAIL_SAMPLES - 1 if len(xs) > TAIL_SAMPLES else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs)


def measure_cli(bundle, seconds: float, answers: Answers, env, setup_rep) -> dict:
    """Closed loop, one client. A workload of one operation repeats it while
    another fits in the time; a session runs a fixed number of whole rounds
    (one per ROUND_SECONDS of run time), so that every run samples the same
    operation mix and its tail percentile lands on the same operations.

    The remaining set-ups (``setup_rep()`` returns one set-up's time) are
    spread over the run, so that ``setup_s`` averages over the same spell
    of machine load as the verdicts; their time is kept out of the loop's.
    """
    tmp = bundle.workdir
    run_child([sys.executable, "-m", "tropms.cli", "--version"], env, tmp)  # warm caches
    walls, cpus, rss, setups = [], [], [], []
    correct = 0
    fixed_rounds = max(1, int(seconds // ROUND_SECONDS)) if len(bundle.ops) > 1 else None
    setup_due = [seconds * k / SETUP_REPS for k in range(1, SETUP_REPS)]
    start = time.perf_counter()
    rounds = 0

    def elapsed():
        return time.perf_counter() - start - sum(setups)

    while True:
        for op in bundle.ops:
            code, out, err, wall, cpu, maxrss = run_child(
                [sys.executable, "-m", "tropms.cli", *op.argv], env, tmp
            )
            walls.append(wall)
            cpus.append(cpu)
            rss.append(maxrss)
            if answers.record(op, code, out):
                correct += 1
            elif err:
                answers.problems.append(f"{op.key}: stderr {err.strip()[-300:]}")
            if setup_due and elapsed() >= setup_due[0]:
                setup_due.pop(0)
                setups.append(setup_rep())
        rounds += 1
        if rounds == fixed_rounds or elapsed() * (rounds + 1) / rounds > seconds:
            break
    loop_s = elapsed()
    for _ in setup_due:
        setup_rep()
    p_tail, pct = tail(walls)
    print(f"perfbench: {len(walls)} operations in {rounds} rounds over {loop_s:.2f} s; "
          f"verdict_s_tail is p{pct:.1f} of {len(walls)} samples")
    return {
        "verdict_s_p50": (statistics.median(walls), "s"),
        "verdict_s_tail": (p_tail, "s"),
        "verdict_cpu_s_p50": (statistics.median(cpus), "s"),
        "verdicts_per_s": (correct / loop_s, "1/s"),
        "peak_rss_mb": (max(rss) / 1024.0, "MB"),
    }


# -- in-process traced run ------------------------------------------------------


def invoke(cli, argv) -> tuple[int, str]:
    """One subcommand in this process, as the console script would run it."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=list(argv), prog_name="tropms", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    return code, out.getvalue()


def measure_traced(bundle, small, seconds: float, answers: Answers, env, cells) -> dict:
    import layers
    from tropms import cli

    start = time.perf_counter()
    bare, imported = [], []
    for _ in range(STARTUP_PAIRS):
        bare.append(run_child([sys.executable, "-c", "pass"], env, bundle.workdir)[3])
        imported.append(run_child([sys.executable, "-c", "import tropms.cli"], env, bundle.workdir)[3])

    def run_ops(b, results):
        for op in b.ops:
            results.append((op, *invoke(cli, op.argv)))

    tracer = layers.Tracer()

    # answers are checked after each timed region, so that checking is not
    # charged to the cli layer
    def traced(b):
        results = []
        gc.collect()
        tracer.install()
        try:
            rep = tracer.rep(lambda: run_ops(b, results))
        finally:
            tracer.uninstall()
        for r in results:
            answers.record(*r)
        return rep

    def untraced(b):
        results = []
        gc.collect()
        t0 = time.perf_counter()
        run_ops(b, results)
        elapsed = time.perf_counter() - t0
        for r in results:
            answers.record(*r)
        return elapsed

    untraced(bundle)  # warm-up: lazy imports and first-call costs
    small_times = [traced(small)[0] for _ in range(SMALL_REPS)] if small else []
    plain, reps = [], []
    while True:
        plain.append(untraced(bundle))
        reps.append(traced(bundle))
        elapsed = time.perf_counter() - start
        if len(reps) >= 2 and elapsed + plain[-1] + reps[-1][0] > seconds:
            break

    traced_s = statistics.median(r[0] for r in reps)
    metrics = {m: (statistics.median(r[1][m] for r in reps), "s") for m in layers.SELF_METRICS}
    counts = reps[0][2]
    if any(r[2] != counts for r in reps):
        print("perfbench: warning: per-layer counts differ between traced repetitions")
    metrics.update({m: (counts[m], "count") for m in layers.COUNT_METRICS})
    metrics["cli.startup_s"] = (statistics.median(imported) - statistics.median(bare), "s")
    exponent = 0.0
    if small_times:
        exponent = math.log(traced_s / statistics.median(small_times)) / math.log(cells[0] / cells[1])
    metrics["pipeline.scaling_exponent"] = (exponent, "exponent")
    metrics["trace.traced_verdict_s"] = (traced_s, "s")
    metrics["trace.untraced_verdict_s"] = (statistics.median(plain), "s")
    metrics["trace.overhead_s"] = (traced_s - statistics.median(plain), "s")
    metrics["trace.self_sum_ratio"] = (
        sum(metrics[m][0] for m in layers.SELF_METRICS) / traced_s, "ratio")
    metrics["trace.missing_entry_points"] = (len(tracer.missing), "count")
    if tracer.missing:
        print(f"perfbench: missing entry points: {', '.join(tracer.missing)}")
    print(f"perfbench: {len(reps)} traced and {len(plain)} untraced repetitions of "
          f"{len(bundle.ops)} operation(s); {len(small_times)} at the smaller size")
    return metrics


# -- main -----------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "tropms" / "cli.py").is_file():
        print(f"error: {SRC / 'tropms'} not found; run from the root of a tropms checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs

    n, n_small = SIZES[args.workload]
    env = child_env()
    work = WORK / f"{args.workload}-{os.getpid()}"
    answers = Answers()
    try:
        t0 = time.perf_counter()
        bundle = build(args.workload, str(work / "inputs"), args.seed, n)
        setup = [time.perf_counter() - t0]
        setup_problems = [
            p for label, paths, want in bundle.covers for p in inputs.check_counts(label, paths, want)
        ]

        def setup_rep():
            outdir = work / f"setup{len(setup)}"
            t0 = time.perf_counter()
            build(args.workload, str(outdir), args.seed, n)
            setup.append(time.perf_counter() - t0)
            shutil.rmtree(outdir)
            return setup[-1]

        if args.trace == 0:
            metrics = measure_cli(bundle, args.seconds, answers, env, setup_rep)
            metrics["setup_s"] = (statistics.median(setup), "s")
        else:
            small = build(args.workload, str(work / "small"), args.seed, n_small) if n_small else None
            cells = (n * n, n_small * n_small) if n_small else None
            metrics = measure_traced(bundle, small, args.seconds, answers, env, cells)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    size = f"n={n}" if n else f"{len(bundle.ops)} operations per round"
    print(f"perfbench: workload {args.workload}, {size}, seed {args.seed}")
    for p in (setup_problems + answers.problems)[:20]:
        print(f"perfbench: wrong: {p}")
    result = {
        "correct": not setup_problems and answers.failed == 0,
        "attempted": answers.attempted,
        "failed": answers.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
