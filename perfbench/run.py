#!/usr/bin/env python3
"""Benchmark of the affine-homog command line, driven in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The workloads are in workloads.py; one
process runs one workload as a closed loop: a single caller issues each
``affine_homog.cli.run(argv)`` call after the previous one returns, with
stdout captured and checked. ``--workload all`` runs every workload, each
in its own process.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
tracer.py, from traced passes that alternate with untraced ones. The lines
before it give the same figures for a reader, with their details, and the
uncorrected wall-clock figures beside the corrected ones (see CAL_REF_S).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "affine_homog").is_dir():
    sys.exit(f"no affine_homog sources in {SRC}: run from the root of a checkout")
sys.path.insert(0, str(SRC))
from affine_homog import cli  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = tuple(workloads.WORKLOADS)

# A shared host changes speed, on every core at once, from one second to
# the next by up to about 40%, and its level drifts over minutes. So each
# op is timed between two runs of a fixed calibration loop, and its wall
# time is scaled by CAL_REF_S over the mean of the two loop times: the
# figures read as seconds on a host where the loop takes CAL_REF_S, about
# the median of the 2-core host of the baseline. The same is done for
# every set-up sample.
CAL_REF_S = 0.010
CAL_TERMS = 1500  # length of the calibration loop
SETUP_SAMPLES = 11
WARMUP_SECONDS = 3.0
TAIL_BEYOND = 10  # samples a tail percentile must leave above it
# With more than TAIL_BEYOND passes, the tail of op_tail_s lies among the
# samples of the slowest op kind, whatever the host's speed. With exactly
# TAIL_BEYOND + 1 it would be the fastest of them, which jumps with one
# lucky sample; with 13 it is the third fastest.
MIN_PASSES = 13

# time from the first statement of a fresh interpreter to the first op
# being ready: the CLI imported and the catalog loaded
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import affine_homog.cli as cli
cli.cat.catalog()
print(time.perf_counter() - t0)
"""

UNITS = {"ops_per_s": "ops/s", "op_p50_s": "s", "op_tail_s": "s",
         "peak_rss_mb": "MB", "setup_s": "s"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Tally:
    """Checks every op's output and counts failures."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.last = None  # (op, stdout) of the last op that passed

    def record(self, op, rc, stdout) -> None:
        self.attempted += 1
        why = workloads.check(op, rc, stdout, self.reference)
        if why is None:
            self.last = (op, stdout)
            return
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {op.key}: {why}", file=sys.stderr)

    def self_check(self) -> bool:
        """An altered reference and an altered verdict must both count as
        failures on an output that passed."""
        if self.last is None:
            return False
        op, stdout = self.last
        altered_ref = dict(self.reference)
        altered_ref[op.key] = workloads.digest(stdout + " ")
        altered_op = workloads.Op(op.argv, dict(op.expect), fixed=True)
        name, value = next(iter(op.expect.items()))
        altered_op.expect[name] = [value]
        return (workloads.check(altered_op, 0, stdout, self.reference) is not None
                and workloads.check(op, 0, stdout, altered_ref) is not None)


def calibrate() -> float:
    """Seconds of a fixed loop of exact rational arithmetic, the kind of
    interpreter work the program does. Nothing of the program runs in it;
    the collector is held off so that the program's heap cannot slow it."""
    gc.disable()
    try:
        start = time.perf_counter()
        s = Fraction(0)
        for i in range(1, CAL_TERMS):
            s += Fraction(1, i) * Fraction(i + 1, i + 2)
        return time.perf_counter() - start
    finally:
        gc.enable()


def corrected(wall: float, cal_before: float, cal_after: float) -> float:
    return wall * CAL_REF_S / ((cal_before + cal_after) / 2)


def run_op(op, tally, tr=None) -> float:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tr is not None:
            tr.begin_op()
        start = time.perf_counter()
        try:
            rc = cli.run(list(op.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a raising op counts as failed; go on
            rc = f"raised {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if tr is not None:
            tr.end_op(start, end)
    tally.record(op, rc, out.getvalue())
    return end - start


def run_pass(ops, tally, tr=None):
    """(wall, corrected) seconds of each op of one pass."""
    times, cal = [], calibrate()
    for op in ops:
        wall = run_op(op, tally, tr)
        cal_after = calibrate()
        times.append((wall, corrected(wall, cal, cal_after)))
        cal = cal_after
    return times


def warm_up(ops, tally) -> None:
    """Untimed ops, at most one pass, so that lazy set-up and the
    allocator settle before timing; their outputs are not counted."""
    scratch = Tally(tally.reference)
    start = time.perf_counter()
    for op in ops:
        run_op(op, scratch)
        if time.perf_counter() - start > WARMUP_SECONDS:
            break


def ops_per_s(passes, k=1) -> float:
    """Ops completed per second of op time, over whole passes; ``k`` picks
    the wall (0) or corrected (1) times."""
    return sum(map(len, passes)) / sum(t[k] for p in passes for t in p)


def op_p50(passes, k=1) -> float:
    """Median over the workload's ops of each op's median time across
    passes. The median of all samples would lie on the edge between two
    ops whenever a pass has an even number of them, and jump between the
    two from run to run."""
    return statistics.median(statistics.median(p[j][k] for p in passes)
                             for j in range(len(passes[0])))


def tail(samples):
    """(value, percentile, samples) at the highest percentile that still
    has TAIL_BEYOND samples above it."""
    s = sorted(samples)
    i = max(len(s) - TAIL_BEYOND - 1, 0)
    return s[i], 100.0 * (i + 1) / len(s), len(s)


def setup_sample():
    """(wall, corrected) set-up seconds of one fresh interpreter."""
    cal = calibrate()
    proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                          capture_output=True, text=True, timeout=60, check=True)
    wall = float(proc.stdout)
    return wall, corrected(wall, cal, calibrate())


def timed_run(ops, tally, seconds):
    """Whole passes for ``seconds``, and at least MIN_PASSES of them.
    Set-up samples are taken between passes, spread evenly over the run."""
    warm_up(ops, tally)
    passes, setup = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(passes) < MIN_PASSES:
        passes.append(run_pass(ops, tally))
        share = min((time.perf_counter() - start) / seconds, 1)
        while len(setup) < SETUP_SAMPLES * share:
            setup.append(setup_sample())
    setup += [setup_sample() for _ in range(SETUP_SAMPLES - len(setup))]
    samples = [t[1] for p in passes for t in p]
    tail_s, pct, n = tail(samples)
    metrics = {
        "ops_per_s": ops_per_s(passes),
        "op_p50_s": op_p50(passes),
        "op_tail_s": tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(t[1] for t in setup),
    }
    wall = {"ops_per_s": ops_per_s(passes, 0), "op_p50_s": op_p50(passes, 0),
            "op_tail_s": tail([t[0] for p in passes for t in p])[0],
            "setup_s": statistics.median(t[0] for t in setup)}
    notes = {"op_tail_s": f"p{pct:.2f} of {n} samples",
             "ops_per_s": f"{len(passes)} passes of {len(ops)} ops",
             "setup_s": f"median of {SETUP_SAMPLES} fresh interpreters"}
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {UNITS[name]}"
              + (f"  (wall {wall[name]:.6g})" if name in wall else "")
              + (f"  ({notes[name]})" if name in notes else ""))
    return {name: {"value": v, "unit": UNITS[name]} for name, v in metrics.items()}


def traced_run(workload, seed, ops, tally, seconds):
    tr = tracer.Tracer()
    warm_up(ops, tally)
    plain, traced, totals = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_pass(ops, tally))
        tr.install()
        try:
            tr.begin_pass()
            traced.append(run_pass(ops, tally, tr))
            totals.append(tr.end_pass())
        finally:
            tr.uninstall()

    units = tracer.units()
    times = {name for name in totals[0] if units[name] == "s"}

    def counts(t):
        return {k: v for k, v in t.items() if k not in times}

    ok = True
    if any(counts(t) != counts(totals[0]) for t in totals):
        print("trace: per-layer counts differ between traced passes", file=sys.stderr)
        ok = False
    for layer in tracer.LAYERS:
        if workload in layer.serves and not totals[0][f"{layer.name}.calls"]:
            print(f"trace: {layer.name} was never called", file=sys.stderr)
            ok = False
    metrics = dict(totals[0])
    for name in times:
        metrics[name] = statistics.median(t[name] for t in totals)
    plain_rate, traced_rate = ops_per_s(plain), ops_per_s(traced)
    metrics["trace_overhead"] = 1 - traced_rate / plain_rate
    print(f"ops_per_s untraced {plain_rate:.6g}, traced {traced_rate:.6g} "
          f"({len(plain)} and {len(traced)} passes)")
    for name in tracer.metric_names():
        print(f"{name} {metrics[name]:.6g} {units[name]}")
    print("layer map:", *tracer.layer_map(), sep="\n  ")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(json.dumps(
        {"workload": workload, "seed": seed,
         "ops": [" ".join(op.argv) for op in ops], "layer_map": tracer.layer_map(),
         **tr.dump()}))
    print(f"spans written to {trace_file.relative_to(HERE.parent)}")
    return ({name: {"value": metrics[name], "unit": units[name]}
             for name in tracer.metric_names()}, ok)


def run_all(args) -> int:
    """Every workload in its own process; the last line sums them up."""
    attempted = failed = 0
    correct = True
    metrics = {}
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    ops = workloads.build(args.workload, args.seed)
    tally = Tally(workloads.load_reference())
    if args.trace:
        metrics, ok = traced_run(args.workload, args.seed, ops, tally, args.seconds)
    else:
        metrics, ok = timed_run(ops, tally, args.seconds), True
    checked = tally.self_check()
    print(f"self-check: altered reference and verdict counted as failures: "
          f"{'yes' if checked else 'NO'}")
    print(f"fail_ratio {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} ops)")
    print(json.dumps({"correct": ok and checked and tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
