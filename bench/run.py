#!/usr/bin/env python3
"""The rbx benchmark.

    python3 bench/run.py --workload {cli-small,flow-heavy,search} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout of the repository.  rbx is run from the
checkout's `src` as `python -m rbx.cli <verb> ... --json` subprocesses,
one at a time (a closed loop with one client).

With `--trace 0` the workload is set up five times (catalog emits, the
seeded documents, one untimed warm-up invocation) and then run in passes
over its invocation list for about `--seconds` seconds.  Every
output is checked (see checks.py).  It prints the end-to-end metrics by
name, with unit and sample count, then one JSON line with the result.

Timings are scaled to a reference machine speed.  A shared two-CPU VM
runs the same invocation up to 1.8 times slower from one stretch of a
few seconds to the next, and that drift follows the cost of starting a
process.  So every timed invocation, and every set-up, is
bracketed by bare interpreter starts (`python -I -S -c pass`, the median
of three), and its wall time is multiplied by REFERENCE_START_S over the
mean of the two brackets.  The calibration runs no rbx code, so a change
to rbx moves the scaled times as much as the raw ones.  Raw figures are
printed beside the scaled ones.

With `--trace 1` it prints the per-layer metrics instead (see tracing.py).

Inputs and outputs live in `.bench_work/` under the checkout, which is
removed at exit.  Exit status is 0 when a result was printed, 2 when the
checkout lacks rbx or its test oracle.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 5
TIMEOUT_S = 60.0
BARE_START = ["-I", "-S", "-c", "pass"]
CALIBRATION_STARTS = 3
# a bare interpreter start on the reference machine; scaled times read as
# if every bracketing start had taken this long
REFERENCE_START_S = 0.015

# (name, unit, better, bound); must match BENCHMARK.json
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("session_s", "s", "lower", 0.24),
    ("wall_ms.p50", "ms", "lower", 0.24),
    ("wall_ms.p90", "ms", "lower", 0.24),
    ("cand_per_s.dense", "cand/s", "higher", 0.24),
    ("cand_per_s.sparse", "cand/s", "higher", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


@dataclass
class Result:
    rc: int
    wall_s: float
    maxrss_mb: float
    stdout: bytes
    stderr: bytes
    timed_out: bool


class Runner:
    """Runs `python -m rbx.cli ... --json` in the work directory, one child
    at a time, and reaps each child with wait4 to read its peak RSS."""

    def __init__(self, root, workdir):
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("RBX_BUDGET", "PYTHONPATH")}
        self.env["PYTHONPATH"] = os.path.join(root, "src")

    def run(self, argv, timeout=TIMEOUT_S, module="rbx.cli"):
        cmd = [sys.executable, "-m", module, *argv, "--json"] if module else \
            [sys.executable, *argv]
        out_path = os.path.join(self.workdir, ".stdout")
        err_path = os.path.join(self.workdir, ".stderr")
        fired = threading.Event()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err)

            def kill():
                fired.set()
                proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                timer.join()
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        return Result(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                      stdout, stderr, fired.is_set())


class SetupError(RuntimeError):
    pass


def set_up(plan, runner, workdir):
    """Write the workload's documents and make the warm-up invocation.

    Returns the elapsed seconds and {emit key: sha256 of the file}."""
    start = time.perf_counter()
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    emitted, digests = {}, {}
    for instance, degree, out in plan.emits:
        argv = ["catalog", "emit", instance]
        if degree is not None:
            argv += ["--degree", str(degree)]
        res = runner.run(argv + ["-o", out])
        if res.rc != 0:
            raise SetupError(f"{' '.join(argv)} exited {res.rc}: "
                             f"{res.stderr.decode(errors='replace')[-500:]}")
        with open(os.path.join(workdir, out), "rb") as fh:
            raw = fh.read()
        emitted[out] = json.loads(raw)
        digests["emit " + " ".join(argv[2:])] = hashlib.sha256(raw).hexdigest()
    for name, make in plan.docs.items():
        text = json.dumps(make(emitted), indent=2, sort_keys=True) + "\n"
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
        if name in plan.catalog_copies:
            digests[plan.catalog_copies[name]] = \
                hashlib.sha256(text.encode()).hexdigest()
    res = runner.run(plan.warmup)
    if res.rc != 0:
        raise SetupError(f"warm-up {' '.join(plan.warmup)} exited {res.rc}")
    return time.perf_counter() - start, digests


def start_s(runner):
    """Median wall time of CALIBRATION_STARTS bare interpreter starts."""
    return statistics.median(runner.run(BARE_START, module=None).wall_s
                             for _ in range(CALIBRATION_STARTS))


def scale(before, after):
    """Factor that takes a wall time bracketed by starts of `before` and
    `after` seconds to the reference machine."""
    return REFERENCE_START_S / ((before + after) / 2.0)


def percentile(values, q):
    """Linear interpolation between closest ranks, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def load_oracle(root):
    spec = importlib.util.spec_from_file_location(
        "bench_test_oracle", os.path.join(root, "tests", "oracle.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Tally:
    """Attempted and failed invocations; prints every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, label, problems):
        self.attempted += 1
        if problems:
            self.fail(label, problems, 1)

    def fail(self, label, problems, count):
        """Count `count` attempted invocations as failed."""
        self.failed += count
        print(f"MISMATCH {label}: {'; '.join(problems)}")


def check_emits(expected, digests, tally):
    for key, digest in digests.items():
        record = expected.get(key)
        problems = []
        if record is None:
            problems.append("no recorded digest")
        elif record["sha256"] != digest:
            problems.append("emitted document differs from the recorded one")
        tally.add(key, problems)


def measure(plan, runner, checker, seconds, tally):
    """Invocations in pass order for about `seconds` seconds: at least one
    whole pass, then on until the next invocation, at its median time so
    far, would overrun.

    Returns (invocation, result, scale) samples and the bracketing start
    times."""
    samples, took = [], {}
    start = time.perf_counter()
    before = start_s(runner)
    starts = [before]
    for i in itertools.count():
        inv = plan.invocations[i % len(plan.invocations)]
        if inv.key in took and (time.perf_counter() - start
                                + statistics.median(took[inv.key]) > seconds):
            return samples, starts
        begin = time.perf_counter()
        res = runner.run(inv.argv)
        after = start_s(runner)
        took.setdefault(inv.key, []).append(time.perf_counter() - begin)
        problems = checker.check(inv, res.rc, res.stdout, res.timed_out)
        if problems and res.stderr:
            problems.append("stderr: " + res.stderr.decode(
                errors="replace").strip().splitlines()[-1][:300])
        tally.add(inv.key, problems)
        samples.append((inv, res, scale(before, after)))
        starts.append(after)
        before = after


def end_to_end(setups, samples, starts):
    """The end-to-end metrics of an untraced run, scaled to the reference
    machine (see the module docstring).

    Each invocation of the list is taken at its median wall time over the
    run, so that one slow moment moves one sample of an invocation rather
    than a whole pass, and each weighs the same however often the run
    reached it.  The percentiles are over these typical times: the samples
    of a mixed list fall in clusters, one per command, and a percentile
    of the samples themselves jumps between neighbouring clusters from
    run to run."""
    runs, raw = {}, {}
    for inv, res, k in samples:
        runs.setdefault(inv.key, (inv, []))[1].append(res.wall_s * k)
        raw.setdefault(inv.key, []).append(res.wall_s * 1000.0)
    typical = [(inv, statistics.median(secs)) for inv, secs in runs.values()]
    typical_ms = [secs * 1000.0 for _, secs in typical]
    raw_ms = [statistics.median(ms) for ms in raw.values()]
    metrics = {
        "setup_s": statistics.median(secs * k for secs, k in setups),
        "session_s": sum(secs for _, secs in typical),
        "wall_ms.p50": percentile(typical_ms, 0.5),
        "wall_ms.p90": percentile(typical_ms, 0.9),
    }
    above = sum(ms > metrics["wall_ms.p90"] for ms in typical_ms)
    counts = {"setup_s": f"median of {len(setups)} set-ups (raw "
                         + ", ".join(f"{secs:.2f}" for secs, _ in setups)
                         + " s)",
              "session_s": f"{len(typical)} invocations, medians of "
                           f"{len(samples) / len(typical):.1f} passes",
              "wall_ms.p50": f"over {len(typical)} invocations of "
                             f"{len(samples)} samples, raw "
                             f"{percentile(raw_ms, 0.5):.1f} ms",
              "wall_ms.p90": f"{above} invocations above, raw "
                             f"{percentile(raw_ms, 0.9):.1f} ms"}
    for half in ("dense", "sparse"):
        chosen = [(inv, secs) for inv, secs in typical if inv.half == half]
        cands = sum(inv.candidates for inv, _ in chosen)
        metrics[f"cand_per_s.{half}"] = cands / sum(secs for _, secs in chosen)
        counts[f"cand_per_s.{half}"] = \
            f"{len(chosen)} searches of {cands} candidates in all"
    metrics["peak_rss_mb"] = max(res.maxrss_mb for _, res, _ in samples)
    counts["peak_rss_mb"] = f"max over {len(samples)} children"
    print(f"bare interpreter start: median {statistics.median(starts) * 1e3:.1f} "
          f"ms over {len(starts)} calibrations, reference "
          f"{REFERENCE_START_S * 1e3:.1f} ms")
    return metrics, counts


def report(metrics, units, counts, tally):
    for name, value in metrics.items():
        print(f"{name:<44} {value:>14.4f} {units[name]:<8} {counts.get(name, '')}")
    rate = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"{'error_rate':<44} {rate:>14.4f} {'fraction':<8} "
          f"{tally.failed} of {tally.attempted} failed")
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    for needed in ("src/rbx/cli.py", "tests/oracle.py"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"bench: {needed} not found; run from the root of an rbx "
                  f"checkout", file=sys.stderr)
            return 2
    plan = workloads.plan(args.workload, args.seed)
    workdir = os.path.join(root, ".bench_work", f"{plan.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    runner = Runner(root, workdir)
    expected = checks.load_expected(os.path.join(HERE, "expected.json"))
    checker = checks.OutputChecker(expected, workdir, load_oracle(root))
    tally = Tally()
    print(f"workload {plan.name}, seed {args.seed}, {len(plan.invocations)} "
          f"invocations per pass, trace {args.trace}")
    try:
        if args.trace:
            _, digests = set_up(plan, runner, workdir)
            check_emits(expected, digests, tally)
            metrics = tracing.per_layer(plan, runner, checker, tally, root,
                                        args.seconds)
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
            counts = {}
        else:
            setups = []
            before = start_s(runner)
            for _ in range(SETUPS):
                elapsed, digests = set_up(plan, runner, workdir)
                after = start_s(runner)
                setups.append((elapsed, scale(before, after)))
                before = after
            check_emits(expected, digests, tally)
            samples, starts = measure(plan, runner, checker, args.seconds,
                                      tally)
            for key, (problems, count) in checker.finish().items():
                tally.fail(key, problems, count)
            metrics, counts = end_to_end(setups, samples, starts)
            units = {name: unit for name, unit, _, _ in END_TO_END}
        report(metrics, units, counts, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
