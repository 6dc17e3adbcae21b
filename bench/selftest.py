#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 bench/selftest.py          # or: python -m pytest bench/selftest.py

Run from the root of a checkout.  They check that the metric names the
benchmark prints are those in BENCHMARK.json, that the plain-Python
evaluator agrees with rbx, that a corrupted output byte and a wrong exit
code each count as a failed invocation, and that the benchmark refuses to
run without the rbx sources.  The file name keeps the repository's own
test run from collecting them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import evaluator  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from rbx import cli  # noqa: E402
from rbx.instances import kx2, null_algebra  # noqa: E402
from rbx.fields import PrimeField  # noqa: E402
from rbx.algebra import canonical_bimodule  # noqa: E402
from rbx.operators import search_operators  # noqa: E402


def _temp_dir(name):
    path = os.path.join(ROOT, ".bench_work", f"selftest-{name}-{os.getpid()}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _cli(*argv):
    """(exit code, stdout bytes) of an in-process `rbx ... --json`."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([*argv, "--json"])
    return rc, buf.getvalue().encode()


def _bench(workdir, *argv):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *argv],
                          cwd=workdir, capture_output=True, text=True,
                          timeout=300)
    return proc.returncode, proc.stdout


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == tracing.PER_LAYER
    assert sorted(w["name"] for w in bench["workloads"]) == \
        sorted(workloads.WORKLOADS)
    for trace, listed in (("0", bench["end_to_end"]), ("1", bench["per_layer"])):
        rc, out = _bench(ROOT, "--workload", "cli-small", "--seed", "7",
                         "--seconds", "1", "--trace", trace)
        assert rc == 0, out
        result = json.loads(out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, out
        assert list(result["metrics"]) == [m["name"] for m in listed]
        for metric in listed:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        for name in result["metrics"]:
            assert any(line.startswith(name + " ") for line in out.splitlines())


def test_counts_repeat_between_traced_runs():
    counts = []
    for _ in range(2):
        rc, out = _bench(ROOT, "--workload", "cli-small", "--seed", "5",
                         "--seconds", "1", "--trace", "1")
        assert rc == 0, out
        metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
        counts.append({name: metrics[name]["value"]
                       for name, unit, _ in tracing.PER_LAYER if unit == "count"})
    assert set(tracing.REPEATABLE) <= set(counts[0])
    assert counts[0] == counts[1]


def test_evaluator_agrees_on_small_catalog():
    workdir = _temp_dir("catalog")
    try:
        for name in workloads.SMALL:
            path = os.path.join(workdir, f"{name}.json")
            assert _cli("catalog", "emit", name, "-o", path)[0] == 0
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            twisted = "phi" in doc.get("cochains", {})
            verb = "check-trb" if twisted else "check-grb"
            rc, out = _cli(verb, path)
            want = evaluator.first_failure(doc, "grb", "pi",
                                           "phi" if twisted else None)
            assert rc == (0 if want is None else 1), name
            assert json.loads(out)["witness"] == want, name

        rng = random.Random(11)
        base = {"mult-by-x": None, "tensor-square": None}
        for name in base:
            with open(os.path.join(workdir, f"{name}.json"), encoding="utf-8") as fh:
                base[name] = json.load(fh)
        cases = []
        for p in (0, 5):
            for source, rows in (("mult-by-x", 2), ("tensor-square", 4)):
                cases.append(("check-grb", "grb", "pi", source, rows, p, True))
            cases.append(("check-reynolds", "reynolds", "R", "mult-by-x", 2, p, False))
            cases.append(("check-nijenhuis", "nijenhuis", "N", "mult-by-x", 2, p, False))
        seen = {"pass": 0, "fail": 0}
        for verb, identity, map_name, source, rows, p, with_module in cases * 6:
            mat = workloads._matrix(rng, rows, 2, p)
            doc = workloads._on(base[source], p, {map_name: mat},
                                bimodule=with_module)
            path = os.path.join(workdir, "case.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            rc, out = _cli(verb, path, "--map", map_name)
            report = json.loads(out)
            want = evaluator.first_failure(doc, identity, map_name)
            assert rc == (0 if want is None else 1), (verb, doc)
            assert report["witness"] == want, (verb, doc)
            seen[report["verdict"]] += 1
        assert seen["fail"] > 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def test_known_search_counts():
    null3 = {"field": "Q", "algebra": {"dim": 3, "c": [[[0] * 3] * 3] * 3}}
    kx2_doc = {"field": "Q", "algebra": {"dim": 2, "c": workloads.KX2_C}}
    cases = [(null3, "rb", 2, null_algebra(PrimeField(2), 3), 512),
             (kx2_doc, "nijenhuis", 5, kx2(PrimeField(5)), 45)]
    for doc, kind, p, algebra, count in cases:
        found = evaluator.count_solutions(doc, kind, p)
        assert len(found) == count
        sols = search_operators(algebra, canonical_bimodule(algebra), kind)
        assert [[[x.val for x in row] for row in s] for s in sols] == found


def test_failures_are_counted():
    rc, good = _cli("explain", "check-trb")
    inv = workloads.Invocation(["explain", "check-trb"])
    expected = {inv.key: {"exit": rc, "sha256": checks.stable_digest(good)}}
    corrupted = bytearray(good)
    corrupted[good.index(b"twisted")] ^= 0x01
    outcomes = [(rc, good), (rc, bytes(corrupted)), (1, good)]
    tally = run.Tally()
    with contextlib.redirect_stdout(io.StringIO()):
        for code, out in outcomes:
            checker = checks.OutputChecker(expected, ROOT, None)
            tally.add(inv.key, checker.check(inv, code, out))
    assert (tally.attempted, tally.failed) == (3, 2)


def test_refuses_to_run_without_sources():
    workdir = _temp_dir("bare")
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), workdir)
        shutil.copytree(HERE, os.path.join(workdir, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "search", "--seed",
             "1", "--seconds", "1", "--trace", "0"],
            cwd=workdir, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except Exception as exc:  # report every test, then fail the run
            failed += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"PASS {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
