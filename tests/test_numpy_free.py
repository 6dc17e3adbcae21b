"""Checking verbs, small searches and `catalog emit` import no numpy.

Every invocation of the benchmark's three plans runs in an interpreter
where importing numpy fails: `catalog emit`, since the catalog builds
its instances on the integer encoding, and every search, since each
one's whole dense work is within `linalg.PURE_WORK`.  Its reports
equal, apart from `timing_ms`, those of a normal run and of a run with
every product and every search block sent to numpy (`PURE_WORK` = -1).
A search past the rule (mult-by-x over F11) does import numpy, and its
report lists the expected 231 solutions.  Every
emittable catalog instance, and truncated-poly at degrees 3 to 8, emits
the same bytes without numpy as in a normal run.  The library's checks
on nested-list matrices (`library_verdicts.py`) reach the same verdicts
without numpy as in a normal run, and so does every verb but `search` on
the CLI fuzz's mutated documents.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

from rbx import cli, linalg
from rbx.catalog import TABLE
from test_cli_fuzz import seeded_runs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import workloads  # noqa: E402  (bench/workloads.py: the plans)

RUN_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None          # any import of numpy raises ImportError
from rbx.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = main(argv)
        except SystemExit as exc:       # argparse's usage errors
            rc = exc.code
    out.append([rc, buf.getvalue()])
print(json.dumps(out))
"""


def write_documents(plan, workdir):
    """The plan's documents, emitted and derived as the benchmark does."""
    emitted = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for instance, degree, out in plan.emits:
            argv = ["catalog", "emit", instance, "-o", os.path.join(workdir, out)]
            if degree is not None:
                argv += ["--degree", str(degree)]
            assert cli.main(argv) == 0
            with open(os.path.join(workdir, out)) as fh:
                emitted[out] = json.load(fh)
    for name, make in plan.docs.items():
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(json.dumps(make(emitted), indent=2, sort_keys=True) + "\n")


def reports(outputs):
    """(exit code, report without timing_ms) of each output."""
    out = []
    for rc, text in outputs:
        report = json.loads(text)
        report.pop("timing_ms")
        out.append((rc, report))
    return out


def in_process(argvs, workdir):
    here = os.getcwd()
    os.chdir(workdir)
    try:
        outputs = []
        for argv in argvs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code
            outputs.append((rc, buf.getvalue()))
        return outputs
    finally:
        os.chdir(here)


@pytest.mark.parametrize("name", ["cli-small", "flow-heavy", "search"])
def test_plans_run_without_numpy(name, tmp_path, monkeypatch):
    plan = workloads.plan(name, 1)
    argvs = [inv.argv + ["--json"] for inv in plan.invocations]
    assert len(argvs) == {"cli-small": 24, "flow-heavy": 13, "search": 9}[name]
    assert sum(argv[0] == "search" for argv in argvs) == \
        {"cli-small": 5, "flow-heavy": 4, "search": 9}[name]
    runs = {}
    for run in ("blocked", "normal", "numpy"):
        workdir = tmp_path / run
        workdir.mkdir()
        write_documents(plan, str(workdir))
        if run == "blocked":
            proc = subprocess.run(
                [sys.executable, "-c", RUN_WITHOUT_NUMPY, json.dumps(argvs)],
                cwd=workdir, env=dict(os.environ, PYTHONPATH=os.path.join(
                    ROOT, "src")), capture_output=True, text=True,
                timeout=300, check=True)
            outputs = json.loads(proc.stdout)
        else:
            with monkeypatch.context() as patch:
                if run == "numpy":
                    patch.setattr(linalg, "PURE_WORK", -1)
                outputs = in_process(argvs, workdir)
        runs[run] = reports(outputs)
    assert runs["blocked"] == runs["normal"] == runs["numpy"]
    # the checking plans exercise both verdicts; every search passes
    assert {rc for rc, _ in runs["normal"]} >= \
        ({0} if name == "search" else {0, 1})


def emits():
    """The argv of every emittable catalog instance, truncated-poly also
    at degrees 3 to 8."""
    out = [["catalog", "emit", name] for name, (_, emittable, _)
           in sorted(TABLE.items()) if emittable]
    return out + [["catalog", "emit", "truncated-poly", "--degree", str(n)]
                  for n in range(3, 9)]


def test_catalog_emits_the_same_bytes_without_numpy(tmp_path):
    argvs = [argv + ["-o", str(tmp_path / f"blocked-{k}.json")]
             for k, argv in enumerate(emits())]
    proc = subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_NUMPY, json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, timeout=300, check=True)
    assert [rc for rc, _ in json.loads(proc.stdout)] == [0] * len(argvs)
    for k, argv in enumerate(emits()):
        normal = tmp_path / f"normal-{k}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv + ["-o", str(normal)]) == 0
        assert (tmp_path / f"blocked-{k}.json").read_bytes() == \
            normal.read_bytes(), argv


def test_search_past_the_pure_rule_imports_numpy(tmp_path):
    """mult-by-x over F11: 14,641 candidates of 80 units of work each,
    decided on int64 numpy, and its report."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["catalog", "emit", "mult-by-x", "-o",
                         str(tmp_path / "mult-by-x.json")]) == 0
    script = ("import contextlib, io, json, sys\n"
              "from rbx.cli import main\n"
              "buf = io.StringIO()\n"
              "with contextlib.redirect_stdout(buf):\n"
              "    rc = main(sys.argv[1:])\n"
              "print(json.dumps([rc, 'numpy' in sys.modules, buf.getvalue()]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, "search", str(tmp_path / "mult-by-x.json"),
         "--kind", "nijenhuis", "--field", "F11", "--json"],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, timeout=120, check=True)
    rc, numpy_loaded, out = json.loads(proc.stdout)
    assert (rc, numpy_loaded) == (0, True)
    report = json.loads(out)
    solutions = report["solutions"]
    assert report["detail"] == \
        "231 solution(s) of kind 'nijenhuis' in canonical order"
    assert len(solutions) == 231
    assert solutions[:3] == [[[0, 0], [0, 0]], [[0, 0], [0, 1]],
                             [[0, 0], [0, 2]]]
    assert solutions[-1] == [[10, 10], [0, 10]]


def test_library_checks_nested_lists_without_numpy():
    """OperatorInstance and is_grb, is_reynolds, is_nijenhuis,
    dendriform_from_grb, grb_morphism_check and derivation_dual on
    nested-list matrices over Q and F5."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    blocked, normal = (subprocess.run(
        [sys.executable, os.path.join(ROOT, "tests", "library_verdicts.py"),
         *flags], env=env, capture_output=True, text=True, timeout=120,
        check=True).stdout for flags in (["--without-numpy"], []))
    assert blocked == normal
    results = dict(line.split(": ", 1) for line in normal.splitlines())
    failing = {"is_grb bent", "is_reynolds bent", "is_nijenhuis bent",
               "grb_morphism_check swap"}
    for field in ("Q", "F5"):
        assert results.pop(f"{field} derivation_dual z=2") == \
            "'W o p is not z times the identity on M'"
        for name in ("is_grb x", "is_reynolds x", "is_nijenhuis x",
                     "is_reynolds one", "is_nijenhuis one",
                     "dendriform_from_grb x", "grb_morphism_check id",
                     "derivation_dual", *failing):
            assert results.pop(f"{field} {name}").startswith(
                "(False" if name in failing else "(True"), (field, name)
    assert results == {}


def test_fuzz_documents_give_the_same_reports_without_numpy(tmp_path):
    """Every verb that reads a document, but `search`, on eleven of the
    CLI fuzz's mutated documents each, drawn by a seeded Random: the
    reports of one child with numpy blocked equal, apart from
    `timing_ms`, those in process."""
    argvs = []
    for verb in sorted(set(cli.VERBS) - {"catalog", "explain", "search"}):
        for k, (argv, doc) in enumerate(seeded_runs(verb, 11)):
            path = tmp_path / f"{verb}-{k}.json"
            path.write_text(json.dumps(doc))
            argvs.append([argv[0], str(path), *argv[1:]])
    proc = subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_NUMPY, json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, timeout=300, check=True)
    blocked = reports(json.loads(proc.stdout))
    assert blocked == reports(in_process(argvs, str(tmp_path)))
    # the documents reach every verdict
    assert {rc for rc, _ in blocked} == {0, 1, 2}
