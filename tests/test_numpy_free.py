"""Checking verbs, small searches and `catalog emit` import no numpy.

Every invocation of the benchmark's three plans runs in an interpreter
where importing numpy fails: `catalog emit`, since the catalog builds
its instances on the integer encoding, and every search, since each
one's whole dense work is within `linalg.PURE_WORK`.  Its reports
equal, apart from `timing_ms`, those of a normal run and of a run with
every product and every search block sent to numpy (`PURE_WORK` = -1).
A search past the rule (mult-by-x over F11 or F31) does import numpy,
and its report lists the expected solutions; without numpy, the F11
`nijenhuis` search and the degree-30 `flow` and `check-assoc` run pure,
to the same reports.  Every emittable catalog instance, and
truncated-poly at degrees 3 to 8, emits
the same bytes without numpy as in a normal run.  The library's checks
on nested-list matrices (`library_verdicts.py`) reach the same verdicts
without numpy as in a normal run, and so does every verb but `search` on
the CLI fuzz's mutated documents.
"""

import contextlib
import hashlib
import io
import json
import os
import re
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


# sha256 of each --json report, "timing_ms" dropped, as the exhaustive
# search wrote it
@pytest.mark.parametrize("doc, kind, field, budget, count, head, last, digest", [
    (["mult-by-x"], "nijenhuis", "F11", [], 231,
     [[[0, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 0], [0, 2]]],
     [[10, 10], [0, 10]],
     "43e6c651a6306290b6ea1170b5e6ea2b97448328e350605a1e92eb57363f6961"),
    (["mult-by-x"], "rb", "F31", [], 31,
     [[[0, t], [0, 0]] for t in range(31)], [[0, 30], [0, 0]],
     "af484cb57229d8775c5d0fc90136f5f41ffd7ce78735cac78a18cc4ae6032622"),
    (["truncated-poly", "--degree", "3"], "rb", "F5", ["--budget", "2000000"],
     825, [[[0, 0, 0], [0, 0, 0], [0, 0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 1]]],
     [[4, 4, 4], [0, 2, 1], [0, 0, 3]],
     "f6015024f1b87ee61379e5092257a99354ccca11c4539a5f92c8521c6ae0bf7c")],
    ids=["nijenhuis-F11", "rb-F31", "rb-degree-3-F5"])
def test_search_past_the_pure_rule_imports_numpy(tmp_path, doc, kind, field,
                                                 budget, count, head, last,
                                                 digest):
    """mult-by-x over F11 (14,641 candidates of 80 units of work each)
    and over F31 (923,521 candidates), and truncated-poly of degree 3
    over F5 (1,953,125), decided on int64 numpy within 60 s, and their
    reports: the solutions begin with `head` and end with `last`."""
    path = str(tmp_path / "doc.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["catalog", "emit", *doc, "-o", path]) == 0
    script = ("import contextlib, io, json, sys\n"
              "from rbx.cli import main\n"
              "buf = io.StringIO()\n"
              "with contextlib.redirect_stdout(buf):\n"
              "    rc = main(sys.argv[1:])\n"
              "print(json.dumps([rc, 'numpy' in sys.modules, buf.getvalue()]))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, "search", path, "--kind", kind,
         "--field", field, *budget, "--json"],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, timeout=60, check=True)
    rc, numpy_loaded, out = json.loads(proc.stdout)
    assert (rc, numpy_loaded) == (0, True)
    report = json.loads(out)
    solutions = report["solutions"]
    assert report["detail"] == \
        f"{count} solution(s) of kind {kind!r} in canonical order"
    assert len(solutions) == count
    assert solutions[:len(head)] == head and solutions[-1] == last
    text = re.sub(r'\n  "timing_ms": [0-9.]+,', "", out)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("doc, argv", [
    (["truncated-poly", "--degree", "30"], ["flow"]),
    (["truncated-poly", "--degree", "30"], ["check-assoc"]),
    (["mult-by-x"], ["search", "--kind", "nijenhuis", "--field", "F11"])],
    ids=["flow-degree-30", "check-assoc-degree-30", "search-nijenhuis-F11"])
def test_verbs_past_the_pure_rule_run_without_numpy(tmp_path, doc, argv):
    """A verb whose products or search pass `linalg.PURE_WORK`, in a
    child where importing numpy fails, ends within 60 s with exit 0 and
    the report of a normal run, apart from `timing_ms`."""
    path = str(tmp_path / "doc.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["catalog", "emit", *doc, "-o", path]) == 0
    argvs = [[argv[0], path, *argv[1:], "--json"]]
    proc = subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_NUMPY, json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, timeout=60, check=True)
    (rc, out), = json.loads(proc.stdout)
    (normal_rc, normal), = in_process(argvs, str(tmp_path))
    assert (rc, normal_rc) == (0, 0)

    def text(report):
        return re.sub(r'\n  "timing_ms": [0-9.]+,', "", report)
    assert text(out) == text(normal) and "timing_ms" not in text(out)


# the bytes of `library_verdicts.py`'s output
LIBRARY_VERDICTS = \
    "ad447969a09cc0f8e6862e9ac2a264cce8529996a73bb86c0884dfa8fbeeb40f"


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
    assert hashlib.sha256(normal.encode()).hexdigest() == LIBRARY_VERDICTS
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
