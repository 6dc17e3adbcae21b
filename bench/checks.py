"""Output checks for benchmark invocations.

Every `rbx <verb> --json` report is checked; a mismatch makes the
invocation count as failed.

* Deterministic invocations (catalog-derived inputs) must reproduce the
  exit code and the SHA-256 digest of the byte-stable report, that is,
  the report bytes without the `timing_ms` line, recorded in
  `expected.json` by `record.py`.
* Seeded operator checks must give the verdict and the lexicographically
  first failing pair, with both sides, that the plain-Python evaluator
  finds.
* Seeded `check-addexp`/`residual` verdicts must agree with the
  evaluator's Rota-Baxter verdict: the flow truncates and the structure
  residual vanishes exactly for Rota-Baxter operators.
* Seeded `bracket` listings must equal the nested-loop
  `oracle_bracket` of the repository's test oracle; that runs after the
  timed loop.
* Every output of one invocation must be byte-identical (apart from
  `timing_ms`) to its first output in the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from itertools import product

import numpy as np

import evaluator

TIMING_LINE = re.compile(rb'^  "timing_ms": [^\n]*\n', re.M)
EXIT_CODES = {"pass": 0, "fail": 1, "error": 2}


def stable_digest(stdout: bytes) -> str:
    """SHA-256 of a `--json` report without its top-level timing line."""
    return hashlib.sha256(TIMING_LINE.sub(b"", stdout, count=1)).hexdigest()


def load_expected(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class OutputChecker:
    """Checks reports and remembers what it has seen.

    `oracle` is the repository's `tests/oracle.py` module, used read-only
    for bracket outputs.
    """

    def __init__(self, expected, workdir, oracle):
        self.expected = expected
        self.workdir = workdir
        self.oracle = oracle
        self.first = {}          # key -> stable digest of the first output
        self.semantic = {}       # key -> problems found in the first output
        self.brackets = {}       # key -> (invocation, report), checked later
        self.counts = {}         # key -> invocations made

    def check(self, inv, rc, stdout, timed_out=False):
        """Problems with one invocation's output; empty when correct."""
        self.counts[inv.key] = self.counts.get(inv.key, 0) + 1
        if timed_out:
            return ["timed out"]
        try:
            report = json.loads(stdout)
        except ValueError:
            return [f"exit {rc} without a JSON report"]
        problems = []
        verdict = report.get("verdict") if isinstance(report, dict) else None
        if EXIT_CODES.get(verdict) != rc:
            problems.append(f"exit {rc} does not match verdict {verdict!r}")
        digest = stable_digest(stdout)
        first = self.first.setdefault(inv.key, digest)
        if digest != first:
            problems.append("report differs from this invocation's first report")
        if inv.check == "digest":
            problems += self._against_record(inv, rc, digest)
        elif digest == first and inv.key in self.semantic:
            problems += self.semantic[inv.key]
        else:
            found = self._semantic(inv, rc, report)
            if digest == first:
                self.semantic[inv.key] = found
            problems += found
        return problems

    def _against_record(self, inv, rc, digest):
        record = self.expected.get(inv.key)
        if record is None:
            return ["no recorded digest for this invocation"]
        problems = []
        if rc != record["exit"]:
            problems.append(f"exit {rc}, recorded {record['exit']}")
        if digest != record["sha256"]:
            problems.append("report digest differs from the recorded one")
        return problems

    def _doc(self, inv):
        with open(os.path.join(self.workdir, inv.doc), encoding="utf-8") as fh:
            return json.load(fh)

    def _semantic(self, inv, rc, report):
        if inv.check == "operator":
            want = evaluator.first_failure(self._doc(inv), inv.identity,
                                           inv.map_name)
            problems = []
            if rc != (0 if want is None else 1):
                problems.append(f"exit {rc}, evaluator says "
                                f"{'pass' if want is None else 'fail'}")
            if report.get("witness") != want:
                problems.append(f"witness {report.get('witness')} != "
                                f"evaluator {want}")
            return problems
        if inv.check == "truncation":
            holds = evaluator.first_failure(self._doc(inv), "grb", "pi") is None
            if rc != (0 if holds else 1):
                return [f"exit {rc}, but the operator is "
                        f"{'' if holds else 'not '}Rota-Baxter"]
            return []
        if rc != 0:                            # a bracket always exits 0
            return [f"exit {rc}, expected 0"]
        self.brackets.setdefault(inv.key, (inv, report))
        return []

    def finish(self):
        """Check the deferred bracket outputs against the oracle; returns
        {key: (problems, invocations affected)}."""
        failures = {}
        for key, (inv, report) in self.brackets.items():
            problems = self._bracket_problems(inv, report)
            if problems:
                failures[key] = (problems, self.counts[key])
        return failures

    def _bracket_problems(self, inv, report):
        doc = self._doc(inv)
        field = evaluator.Field(doc["field"])
        shim = type("OracleField", (), {"zero": field.zero})()
        maps = {}
        for name in ("f", "g"):
            tensor = np.array(evaluator.parse_tensor(
                field, doc["cochains"][name]["tensor"]), dtype=object)
            maps[name] = self.oracle.FnMap.from_tensor(shim, tensor)
        result = self.oracle.oracle_bracket(maps["f"], maps["g"])
        dA, dM = doc["algebra"]["dim"], doc["bimodule"]["dim"]
        labels = [f"e{i}" for i in range(dA)] + [f"m:m{i}" for i in range(dM)]
        lines = []
        for idx in product(range(result.dim), repeat=result.arity):
            values = result.fn(idx)
            for k in range(result.dim):
                if field.norm(values[k]):
                    ins = ",".join(labels[i] for i in idx)
                    lines.append(f"({ins}) -> {labels[k]}: {field.fmt(values[k])}")
        lines = lines or ["0 (zero map)"]
        problems = []
        if report.get("bracket") != lines:
            problems.append("bracket listing differs from oracle_bracket")
        detail = f"[f, g] has arity {result.arity}"
        if report.get("detail") != detail:
            problems.append(f"detail {report.get('detail')!r} != {detail!r}")
        return problems
