#!/usr/bin/env python3
"""Record the expected outputs of the deterministic invocations.

    python3 bench/record.py

Run from the root of a checkout.  Sets up every workload, runs each
deterministic invocation twice and writes bench/expected.json: for every
invocation its exit code and the SHA-256 of its byte-stable `--json`
report, and for every catalog emit the SHA-256 of the written document.
Re-record only when an output is meant to change, and say so in the
change that does it.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import checks
import run
import workloads


def main():
    root = os.getcwd()
    workdir = os.path.join(root, ".bench_work", f"record-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    runner = run.Runner(root, workdir)
    expected = {}
    try:
        for name in sorted(workloads.WORKLOADS):
            plan = workloads.plan(name, 0)
            _, digests = run.set_up(plan, runner, workdir)
            for key, digest in digests.items():
                expected[key] = {"sha256": digest}
            for key in plan.catalog_copies.values():
                runner.run(["catalog", *key.split(), "-o", "copy.json"])
                with open(os.path.join(workdir, "copy.json"), "rb") as fh:
                    expected[key] = {"sha256": hashlib.sha256(fh.read()).hexdigest()}
            for inv in plan.invocations:
                if inv.check != "digest":
                    continue
                first = runner.run(inv.argv)
                again = runner.run(inv.argv)
                digest = checks.stable_digest(first.stdout)
                if digest != checks.stable_digest(again.stdout) or \
                        first.rc != again.rc:
                    raise SystemExit(f"{inv.key}: output is not repeatable")
                expected[inv.key] = {"exit": first.rc, "sha256": digest}
                print(f"{first.rc} {digest[:12]} {inv.key}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = os.path.join(run.HERE, "expected.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(expected)} entries to {path}")


if __name__ == "__main__":
    sys.exit(main())
