#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Run it from the root of a checkout, only at a commit whose outputs are
known to be right (it was run at the commit that added the benchmark).
It writes two files under ``perfbench/reference/``:

* ``calc_digests.json``: exit code and output digest of every query any
  ``calc_session`` seed can draw (the whole query universe of
  ``calc_plan``), answered in one process through ``hyperring.cli.main``;
* ``verify.json``: report sha256, report size and stdout summary of
  ``hyperring verify --report`` over the default corpus and over the
  four-instance corpus of ``--tiny`` runs.

A run that changes either file changes what counts as correct, so the
diff belongs in review.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import calc_plan
import child
import run as bench

REFERENCE = bench.HERE / "reference"


def record_calc(work: Path) -> dict:
    from hyperring import cli

    specs = {s.key: s for s in calc_plan.universe()}
    paths = {}
    for pos, (key, spec) in enumerate(sorted(specs.items())):
        paths[key] = str(work / f"ring{pos}.json")
        Path(paths[key]).write_text(json.dumps(spec.document()), encoding="utf-8")
    digests = {}
    for item in calc_plan.universe_queries():
        rings = ["--ring", paths[item["specs"][0]]]
        if len(item["specs"]) > 1:
            rings += ["--ring2", paths[item["specs"][1]]]
        code, text = child.call(cli, [item["command"]] + rings + item["extra"])
        if bench.is_escape(code):
            raise SystemExit(f"{item['key']}: {code} escaped; such a query may not be in the stream")
        digests[item["key"]] = [code, child.digest(text)]
    return digests


def record_verify(work: Path, tiny: bool) -> dict:
    args = bench.parse_args(["--workload", "verify_default", "--seed", "0", "--seconds", "0"]
                            + (["--tiny"] if tiny else []))
    run = bench.Run(args)
    run.work = work
    report = work / "report.json"
    argv = [sys.executable, "-m", "hyperring.cli"] + bench.verify_argv(run, report)
    result = run.child(argv, work / "verify.stdout")
    if result["code"] != 0:
        raise SystemExit(f"verify exited with {result['code']}")
    stats = bench.report_stats(report)
    stdout = (work / "verify.stdout").read_text(encoding="utf-8")
    return {"sha256": stats["sha256"], "bytes": stats["bytes"],
            "summary": bench.summary_lines(stdout)}


def main() -> int:
    sys.path.insert(0, str(bench.SRC))
    work = bench.WORK / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        REFERENCE.mkdir(exist_ok=True)
        digests = record_calc(work)
        (REFERENCE / "calc_digests.json").write_text(
            json.dumps(digests, indent=0, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {len(digests)} calculator query digests")
        verify = {"default": record_verify(work, False), "tiny": record_verify(work, True)}
        (REFERENCE / "verify.json").write_text(json.dumps(verify, indent=1) + "\n",
                                               encoding="utf-8")
        print(f"recorded verify report sha256 {verify['default']['sha256']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
