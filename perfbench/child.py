"""The benchmark's child process: one fresh interpreter per measured run.

    python3 perfbench/child.py calc PLAN_FILE RESULT_FILE TRACE
    python3 perfbench/child.py verify REPORT_FILE RESULT_FILE [CORPUS_FILE]

``calc`` runs one pass of the plan's query stream through
``hyperring.cli.main`` in this one long-lived process, then the plan's
probes. With TRACE 1 the per-layer tracer is installed first. ``verify`` runs one traced
``verify --report`` in process, over the default corpus unless a corpus
file is given; the untraced verify run is a plain
``python -m hyperring.cli`` child of ``run.py``.

The parent writes the spec files, checks every answer and reads the peak
RSS of this process from ``os.wait4``; this process only measures.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import time

from tracer import Tracer

PAGE_MB = os.sysconf("SC_PAGE_SIZE") / (1024 * 1024)


def rss_mb() -> float:
    """Resident set size of this process, from /proc/self/statm."""
    with open("/proc/self/statm", encoding="ascii") as handle:
        return int(handle.read().split()[1]) * PAGE_MB


def call(cli, argv):
    """(exit code or exception class name, output text) of one query."""
    out = io.StringIO()
    try:
        code = cli.main(argv, out=out)
    except SystemExit as exc:  # argparse rejects an argument list
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an escaped exception is a failed query
        code = type(exc).__name__
    return code, out.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_calc(plan_path: str, trace: bool) -> dict:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    from hyperring import cli

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    keep = set(plan["keep_output"])
    latencies = []
    outcomes = []
    kept = {}
    rss_before = rss_mb()
    started = time.perf_counter()
    for index, argv in enumerate(plan["argv"]):
        t0 = time.perf_counter()
        code, text = call(cli, argv)
        latencies.append(time.perf_counter() - t0)
        outcomes.append([code, digest(text)])
        if index in keep:
            kept[str(index)] = text
    wall = time.perf_counter() - started
    rss_after = rss_mb()
    probes = [call(cli, argv)[0] for argv in plan["probe_argv"]]
    return {
        "started": started,
        "wall_s": wall,
        "latencies": latencies,
        "outcomes": outcomes,
        "kept": kept,
        "rss_growth_mb": rss_after - rss_before,
        "probes": probes,
        "trace": tracer.snapshot() if tracer else None,
    }


def run_verify(report_path: str, corpus_path: str | None) -> dict:
    from hyperring import cli, corpus

    tracer = Tracer()
    tracer.install()
    argv = ["verify"] + (["--corpus", corpus_path] if corpus_path else [])
    t0 = time.perf_counter()
    code, text = call(cli, argv + ["--report", report_path])
    wall = time.perf_counter() - t0
    snapshot = tracer.snapshot()
    counts = {"rings": 0, "instances": 0}
    if corpus_path is None:  # both are cached by now, so this costs nothing
        counts = {
            "rings": len(corpus.corpus_rings(corpus.DEFAULT_CONFIG)),
            "instances": len(corpus.generate_corpus(corpus.DEFAULT_CONFIG)),
        }
    return {"started": t0, "wall_s": wall, "code": code, "stdout": text, "trace": snapshot, "counts": counts}


def main(argv) -> int:
    mode = argv[0]
    if mode == "calc":
        result = run_calc(argv[1], argv[3] == "1")
    elif mode == "verify":
        result = run_verify(argv[1], argv[3] if len(argv) > 3 else None)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    with open(argv[2], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
