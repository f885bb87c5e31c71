#!/usr/bin/env python3
"""The repository's benchmark: two workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload verify_default --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout that holds ``src/hyperring``. The metric
names and units come from ``BENCHMARK.json`` beside ``perfbench/``. With
``--trace 0`` the last stdout line is a JSON object with every end-to-end
metric; with ``--trace 1`` it has every per-layer metric, measured by a
separate traced child, and the full trace and the hypothesis funnel are
written under ``perfbench/_work/results/``. Every time metric is a time at
a fixed CPU speed: the run is pinned to one CPU, where ``speed.py`` samples
how fast a fixed loop runs, and each measured interval is divided by the
slowdown seen during it. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calc_plan
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
RESULTS = WORK / "results"
RUN_LIMIT_S = 170.0  # every run ends well inside the 180 s allowed
SETUP_FIRST = 6    # fresh interpreters timed before the workload, and
SETUP_BETWEEN = 5  # after each measured child: the box's speed swings within seconds
ORACLE_SAMPLE = 60
TAIL_SAMPLES = 10  # the tail percentile keeps this many samples beyond it
MB = 1024 * 1024

# A small fixed corpus for --tiny runs (the self-tests), checked like the default one.
TINY_CORPUS = [
    {"ring": {"kind": "zn_multiplier", "modulus": 4, "multipliers": [1]}, "ideal": "gen:2"},
    {"ring": {"kind": "zn_multiplier", "modulus": 6, "multipliers": [1, 5]}, "alpha": "id"},
    {"ring": {"kind": "zn_multiplier", "modulus": 8, "multipliers": [2]},
     "ideal": "gen:4", "alpha": "zero"},
    {"ring": {"kind": "zn_multiplier", "modulus": 12, "multipliers": [2, 3]},
     "ideal": "gen:6", "alpha": "id"},
]


class Run:
    """One benchmark run: its deadline, scratch directory and child environment."""

    def __init__(self, args):
        self.args = args
        self.start = time.perf_counter()
        self.work = WORK / f"run-{os.getpid()}"
        self.reference = Path(args.reference) if args.reference else HERE / "reference"
        path = os.environ.get("PYTHONPATH")
        # Absolute, so children started in another directory still import the package.
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.setup_spans = []
        self.setup_rss_mb = []
        self.samples_path = self.work / "speed.txt"
        self.probe = None

    def start_probe(self) -> None:
        """Pin this process, and so every child, to one CPU and sample its speed there."""
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.probe = subprocess.Popen([sys.executable, str(HERE / "speed.py"),
                                       str(self.samples_path)], stdout=subprocess.PIPE, text=True)
        if self.probe.stdout.readline().strip() != "ready":
            raise SystemExit("the speed probe did not start")

    def stop_probe(self) -> None:
        if self.probe is not None:
            self.probe.terminate()
            self.probe.wait()
            self.probe.stdout.close()

    def slowdown(self, t0: float, t1: float) -> float:
        return speed.slowdown(speed.read_samples(self.samples_path), t0, t1)

    def at_reference_speed(self, t0: float, t1: float) -> float:
        """The wall time of [t0, t1] had the CPU run at the probe's reference speed."""
        return (t1 - t0) / self.slowdown(t0, t1)

    def sample_setup(self, count: int) -> None:
        """Time ``count`` fresh interpreters importing hyperring.cli; keep their RSS."""
        code = ("import os, hyperring.cli; "
                "print(int(open('/proc/self/statm').read().split()[1]) * os.sysconf('SC_PAGE_SIZE'))")
        for _ in range(count):
            t0 = time.perf_counter()
            done = subprocess.run([sys.executable, "-c", code], env=self.env, cwd=ROOT,
                                  capture_output=True, text=True, check=True, timeout=60)
            self.setup_spans.append((t0, time.perf_counter()))
            self.setup_rss_mb.append(int(done.stdout) / MB)

    def setup_s(self) -> float:
        return statistics.median(self.at_reference_speed(*span) for span in self.setup_spans)

    def remaining(self) -> float:
        return max(5.0, RUN_LIMIT_S - (time.perf_counter() - self.start))

    def child(self, argv, stdout_path=None) -> dict:
        """Run one child to completion: exit code, wall time and its own peak RSS."""
        sink = open(stdout_path, "w", encoding="utf-8") if stdout_path else subprocess.DEVNULL
        try:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, stdout=sink, cwd=ROOT)
            watchdog = threading.Timer(self.remaining(), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            t1 = time.perf_counter()
        finally:
            if stdout_path:
                sink.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"code": proc.returncode, "t0": t0, "t1": t1, "wall_s": t1 - t0,
                "peak_rss_mb": usage.ru_maxrss / 1024}

    def python_child(self, script_args, stdout_path=None) -> dict:
        return self.child([sys.executable, str(HERE / "child.py")] + script_args, stdout_path)


# ---------------------------------------------------------------------------
# shared measurements


def tail(samples):
    """(value, percentile, count): the highest percentile up to p99 with
    at least TAIL_SAMPLES samples beyond it (the maximum when there are fewer)."""
    ordered = sorted(samples)
    n = len(ordered)
    index = math.ceil(0.99 * n) - 1
    if n > TAIL_SAMPLES:
        index = min(index, n - 1 - TAIL_SAMPLES)
    return ordered[index], 100.0 * (index + 1) / n, n


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def metadata(seed: int) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "seed": seed,
        "repo.src_lines": src_lines(),
    }


def read_json(path: Path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# verify_default


def verify_reference(run: Run) -> dict:
    return read_json(run.reference / "verify.json")["tiny" if run.args.tiny else "default"]


def verify_argv(run: Run, report: Path) -> list:
    argv = ["verify"]
    if run.args.tiny:
        corpus = run.work / "tiny_corpus.json"
        corpus.write_text(json.dumps(TINY_CORPUS), encoding="utf-8")
        argv += ["--corpus", str(corpus)]
    return argv + ["--report", str(report)]


def summary_lines(stdout: str) -> list:
    """The stdout summary without the line naming the report path."""
    return [line for line in stdout.splitlines() if not line.startswith("report written:")]


def report_stats(path: Path, parse: bool = False) -> dict:
    """sha256, size and record count of a report file; with ``parse``, also
    its status counts and hypothesis funnel.

    The report holds one record per line, so it is read a line at a time.
    The funnel counts, per theorem, how often each named hypothesis was the
    one that blocked an instance (``witness: ["hypothesis", name]``).
    """
    sha = hashlib.sha256()
    size = records = 0
    statuses = {}
    funnel = {}
    with open(path, "rb") as handle:
        for raw in handle:
            sha.update(raw)
            size += len(raw)
            if not raw.startswith(b"{"):
                continue
            records += 1
            if not parse:
                continue
            record = json.loads(raw.rstrip(b",\n"))
            statuses[record["status"]] = statuses.get(record["status"], 0) + 1
            witness = record["witness"]
            if isinstance(witness, list) and len(witness) == 2 and witness[0] == "hypothesis":
                slot = funnel.setdefault(record["theorem"], {})
                slot[witness[1]] = slot.get(witness[1], 0) + 1
    return {"sha256": sha.hexdigest(), "bytes": size, "records": records,
            "statuses": statuses, "funnel": funnel}


def verify_problems(ref: dict, code, stdout: str, stats: dict) -> list:
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if stats["sha256"] != ref["sha256"]:
        problems.append(f"report sha256 {stats['sha256']} != {ref['sha256']}")
    if summary_lines(stdout) != ref["summary"]:
        problems.append("stdout summary differs from the reference")
    return problems


def verify_untraced(run: Run) -> dict:
    report = run.work / "report.json"
    stdout_path = run.work / "verify.stdout"
    argv = [sys.executable, "-m", "hyperring.cli"] + verify_argv(run, report)
    result = run.child(argv, stdout_path)
    result["stdout"] = stdout_path.read_text(encoding="utf-8")
    result["stats"] = report_stats(report) if report.exists() else {
        "sha256": "", "bytes": 0, "records": 0}
    if report.exists():
        report.unlink()
    result["problems"] = verify_problems(verify_reference(run), result["code"],
                                         result["stdout"], result["stats"])
    return result


def workload_verify(run: Run):
    runs = []
    deadline = run.start + run.args.seconds
    while True:  # whole verify commands until the measuring time is used
        runs.append(verify_untraced(run))
        run.sample_setup(SETUP_BETWEEN)
        if time.perf_counter() >= deadline or run.args.trace:
            break
    failed = sum(1 for r in runs if r["problems"])
    walls = [run.at_reference_speed(r["t0"], r["t1"]) for r in runs]
    latency_ms = [w * 1000 for w in walls]
    peak = statistics.median(r["peak_rss_mb"] for r in runs)
    p99, pct, count = tail(latency_ms)
    end_to_end = {
        "wall_s": statistics.median(walls),
        "ops_per_s": statistics.median(r["stats"]["records"] / w for r, w in zip(runs, walls)),
        "p50_ms": statistics.median(latency_ms),
        "p99_ms": p99,
        "peak_rss_mb": peak,
        "rss_growth_mb": peak - statistics.median(run.setup_rss_mb),
        "setup_s": run.setup_s(),
    }
    notes = {
        "runs": len(runs),
        "raw_wall_s": [r["wall_s"] for r in runs],
        "slowdown": [r["wall_s"] / w for r, w in zip(runs, walls)],
        "tail_percentile": pct,
        "tail_samples": count,
        "fail_frac": failed / len(runs),
        "problems": [p for r in runs for p in r["problems"]],
        "records": runs[-1]["stats"]["records"],
    }
    outcome = {"correct": failed == 0, "attempted": len(runs), "failed": failed}
    if not run.args.trace:
        return outcome, end_to_end, notes, None

    report = run.work / "report.json"
    traced_path = run.work / "traced.json"
    traced_argv = ["verify", str(report), str(traced_path)]
    if run.args.tiny:
        traced_argv.append(str(run.work / "tiny_corpus.json"))
    child = run.python_child(traced_argv)
    traced = read_json(traced_path) if traced_path.exists() else None
    if traced is None or child["code"] != 0:
        raise SystemExit(f"traced verify child failed with exit code {child['code']}")
    stats = report_stats(report, parse=True)
    report.unlink()
    problems = verify_problems(verify_reference(run), traced["code"], traced["stdout"], stats)
    notes["problems"] += [f"traced run: {p}" for p in problems]
    outcome["correct"] = outcome["correct"] and not problems
    statuses = stats["statuses"]
    layer_extra = {
        "verifier.decided_ratio": (statuses.get("holds", 0) + statuses.get("fails", 0))
        / max(1, stats["records"]),
        "verifier.undecided": statuses.get("undecided", 0),
        "verifier.report_bytes": stats["bytes"],
        "corpus.rings": traced["counts"]["rings"],
        "corpus.instances": traced["counts"]["instances"],
        "cli.tracebacks": 0 if isinstance(traced["code"], int) else 1,
        # The traced wall starts after import; the untraced one includes start-up.
        "trace.overhead_frac": reported_wall(run, traced)
        / (end_to_end["wall_s"] - end_to_end["setup_s"]) - 1,
        "fail_frac": notes["fail_frac"],
    }
    return outcome, end_to_end, notes, (traced["trace"], layer_extra, stats["funnel"])


# ---------------------------------------------------------------------------
# calc_session


def write_calc_plan(run: Run) -> tuple:
    """Spec files, probe files and the child's argv lists, all before timing."""
    sizes = {"per_class": 1, "products": 2, "modulus_max": 5} if run.args.tiny else {}
    plan = calc_plan.make_plan(run.args.seed, **sizes)
    spec_dir = run.work / "specs"
    spec_dir.mkdir(parents=True)
    paths = {}
    for pos, (key, doc) in enumerate(sorted(plan["specs"].items())):
        paths[key] = str(spec_dir / f"ring{pos}.json")
        Path(paths[key]).write_text(json.dumps(doc), encoding="utf-8")
    argv = []
    for item in plan["stream"]:
        rings = ["--ring", paths[item["specs"][0]]]
        if len(item["specs"]) > 1:
            rings += ["--ring2", paths[item["specs"][1]]]
        argv.append([item["command"]] + rings + item["extra"])
    probe_argv = []
    for pos, probe in enumerate(plan["probes"]):
        path = spec_dir / f"probe{pos}.json"
        path.write_text(json.dumps(probe["doc"]), encoding="utf-8")
        probe_argv.append([probe["command"], "--ring", str(path)] + probe["extra"])
    checked = [i for i, item in enumerate(plan["stream"]) if item["check"] is not None]
    keep = sorted(random.Random(run.args.seed).sample(checked, min(ORACLE_SAMPLE, len(checked))))
    plan_path = run.work / "plan.json"
    plan_path.write_text(json.dumps({"argv": argv, "probe_argv": probe_argv, "keep_output": keep}),
                         encoding="utf-8")
    return plan, plan_path


def calc_child(run: Run, plan_path: Path, trace: bool) -> dict:
    """One fresh process answering one pass of the stream."""
    out = run.work / "calc.json"
    child = run.python_child(["calc", str(plan_path), str(out), str(int(trace))])
    if child["code"] != 0 or not out.exists():
        raise SystemExit(f"calc child failed with exit code {child['code']}")
    result = read_json(out)
    out.unlink()
    result["peak_rss_mb"] = child["peak_rss_mb"]
    return result


def reported_wall(run: Run, result: dict) -> float:
    """The in-process wall a child reported, at the reference speed."""
    return run.at_reference_speed(result["started"], result["started"] + result["wall_s"])


def is_escape(code) -> bool:
    """A query fails when an exception escapes or the exit code is not 0, 1 or 2."""
    return not isinstance(code, int) or code not in (0, 1, 2)


def judge_calc(plan: dict, result: dict, digests: dict) -> dict:
    """Failed stream queries, probe escapes and every mismatch of one pass."""
    stream = plan["stream"]
    bad = set()
    problems = []
    for index, (code, digest) in enumerate(result["outcomes"]):
        key = stream[index]["key"]
        ref = digests.get(key)
        if is_escape(code):
            bad.add(index)
            problems.append(f"{key}: {code} escaped")
        elif ref is None or code != ref[0] or (code == 0 and digest != ref[1]):
            bad.add(index)
            problems.append(f"{key}: exit {code} digest {digest}, reference {ref}")
    for index, text in result["kept"].items():
        reason = calc_plan.oracle_mismatch(stream[int(index)], text)
        if reason:
            bad.add(int(index))
            problems.append(reason)
    probe_escapes = {}
    for probe, code in zip(plan["probes"], result["probes"]):
        if is_escape(code):
            probe_escapes[code] = probe_escapes.get(code, 0) + 1
        if code not in probe["allowed"]:
            problems.append(f"probe {probe['command']}: {code} not in {probe['allowed']}")
    return {"failed": len(bad), "probe_escapes": probe_escapes, "problems": problems}


def workload_calc(run: Run):
    plan, plan_path = write_calc_plan(run)
    digests = read_json(run.reference / "calc_digests.json")
    passes = []
    deadline = run.start + run.args.seconds
    while True:  # fresh one-pass children until the measuring time is used
        passes.append(calc_child(run, plan_path, trace=False))
        run.sample_setup(SETUP_BETWEEN)
        if time.perf_counter() >= deadline or run.args.trace:
            break
    judged = [judge_calc(plan, one, digests) for one in passes]
    attempted = len(plan["stream"]) * len(passes)
    failed = sum(j["failed"] for j in judged)
    probe_escapes = {}
    for j in judged:
        for code, count in j["probe_escapes"].items():
            probe_escapes[code] = probe_escapes.get(code, 0) + count
    probes = len(plan["probes"]) * len(passes)
    fail_frac = (failed + sum(probe_escapes.values())) / (attempted + probes)
    slowdowns = [run.slowdown(one["started"], one["started"] + one["wall_s"]) for one in passes]
    latencies_ms = [t * 1000 / s for one, s in zip(passes, slowdowns) for t in one["latencies"]]
    walls = [one["wall_s"] / s for one, s in zip(passes, slowdowns)]
    p99, pct, count = tail(latencies_ms)
    end_to_end = {
        "wall_s": statistics.median(walls),
        "ops_per_s": attempted / sum(walls),
        "p50_ms": statistics.median(latencies_ms),
        "p99_ms": p99,
        "peak_rss_mb": statistics.median(one["peak_rss_mb"] for one in passes),
        "rss_growth_mb": statistics.median(one["rss_growth_mb"] for one in passes),
        "setup_s": run.setup_s(),
    }
    problems = [p for j in judged for p in j["problems"]]
    notes = {
        "passes": len(passes),
        "raw_wall_s": [one["wall_s"] for one in passes],
        "slowdown": slowdowns,
        "queries_per_pass": len(plan["stream"]),
        "tail_percentile": pct,
        "tail_samples": count,
        "fail_frac": fail_frac,
        "probe_escapes": probe_escapes,
        "problems": problems[:20],
        "excluded": "no spec with a huge zn_multiplier modulus: the calculator has no "
                    "order cap, so it would allocate without bound and stall the run",
    }
    outcome = {"correct": not problems, "attempted": attempted, "failed": failed}
    if not run.args.trace:
        return outcome, end_to_end, notes, None

    traced = calc_child(run, plan_path, trace=True)
    traced_problems = judge_calc(plan, traced, digests)["problems"]
    outcome["correct"] = outcome["correct"] and not traced_problems
    notes["problems"] += [f"traced run: {p}" for p in traced_problems[:20]]
    by_command = {}
    for item, seconds_taken in zip(plan["stream"], passes[0]["latencies"]):
        by_command.setdefault(item["command"], []).append(seconds_taken * 1000 / slowdowns[0])
    layer_extra = {f"cli.{command}.p50_ms": statistics.median(samples)
                   for command, samples in by_command.items()}
    codes = [code for code, _ in traced["outcomes"]] + traced["probes"]
    layer_extra.update({
        "cli.tracebacks": sum(1 for code in codes if is_escape(code)),
        "trace.overhead_frac": reported_wall(run, traced) / walls[0] - 1,
        "fail_frac": fail_frac,
    })
    return outcome, end_to_end, notes, (traced["trace"], layer_extra, {})


# ---------------------------------------------------------------------------
# per-layer metrics


# Per-layer metrics a workload computes itself rather than from the trace.
REPORTED_BY_WORKLOAD = ("corpus.rings", "corpus.instances", "verifier.decided_ratio",
                        "verifier.undecided", "verifier.report_bytes")


def layer_metrics(names, snapshot: dict, extra: dict) -> dict:
    """Resolve every per-layer metric name against the trace snapshot.

    Names not computed by the workload itself follow three shapes:
    ``<layer>.self_s`` (self time summed over the layer), ``<layer>.<fn>.calls``
    and ``<layer>.<fn>.s`` (calls and inclusive time of one function), and
    ``<layer>.<fn>.hit_ratio`` (from its ``cache_info()``). A metric of a
    layer the workload never enters reads 0.
    """
    functions = snapshot["functions"]
    caches = snapshot["caches"]
    errors = snapshot["errors"]
    theorems = snapshot["theorem_seconds"]
    inclusive = {k: v["inclusive_s"] for k, v in functions.items()}
    hits = sum(c["hits"] for c in caches.values())
    lookups = hits + sum(c["misses"] for c in caches.values())
    derived = {
        "core.errors": sum(errors["core"].values()),
        "ideals.cap_exceeded": errors["ideals"].get("CapExceeded", 0),
        "corpus.ring_sweep_s": inclusive["corpus.corpus_rings"],
        "corpus.build_s": inclusive["corpus.generate_corpus"] - inclusive["corpus.corpus_rings"],
        "caches.entries": sum(c["currsize"] for c in caches.values()),
        "caches.hit_ratio": hits / lookups if lookups else 0.0,
        "repo.src_lines": src_lines(),
    }
    out = {}
    for name in names:
        if name in extra:
            out[name] = extra[name]
        elif name in derived:
            out[name] = derived[name]
        elif name.endswith(".p50_ms") or name in REPORTED_BY_WORKLOAD:
            out[name] = 0  # counted by the other workload only
        elif name.startswith("verifier.T"):
            out[name] = theorems.get(name.split(".")[1], 0.0)
        elif name.endswith(".self_s"):
            layer = name.split(".")[0]
            out[name] = sum(v["self_s"] for k, v in functions.items()
                            if k.startswith(layer + "."))
        elif name.endswith(".hit_ratio"):
            info = caches[name[: -len(".hit_ratio")]]
            total = info["hits"] + info["misses"]
            out[name] = info["hits"] / total if total else 0.0
        elif name.endswith(".calls"):
            out[name] = functions[name[: -len(".calls")]]["calls"]
        elif name.endswith(".s"):
            out[name] = inclusive[name[: -len(".s")]]
        else:
            raise KeyError(f"no rule computes the per-layer metric {name}")
    return out


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify_default", "calc_session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few queries and a four-instance corpus (self-tests)")
    parser.add_argument("--reference", default=None,
                        help="directory of reference digests (default perfbench/reference)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hyperring" / "cli.py").is_file():
        print(f"no hyperring sources under {SRC}: run from a full checkout", file=sys.stderr)
        return 2
    spec = read_json(ROOT / "BENCHMARK.json")
    run = Run(args)
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    try:
        run.start_probe()
        run.sample_setup(SETUP_FIRST)
        if args.workload == "verify_default":
            outcome, end_to_end, notes, traced = workload_verify(run)
        else:
            outcome, end_to_end, notes, traced = workload_calc(run)
    finally:
        run.stop_probe()
        shutil.rmtree(run.work, ignore_errors=True)

    meta = metadata(args.seed)
    if traced is None:
        wanted = spec["end_to_end"]
        values = end_to_end
    else:
        snapshot, extra, funnel = traced
        wanted = spec["per_layer"]
        values = layer_metrics([m["name"] for m in wanted], snapshot, extra)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    RESULTS.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"meta": meta, "workload": args.workload, "notes": notes,
              "end_to_end": end_to_end, "metrics": metrics, **outcome}
    if traced is not None:
        record["trace"] = snapshot
        if funnel:
            (RESULTS / f"{stem}-funnel.json").write_text(
                json.dumps(funnel, indent=1, sort_keys=True), encoding="utf-8")
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print("meta " + json.dumps(meta, sort_keys=True))
    print("notes " + json.dumps(notes, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(json.dumps({**outcome, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
