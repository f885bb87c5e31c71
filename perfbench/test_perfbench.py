"""Self-tests of the benchmark: python3 -m pytest -q perfbench/test_perfbench.py"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calc_plan  # noqa: E402
import child  # noqa: E402
import run as bench  # noqa: E402
import speed  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench_run(workload, trace=0, extra=(), cwd=bench.ROOT, script=HERE / "run.py"):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["verify_default", "calc_session"])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result = last_json(bench_run(workload, trace, ["--tiny"]))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] != 0, metric["name"]


def _corrupted_reference(tmp_path: Path) -> Path:
    ref = tmp_path / "reference"
    shutil.copytree(HERE / "reference", ref)
    digests = json.loads((ref / "calc_digests.json").read_text(encoding="utf-8"))
    (ref / "calc_digests.json").write_text(
        json.dumps({key: [code, "0" * 16] for key, (code, _) in digests.items()}),
        encoding="utf-8")
    verify = json.loads((ref / "verify.json").read_text(encoding="utf-8"))
    verify["tiny"]["sha256"] = "0" * 64
    (ref / "verify.json").write_text(json.dumps(verify), encoding="utf-8")
    return ref


@pytest.mark.parametrize("workload", ["verify_default", "calc_session"])
def test_wrong_reference_digest_counts_as_failure(workload, tmp_path):
    ref = _corrupted_reference(tmp_path)
    result = last_json(bench_run(workload, 0, ["--tiny", "--reference", str(ref)]))
    assert result["correct"] is False
    assert result["failed"] >= 1


@pytest.mark.parametrize("command", ["quotient", "product"])
@pytest.mark.parametrize("code, text", [("ValueError", ""), (1, "invalid: not an ideal\n")])
def test_failed_oracle_checked_query_counts_as_failed(command, code, text):
    digests = json.loads((HERE / "reference" / "calc_digests.json").read_text(encoding="utf-8"))
    plan = calc_plan.make_plan(3)
    index = next(i for i, item in enumerate(plan["stream"])
                 if item["command"] == command and item["check"] is not None)
    outcomes = [digests[item["key"]] for item in plan["stream"]]
    probes = [probe["allowed"][0] for probe in plan["probes"]]
    passing = {"outcomes": outcomes, "kept": {}, "probes": probes}
    assert bench.judge_calc(plan, passing, digests)["failed"] == 0
    outcomes[index] = [code, child.digest(text)]
    judged = bench.judge_calc(plan, {"outcomes": outcomes, "kept": {str(index): text},
                                     "probes": probes}, digests)
    assert judged["failed"] == 1


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work"))
    done = bench_run("calc_session", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_tail_keeps_ten_samples_beyond_it():
    value, pct, count = bench.tail(list(range(1, 51)))
    assert (value, count) == (40, 50) and pct == 80.0
    value, pct, _ = bench.tail(list(range(2000)))
    assert pct == 99.0 and value == 1979
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)  # too few: the maximum


def test_plan_is_deterministic_and_drawn_from_the_recorded_universe():
    digests = json.loads((HERE / "reference" / "calc_digests.json").read_text(encoding="utf-8"))
    plan = calc_plan.make_plan(11)
    assert plan == calc_plan.make_plan(11)
    assert plan != calc_plan.make_plan(12)
    assert all(item["key"] in digests for item in plan["stream"])
    rings = [item["specs"][0] for item in plan["stream"]]
    assert len(set(rings)) * 5 < len(rings)  # each pooled ring recurs


def test_oracle_knows_small_residue_rings():
    # Z6 with ordinary multiplication: 2Z6 and 3Z6 are prime, 0 is not.
    assert calc_plan.oracle_answer(6, [1], ("classify", 2, None)) == {"prime": True}
    assert calc_plan.oracle_answer(6, [1], ("classify", 6, None)) == {"prime": False}
    assert calc_plan.oracle_answer(8, [1], ("nil", None)) == {"nilradical": [0, 2, 4, 6]}


def test_tracer_charges_an_exception_to_one_layer():
    sys.path.insert(0, str(bench.SRC))
    import hyperring.cli  # noqa: F401
    from hyperring import core
    from hyperring.errors import BadModulus

    tracer = Tracer()
    try:
        tracer.install()
        with pytest.raises(BadModulus):
            core.make_zn_multiplier_ring(1, [1])
        snap = tracer.snapshot()
    finally:  # forget the patched modules
        for name in [m for m in sys.modules if m == "hyperring" or m.startswith("hyperring.")]:
            del sys.modules[name]
    assert snap["functions"]["core.make_zn_multiplier_ring"]["errors"] == 1
    assert snap["errors"]["core"] == {"BadModulus": 1}
    assert snap["functions"]["core.validate_structure"]["calls"] == 0


def test_slowdown_weighs_windows_and_ignores_a_preempted_loop():
    ref = speed.REFERENCE_S
    fast = [(i * 0.025, ref) for i in range(40)]           # one second at the reference speed
    slow = [(1 + i * 0.025, 2 * ref) for i in range(40)]   # one second at half of it
    slow[5] = (slow[5][0], 50 * ref)                       # one loop preempted
    assert speed.slowdown(fast + slow, 0.0, 2.0) == pytest.approx(1.5)
    assert speed.slowdown(fast + slow, 1.0, 2.0) == pytest.approx(2.0)
    # An interval shorter than a few samples is widened until it holds them.
    assert speed.slowdown(fast, 0.5, 0.501) == pytest.approx(1.0)
