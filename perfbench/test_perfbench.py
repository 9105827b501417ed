"""Self-tests of the benchmark, on the smoke sizes:

    python3 -m pytest perfbench -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

WORKLOADS = sorted(workloads.BUILDERS)
COUNTS = ("translate.clauses", "engines.extensions", "logic.minimal_models_calls",
          "logic.reduct_candidates", "logic.unsat_calls")


def smoke(workload, seed, trace=True):
    ops = 12 if workload == "cli" else 24
    return run.run_workload(workload, seed, ops=ops, trace=trace, size="smoke")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_same_answers_and_counts(workload):
    first, second = smoke(workload, 5), smoke(workload, 5)
    assert [(r.op, r.answer) for r in first.results] == [(r.op, r.answer) for r in second.results]
    assert {k: first.counts.get(k) for k in COUNTS} == {k: second.counts.get(k) for k in COUNTS}
    assert first.counts.get("translate.clauses", 0) > 0
    assert first.correct and first.failed == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_changes_every_instance(workload):
    one, two = workloads.build(workload, 1, "smoke"), workloads.build(workload, 2, "smoke")
    assert len(one.instances) == len(two.instances)
    for i in range(len(one.instances)):
        assert one.text(i) != two.text(i)


def test_checker_rejects_a_wrong_answer():
    pkg = run.import_package()
    plan = workloads.build("enumerate", 1, "smoke")
    runner = run.Runner(pkg, plan, run.WORK)
    checker = run.Checker(pkg, plan, run.Reference(pkg))
    for op in plan.cycle[:4]:
        answer = runner.run(op)
        right, wrong = run.Result(op, 0.0, 0.0, answer), run.Result(op, 0.0, 0.0, answer[1:])
        checker(right)
        checker(wrong)
        assert right.verdict is None and not right.wrong
        assert wrong.wrong and wrong.answer != right.answer


def test_result_line_has_the_required_keys():
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert run.main(["--workload", "decide", "--seed", "1", "--ops", "8",
                         "--size", "smoke", "--trace", "0"]) == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.BUILDERS)


def test_fails_without_the_package_sources():
    bare = run.WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "search", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert proc.stdout == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)
