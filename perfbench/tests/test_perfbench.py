"""The benchmark's own tests: output form in smoke mode, and that each
correctness check fails on a corrupted answer.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from repro.query.parser import parse_query  # noqa: E402
from repro.query.semantics import evaluate  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run_bench(workload, trace, cwd=ROOT, seconds="0.2"):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", seconds,
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload,trace", [
    ("hot-cache", 0), ("cold-scan", 0), ("write-mix", 0), ("write-mix", 1)])
def test_output_form(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if trace:
        assert "tracing overhead" in done.stdout
        assert "cost spine" in done.stdout
    assert "speed probe" in done.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = run_bench("hot-cache", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert not done.stdout.strip()


# -- the oracle itself ------------------------------------------------------------


@pytest.fixture(scope="module")
def small():
    return workloads.Inputs("cold-scan", 5, smoke=True)


def test_oracle_agrees_with_definitional_semantics(small):
    """Two evaluators that share no code agree on every shape."""
    instance = workloads.loads_ldif(small.ldif, workloads.bench_schema())
    rng = random.Random(9)
    bases = sorted(small.model.entries)[::7]
    queries = [workloads.cold_shape(i, rng, bases) for i in range(30)]
    queries += [workloads.hot_shape(i, rng, bases) for i in range(24)]
    for query in queries:
        want = [str(e.dn) for e in evaluate(parse_query(oracle.render(query)), instance)]
        assert small.model.answer(query) == want, oracle.render(query)


# -- each check fails on a corrupted answer ------------------------------------------


def test_answer_checks_catch_corruption(small):
    query = next(q for q in small.pool if len(small.model.answer(q)) >= 3)
    good = small.model.answer(query)
    assert oracle.check_answer(good, good) == []
    dropped = good[:-1]
    extra = good + [next(dn for dn in small.model.entries if dn not in good)]
    unordered = [good[1], good[0]] + good[2:]
    duplicated = good[:1] + good
    for corrupted, complaint in [(dropped, "missing"), (extra, "extra"),
                                 (unordered, "order"), (duplicated, "order")]:
        problems = oracle.check_answer(corrupted, good)
        assert any(complaint in p for p in problems), (complaint, problems)


def test_acl_check_catches_unreadable_entry(small):
    query = next(q for q in small.pool if len(small.model.answer(q)) >= 2)
    good = small.model.answer(query)
    hidden = good[0]
    rules = oracle.Rules([("me", "", True, False), ("*", hidden, False, True)])
    visible = [dn for dn in good if dn != hidden]
    assert oracle.check_answer(visible, good, rules, "me") == []
    problems = oracle.check_answer(good, good, rules, "me")
    assert any("unreadable" in p for p in problems)


def test_contents_checks_catch_lost_and_changed_writes(tmp_path):
    inputs = workloads.Inputs("write-mix", 4, smoke=True)
    setup = workloads.Setup(inputs, str(tmp_path), 0)
    stream = inputs.stream()
    model = oracle.Directory(dict(inputs.model.entries))
    for op in stream.probe()[0][:6]:
        assert workloads.call(setup.svc, op, inputs.texts)[0]
        workloads.apply_to_model(model, op)
    assert checks.contents_problems(setup.svc, model, "now")[1] == []
    # A write the model holds but the directory lost, and a changed value.
    lost = oracle.Directory(dict(model.entries))
    lost.put("name=ghost, " + inputs.regions[0][0],
             {"name": ["ghost"], "objectClass": ["node"]})
    assert checks.contents_problems(setup.svc, lost, "now")[1]
    changed = oracle.Directory(dict(model.entries))
    dn = inputs.modifiable[0][0]
    changed.put(dn, dict(changed.entries[dn], kind=["omega"]))
    assert checks.contents_problems(setup.svc, changed, "now")[1]
    operations, problems = checks.durable_checks(inputs, setup, model)
    assert operations == 2 and problems == []


def test_replayed_answers_are_checked_per_version():
    """An answer that a write made stale is caught; a fresh one is not."""
    inputs = workloads.Inputs("write-mix", 6, smoke=True)

    def found():
        for index, query in enumerate(inputs.pool):
            before = inputs.model.answer(query)
            for dn in before:
                for kind in workloads.KINDS:
                    model = oracle.Directory(dict(inputs.model.entries))
                    workloads.apply_to_model(model, ("modify", dn, kind))
                    after = model.answer(query)
                    if after != before:
                        return index, ("modify", dn, kind), before, after
        raise AssertionError("no write changes any answer")

    index, write, before, after = found()

    class Entry:
        def __init__(self, dn):
            self.dn = dn

    def records(second):
        return [(("search", index), True, [Entry(dn) for dn in before]),
                (write, True, None),
                (("search", index), True, [Entry(dn) for dn in second])]

    assert checks.check_pass(inputs, records(after))[1] == []
    assert checks.check_pass(inputs, records(before))[1]
