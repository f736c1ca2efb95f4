"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest bench -q
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run
from checks import Instance, _swap_values, check_report, local_opt_violations, set_value
from workloads import WORKLOADS, generate

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny_run(name: str, trace: bool = False, spans_dir=None) -> dict:
    return run.run_workload(name, seed=3, seconds=0.05, trace=trace, scale="tiny",
                            spans_dir=spans_dir)["result"]


def first_instance(name: str, seed: int, scale: str = "full") -> Instance:
    return Instance.from_doc(json.loads(next(generate(WORKLOADS[name], seed, scale))))


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_smoke_run_has_no_errors(name, tmp_path):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = tiny_run(name, trace, tmp_path)
        assert result["correct"], result
        assert result["failed"] == 0 and result["attempted"] >= 3
        assert set(result["metrics"]) == {m["name"] for m in SPEC[kind]}
        for m in SPEC[kind]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert (tmp_path / f"spans-{name}.npz").is_file()


def test_inputs_depend_only_on_the_seed():
    for name in WORKLOADS:
        pair = list(itertools.islice(generate(WORKLOADS[name], 5), 2))
        assert pair == list(itertools.islice(generate(WORKLOADS[name], 5), 2))
        assert pair[0] != pair[1]
        assert pair[0] != next(generate(WORKLOADS[name], 6))


def test_graphic_instances_are_connected_with_girth_three():
    inst = first_instance("solve-cov-graphic", 4)
    edges = inst.edges
    assert len(set(edges)) == len(edges) == inst.n
    adj = {v: set() for v in range(inst.vertices)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    assert any(adj[u] & adj[v] for u, v in edges)  # a triangle
    seen, todo = {0}, [0]
    while todo:
        for v in adj[todo.pop()] - seen:
            seen.add(v)
            todo.append(v)
    assert len(seen) == inst.vertices


def _perturb_value(doc):
    doc["results"]["chosen"]["value"] += 1.0


def _inject_nan(doc):
    doc["results"]["chosen"]["value"] = float("nan")


def _fail_a_lemma(doc):
    doc["results"]["lemmas"]["discrete_integral"]["passed"] = False


@pytest.mark.parametrize("name, corrupt", [
    ("solve-div-uniform", _perturb_value),
    ("solve-cov-graphic", _inject_nan),
    ("analyze-div-exact", _fail_a_lemma),
])
def test_corrupted_reports_count_as_errors(name, corrupt, monkeypatch):
    cli = run.load_program()["cli"]
    emit = cli.emit

    def corrupted_emit(doc, args):
        corrupt(doc)
        emit(doc, args)

    monkeypatch.setattr(cli, "emit", corrupted_emit)
    result = tiny_run(name)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_a_missing_report_is_an_error(monkeypatch):
    cli = run.load_program()["cli"]
    monkeypatch.setattr(cli, "emit", lambda doc, args: None)
    result = tiny_run("analyze-div-large")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_a_report_that_changes_between_repeats_is_an_error(monkeypatch):
    cli = run.load_program()["cli"]
    emit = cli.emit
    counter = itertools.count()

    def drifting_emit(doc, args):
        doc["results"]["drift"] = next(counter)
        emit(doc, args)

    monkeypatch.setattr(cli, "emit", drifting_emit)
    result = tiny_run("solve-div-uniform")
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]


def test_certificate_rejects_a_set_that_is_not_locally_optimal():
    inst = first_instance("solve-div-uniform", 2, "tiny")
    n, r = inst.n, inst.r
    worst = min(itertools.combinations(range(n), r), key=lambda S: set_value(inst, list(S)))
    assert local_opt_violations(inst, list(worst), 0.1) > 0
    report = {"results": {
        "chosen": {"S": list(worst), "value": set_value(inst, list(worst))},
        "local_search": {"S": list(worst), "value": set_value(inst, list(worst))},
        "matching_candidate": {"S": [], "value": 0.0},
    }}
    problems = check_report(inst, "solve", json.dumps(report), 0.1)
    assert any("certificate" in p for p in problems)


def test_coverage_swap_values_match_direct_evaluation():
    inst = first_instance("solve-cov-graphic", 1, "tiny")
    S = [0, 2, 3]
    out = [j for j in range(inst.n) if j not in S]
    fast = _swap_values(inst, S, out)
    for a, i in enumerate(S):
        for b, j in enumerate(out):
            swapped = [e for e in S if e != i] + [j]
            assert np.isclose(fast[a, b], set_value(inst, swapped), rtol=1e-12)


def test_run_without_program_source_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", ".work-*"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve-div-uniform", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
