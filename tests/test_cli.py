import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from metasub import cli, diag, search
from util import OVERFLOWING_TABLE, random_metric


def run(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = cli.main(argv + ["--out", str(out)])
    return code, out


def test_gen_analyze_solve_pipeline(tmp_path):
    code, inst = run(["gen", "metric-random", "--n", "8", "--seed", "5"], tmp_path, "inst.json")
    assert code == 0
    doc = json.loads(inst.read_text())
    assert doc["n"] == 8
    assert doc["metadata"]["sigma"] == 1.0

    code, rep = run(["analyze", str(inst)], tmp_path, "analyze.json")
    assert code == 0
    results = json.loads(rep.read_text())["results"]
    assert results["metric"]["semi_metric"]["sigma"] <= 1 + 1e-9
    assert results["gamma"]["gamma"] <= 1 + 1e-6
    assert results["classification"]["monotone"]
    assert all(c["passed"] is not False for c in results["lemmas"].values())

    code, rep = run(["solve", str(inst), "--with-opt"], tmp_path, "solve.json")
    assert code == 0
    payload = json.loads(rep.read_text())["results"]
    assert payload["chosen"]["value"] >= payload["matching_candidate"]["value"] - 1e-12
    assert payload["opt"]["ratio"] is None or payload["opt"]["ratio"] >= 1 - 1e-9


def test_gen_families_report_declared_parameters(tmp_path):
    _, inst = run(
        ["gen", "negtype-sqeuclid", "--n", "6", "--seed", "1"], tmp_path, "neg.json"
    )
    _, rep = run(["analyze", str(inst)], tmp_path, "negrep.json")
    res = json.loads(rep.read_text())["results"]
    assert res["metric"]["negative_type"]["holds"]
    assert res["metric"]["semi_metric"]["sigma"] <= 2 + 1e-6

    _, inst = run(
        ["gen", "semimetric-power", "--n", "6", "--power", "2", "--seed", "2"],
        tmp_path, "pow.json",
    )
    _, rep = run(["analyze", str(inst)], tmp_path, "powrep.json")
    res = json.loads(rep.read_text())["results"]
    assert res["metric"]["semi_metric"]["sigma"] <= 2 + 1e-6

    _, inst = run(["gen", "js-random", "--n", "6", "--seed", "3"], tmp_path, "js.json")
    _, rep = run(["analyze", str(inst)], tmp_path, "jsrep.json")
    res = json.loads(rep.read_text())["results"]
    assert res["metric"]["semi_metric"]["sigma"] <= 2 + 1e-6

    _, inst = run(["gen", "coverage-random", "--n", "6", "--seed", "4"], tmp_path, "cov.json")
    _, rep = run(["analyze", str(inst)], tmp_path, "covrep.json")
    res = json.loads(rep.read_text())["results"]
    assert res["classification"]["submodular"]
    assert res["gamma"]["vacuous"]

    # at the solver's size sigma of cubed distances stays within the declared
    # 2^(p-1) = 4, while the exhaustive diagnostics are skipped past --n-max
    _, inst = run(["gen", "semimetric-power", "--n", "62", "--power", "3", "--seed", "1"],
                  tmp_path, "pow62.json")
    _, rep = run(["analyze", str(inst)], tmp_path, "pow62rep.json")
    res = json.loads(rep.read_text())["results"]
    assert "skipped" in res
    assert res["metric"]["declared_sigma_delta"] <= 1e-9, res["metric"]

    # gamma <= 1 for a metric, with equality at S = {0}: B_0 = 0 and B_1 = A_01 = d(0, 1)
    _, inst = run(["gen", "metric-random", "--n", "16", "--seed", "1"], tmp_path, "m16.json")
    _, rep = run(["analyze", str(inst), "--n-max", "16"], tmp_path, "m16rep.json")
    g = json.loads(rep.read_text())["results"]["gamma"]
    assert g["gamma"] == 1.0 and not g["is_infinite"], g
    assert g["witness"] == {"S": [0], "i": 0, "j": 1}, g

    # the second-order witness names a k outside its pair and an S without i, j or k
    _, inst = run(["gen", "coverage-random", "--n", "16", "--seed", "1"], tmp_path, "c16.json")
    _, rep = run(["analyze", str(inst), "--n-max", "16"], tmp_path, "c16rep.json")
    w = json.loads(rep.read_text())["results"]["classification"]["witnesses"][
        "second_order_submodular"]
    assert w["k"] not in (w["i"], w["j"]) and not {w["i"], w["j"], w["k"]} & set(w["S"]), w


def test_roundtrip_digest_stable(tmp_path):
    _, inst = run(["gen", "metric-random", "--n", "6", "--seed", "9"], tmp_path, "inst.json")
    doc = json.loads(inst.read_text())
    assert cli.digest(doc) == cli.digest(json.loads(json.dumps(doc)))


def test_analyze_digest_covers_its_flags(tmp_path):
    _, inst = run(["gen", "metric-random", "--n", "6", "--seed", "9"], tmp_path, "inst.json")
    digests = {}
    for flags in (["--n-max", "14"], ["--n-max", "5"], ["--tolerance", "1e-6"], []):
        _, rep = run(["analyze", str(inst), *flags], tmp_path, "rep.json")
        digests[tuple(flags)] = json.loads(rep.read_text())["inputs_digest"]
    assert digests[()] == digests[("--n-max", "14")]  # the default n_max
    assert len(set(digests.values())) == 3


def test_solve_digest_covers_its_flags(tmp_path):
    _, inst = run(["gen", "metric-random", "--n", "6", "--seed", "9"], tmp_path, "inst.json")
    digests, reports = {}, {}
    for flags in (["--pivot", "first"], ["--epsilon", "0.5"], ["--epsilon", "0.5", "--with-opt"],
                  ["--with-opt"], []):
        _, rep = run(["solve", str(inst), *flags], tmp_path, "rep.json")
        reports[tuple(flags)] = rep.read_bytes()
        digests[tuple(flags)] = json.loads(reports[tuple(flags)])["inputs_digest"]
    assert digests[()] == digests[("--pivot", "first")]  # the default, and only, pivot
    assert reports[()] == reports[("--pivot", "first")]
    assert len(set(digests.values())) == 4


def test_the_one_parser_leaks_no_option_into_the_next_call(tmp_path):
    # main parses every call with the same cached parser
    assert cli.make_parser() is cli.make_parser()
    _, inst = run(["gen", "metric-random", "--n", "6", "--seed", "9"], tmp_path, "inst.json")
    _, with_opt = run(["solve", str(inst), "--with-opt", "--epsilon", "0.5"], tmp_path, "a.json")
    _, plain = run(["solve", str(inst)], tmp_path, "b.json")
    with_opt, plain = (json.loads(path.read_text()) for path in (with_opt, plain))
    assert "opt" in with_opt["results"] and "opt" not in plain["results"]
    sha = hashlib.sha256(inst.read_bytes()).hexdigest()
    assert plain["inputs_digest"] == cli.digest(
        {"instance_sha256": sha, "epsilon": search.DEFAULT_EPSILON, "pivot": "first",
         "with_opt": False})


def test_inputs_digest_hashes_the_instance_bytes_and_the_options(tmp_path):
    _, inst = run(["gen", "metric-random", "--n", "6", "--seed", "9"], tmp_path, "inst.json")
    sha = hashlib.sha256(inst.read_bytes()).hexdigest()
    _, rep = run(["solve", str(inst), "--epsilon", "0.5", "--with-opt"], tmp_path, "s.json")
    assert json.loads(rep.read_text())["inputs_digest"] == cli.digest(
        {"instance_sha256": sha, "epsilon": 0.5, "pivot": "first", "with_opt": True})
    _, rep = run(["analyze", str(inst), "--tolerance", "1e-6", "--n-max", "10"], tmp_path,
                 "a.json")
    assert json.loads(rep.read_text())["inputs_digest"] == cli.digest(
        {"instance_sha256": sha, "tolerance": 1e-6, "n_max": 10})


def test_verify_digest_covers_its_flags(tmp_path):
    digests = {}
    for flags in (["--samples", "20"], ["--samples", "2"], ["--seed", "3"], ["--n-max", "3"],
                  []):
        _, rep = run(["verify", "matroid", *flags], tmp_path, "rep.json")
        digests[tuple(flags)] = json.loads(rep.read_text())["inputs_digest"]
    _, rep = run(["verify", "matching"], tmp_path, "rep.json")
    digests["matching"] = json.loads(rep.read_text())["inputs_digest"]
    assert digests[()] == digests[("--samples", "20")]  # the default samples
    assert len(set(digests.values())) == 5
    assert digests[()] == cli.digest({"suite": "matroid", "samples": 20, "seed": 0,
                                      "n_max": diag.DEFAULT_N_MAX})


def test_solve_does_not_serialise_the_instance_again(tmp_path, monkeypatch):
    _, inst = run(["gen", "metric-random", "--n", "62", "--r", "20", "--seed", "1"], tmp_path,
                  "inst.json")
    serialised = []
    original = cli.canonical_json

    def recorded(doc):
        serialised.append(doc)
        return original(doc)

    monkeypatch.setattr(cli, "canonical_json", recorded)
    code, _ = run(["solve", str(inst)], tmp_path, "solve.json")
    assert code == 0
    assert serialised  # the options are still hashed
    assert not any(isinstance(doc, dict) and "instance" in doc for doc in serialised)


def test_reports_are_deterministic(tmp_path):
    _, inst = run(["gen", "metric-random", "--n", "7", "--seed", "11"], tmp_path, "inst.json")
    blobs = set()
    for rep in range(3):
        _, out = run(["solve", str(inst), "--with-opt"], tmp_path, f"s{rep}.json")
        blobs.add(out.read_bytes())
    assert len(blobs) == 1
    # so does coverage at the bitmask cap, whose unions are masked row sums
    _, inst = run(["gen", "coverage-random", "--n", "62", "--r", "20", "--seed", "1"], tmp_path,
                  "cov.json")
    blobs = {run(["solve", str(inst)], tmp_path, f"c{rep}.json")[1].read_bytes()
             for rep in range(2)}
    assert len(blobs) == 1


def test_epsilon_orders_iterations(tmp_path):
    _, inst = run(["gen", "metric-random", "--n", "9", "--seed", "13"], tmp_path, "inst.json")
    counts = {}
    for eps in ("0.5", "0.01"):
        _, out = run(["solve", str(inst), "--epsilon", eps], tmp_path, f"e{eps}.json")
        counts[eps] = json.loads(out.read_text())["results"]["iterations"]
    assert counts["0.01"] >= counts["0.5"]


def test_exit_code_validation_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["analyze", str(bad)]) == 2
    good_shape = tmp_path / "inconsistent.json"
    good_shape.write_text(json.dumps({
        "n": 3,
        "function": {"kind": "diversity", "distance": [[0, 1], [1, 0]]},
        "matroid": {"kind": "uniform", "r": 2},
    }))
    assert cli.main(["analyze", str(good_shape)]) == 2
    code, inst = run(["gen", "metric-random", "--n", "6", "--seed", "1"], tmp_path, "m.json")
    assert code == 0
    for tolerance in ("nan", "inf", "-inf", "-1e-9"):
        assert cli.main(["analyze", str(inst), f"--tolerance={tolerance}"]) == 2, tolerance
    assert run(["analyze", str(inst), "--tolerance", "0"], tmp_path, "a.json")[0] == 0
    # an epsilon for which 1 + epsilon/n^2 rounds to 1 is rejected before the search
    assert cli.main(["solve", str(inst), "--epsilon", "1e-20"]) == 2


@pytest.mark.parametrize("epsilon", ["inf", "-inf", "nan", "0"])
def test_epsilon_outside_positive_finite_exits_2(epsilon, tmp_path, capsys):
    _, inst = run(["gen", "metric-random", "--n", "6", "--seed", "1"], tmp_path, "inst.json")
    capsys.readouterr()
    code, out = run(["solve", str(inst), f"--epsilon={epsilon}"], tmp_path)
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: epsilon must be positive and finite") and err.count("\n") == 1


def test_solve_ends_on_a_js_instance_with_negative_distances(tmp_path, monkeypatch):
    # the document gen js-random --support 1 --n 9 --seed 2 wrote before the JS
    # clamp: -5.6e-17, a divergence rounded below zero, between the two kinds of
    # one-item draw (1.0 and 0.9999999999999999), else 0.0. Validation accepts
    # it, f is <= 0 on every set, and the search must end on a strict-JSON report
    monkeypatch.setattr(search, "DEFAULT_MAX_ITERATIONS", 1000)
    kind = np.isin(np.arange(9), [1, 6])
    D = np.where(kind[:, None] != kind[None, :], -5.551115123125782e-17, 0.0)
    inst = tmp_path / "js.json"
    inst.write_text(json.dumps({"n": 9, "function": {"kind": "diversity", "distance": D.tolist()},
                                "matroid": {"kind": "uniform", "r": 3}}))
    code, rep = run(["solve", str(inst)], tmp_path, "solve.json")
    assert code == 0
    assert _strict_results(rep)["iterations"] <= 3


def test_gen_js_random_writes_no_negative_distance(tmp_path):
    # one-item Dirichlet draws are 1.0 or 0.9999999999999999, whose divergence
    # rounds to -5.6e-17 unless clamped at zero
    code, inst = run(["gen", "js-random", "--n", "12", "--seed", "2", "--support", "1"],
                     tmp_path, "js.json")
    assert code == 0
    D = np.array(json.loads(inst.read_text())["function"]["distance"])
    assert D.min() == 0.0 and not np.signbit(D).any()


def test_exit_code_guard_error(tmp_path):
    code, inst = run(["gen", "metric-random", "--n", "21", "--seed", "1"], tmp_path, "big.json")
    assert code == 0
    assert cli.main(["solve", str(inst), "--with-opt", "--out", str(tmp_path / "x.json")]) == 3


@pytest.mark.parametrize("argv", [
    ["gen", "metric-random", "--n", "5"],
    ["analyze", "{inst}"],
    ["solve", "{inst}"],
    ["solve", "{inst}", "--with-opt"],
    ["verify", "matching", "--samples", "2"],
])
def test_an_unwritable_out_exits_2_with_one_error_line(argv, tmp_path, capsys):
    _, inst = run(["gen", "metric-random", "--n", "5", "--seed", "1"], tmp_path, "inst.json")
    capsys.readouterr()
    argv = [arg.format(inst=inst) for arg in argv]
    for out in (tmp_path, tmp_path / "missing" / "x.json"):
        assert cli.main(argv + ["--out", str(out)]) == 2
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.startswith("error: cannot write report: ")
        assert err.count("\n") == 1


class ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write fails as on a closed pipe.
    Its descriptor is a file of the test's own, which the CLI may redirect."""

    def __init__(self, fd: int):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    def fileno(self):
        return self.fd


def test_a_closed_stdout_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr("sys.stdout", ClosedPipe(fd))
        assert cli.main(["gen", "metric-random", "--n", "5"]) == 2
        # what stdout still buffers now goes to the null device at exit
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert capsys.readouterr().err == "error: cannot write report: [Errno 32] Broken pipe\n"


def test_a_failed_allocation_exits_3_with_one_guard_line(monkeypatch, capsys):
    # raised, not allocated: whether a huge request fails at once depends on the host
    def euclidean(points):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(cli.metric, "euclidean", euclidean)
    assert cli.main(["gen", "metric-random", "--n", "5"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == "guard: out of memory: Unable to allocate 745. GiB for an array\n"


def test_exit_code_property_failure(tmp_path, monkeypatch):
    # a suite checks one trial; the one loop in cmd_verify tags each failure with it
    monkeypatch.setitem(cli.SUITES, "matching", (lambda rng, t, n: [{"bad": t}] * (t % 2), 6))
    code, out = run(["verify", "matching", "--samples", "4"], tmp_path, "v.json")
    assert code == 4
    assert json.loads(out.read_text())["results"]["failures"] == [
        {"trial": 1, "bad": 1}, {"trial": 3, "bad": 3}]


@pytest.mark.parametrize("n", [2, 7])
def test_verify_draws_the_distances_gen_writes(n):
    # the verify suites' diversities are gen's, so the two cannot drift apart
    seed = 11
    for kind, trials in (("metric-random", (0, 4)), ("negtype-sqeuclid", (1, 3))):
        args = cli.make_parser().parse_args(["gen", kind, "--n", str(n), "--seed", str(seed)])
        written = np.array(cli.generate(args)["function"]["distance"])
        for t in trials:
            drawn = cli._random_diversity(np.random.default_rng(seed), t, n).distance
            np.testing.assert_array_equal(drawn, written, err_msg=f"{kind} t={t}")


def test_verify_suites_pass(tmp_path):
    for suite, samples in (("matching", "15"), ("matroid", "10"), ("lemmas", "3")):
        code, out = run(
            ["verify", suite, "--samples", samples, "--seed", "7"], tmp_path, f"{suite}.json"
        )
        assert code == 0, suite
        assert json.loads(out.read_text())["results"]["passed"]


def test_verify_matroid_on_one_element(tmp_path):
    # every draw of the default 20 samples, the partition draws included
    code, out = run(["verify", "matroid", "--n-max", "1"], tmp_path)
    assert code == 0
    assert json.loads(out.read_text())["results"]["passed"]


@pytest.mark.parametrize("argv", [
    ["verify", "lemmas", "--samples", "-3"],
    ["verify", "matching", "--samples", "-1"],
    ["verify", "lemmas", "--n-max", "-1"],
    ["verify", "ratios", "--n-max", "0"],
    ["verify", "lemmas", "--seed", "-1"],
])
def test_verify_rejects_negative_counts(argv, tmp_path, capsys):
    out = tmp_path / "v.json"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert not out.exists()
    assert "must be at least" in capsys.readouterr().err


def test_analyze_rejects_a_negative_n_max(tmp_path, capsys):
    _, inst = run(["gen", "metric-random", "--n", "5", "--seed", "1"], tmp_path, "inst.json")
    out = tmp_path / "a.json"
    capsys.readouterr()
    assert cli.main(["analyze", str(inst), "--n-max", "-1", "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "error: --n-max must be at least 0, got -1\n"
    _, rep = run(["analyze", str(inst), "--n-max", "0"], tmp_path, "a.json")  # 0 always skips
    assert "skipped" in json.loads(rep.read_text())["results"]


def test_gen_rejects_negative_seed(capsys):
    assert cli.main(["gen", "metric-random", "--n", "5", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must be at least 0, got -1\n"


def test_unknown_generator_params_rejected(tmp_path):
    assert cli.main(["gen", "semimetric-power", "--n", "5", "--power", "0.5",
                     "--out", str(tmp_path / "x.json")]) == 2
    assert cli.main(["gen", "metric-random", "--n", "1",
                     "--out", str(tmp_path / "y.json")]) == 2


def test_unreadable_or_non_numeric_instance_exits_2(tmp_path, capsys):
    assert cli.main(["solve", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "non_numeric.json"
    bad.write_text(json.dumps({
        "n": 2,
        "function": {"kind": "diversity", "distance": [[0, "x"], ["x", 0]]},
        "matroid": {"kind": "uniform", "r": 1},
    }))
    assert cli.main(["solve", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 2
    assert "Traceback" not in err


def test_reports_follow_schema_v2(tmp_path):
    _, inst = run(["gen", "metric-random", "--n", "6", "--seed", "4", "--r", "3"], tmp_path,
                  "inst.json")
    for argv in (["analyze", str(inst)], ["solve", str(inst), "--with-opt"],
                 ["verify", "matching", "--samples", "2"]):
        code, out = run(argv, tmp_path, "report.json")
        assert code == 0, argv
        doc = json.loads(out.read_text())
        assert set(doc) == {"command", "inputs_digest", "results", "schema_version", "work"}
        assert doc["schema_version"] == 2
        if argv[0] == "analyze":
            assert "zero_denominators" not in doc["results"]["gamma"]


@pytest.mark.parametrize("argv", [
    ["solve", "inst.json", "--seed", "3"],
    ["solve", "inst.json", "--tolerance", "1e-9"],
    ["solve", "inst.json", "--n-max", "10"],
    ["solve", "inst.json", "--format", "csv"],
    ["gen", "metric-random", "--n", "5", "--tolerance", "1e-9"],
    ["gen", "metric-random", "--n", "5", "--n-max", "10"],
    ["verify", "matching", "--tolerance", "1e-9"],
    # generator sizes that would crash or write an instance no command accepts
    ["gen", "metric-random", "--n", "4", "--dim", "-1"],
    ["gen", "coverage-random", "--n", "4", "--universe", "-1"],
    ["gen", "metric-random", "--n", "70"],
    ["gen", "js-random", "--n", "4", "--support", "-1"],
    ["gen", "metric-random", "--n", "4", "--r", "-1"],
    ["solve", "inst.json", "--pivot", "best"],  # first-improvement is the only pivot rule
])
def test_removed_options_are_rejected(argv, capsys):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


def test_analyze_reads_the_instance_from_stdin(tmp_path, monkeypatch, capsys):
    _, inst = run(["gen", "metric-random", "--n", "6", "--seed", "8"], tmp_path, "inst.json")
    _, from_file = run(["analyze", str(inst)], tmp_path, "file.json")
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(inst.read_bytes())))
    assert cli.main(["analyze", "-"]) == 0
    assert capsys.readouterr().out == from_file.read_text()


@pytest.mark.parametrize("raw", [
    b"\x80{}",  # not UTF-8
    b"[" * 200000,  # nested past the recursion limit
    b'{"n": ' + b"9" * 5000 + b"}",  # past the int-string digit limit
], ids=["undecodable", "too-deep", "long-integer"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_unparsable_bytes_exit_2_with_one_error_line(raw, source, tmp_path, monkeypatch, capsys):
    path = tmp_path / "inst.json"
    path.write_bytes(raw)
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw)))
    assert cli.main(["solve", str(path) if source == "file" else "-"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: instance is not valid JSON: ")
    assert err.count("\n") == 1


def test_analyze_computes_gamma_and_classification_once(tmp_path, monkeypatch):
    _, inst = run(["gen", "metric-random", "--n", "7", "--seed", "6"], tmp_path, "inst.json")
    calls = []
    for name in ("gamma_parameter", "classify"):
        original = getattr(diag, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(diag, name, counted)
    code, _ = run(["analyze", str(inst)], tmp_path, "analyze.json")
    assert code == 0
    assert sorted(calls) == ["classify", "gamma_parameter"]


def _diversity_doc(D, weights=None, r=2):
    function = {"kind": "diversity", "distance": D}
    if weights is not None:
        function["weights"] = weights
    return {"n": len(D), "function": function, "matroid": {"kind": "uniform", "r": r}}


HUGE = [[0.0 if i == j else 1e308 for j in range(4)] for i in range(4)]
# every 5-element set is worth 1e308, so the second differences at a 4-element
# base are finite and the matching's total of them is not
FIVES = [1e308 if mask.bit_count() == 5 else mask.bit_count() + 0.001 * mask for mask in range(64)]


@pytest.mark.parametrize("doc, solve_code", [
    (_diversity_doc(HUGE), 2),  # the total overflows
    ({"n": 2, "function": {"kind": "coverage", "incidence": [[0], [1]],
                           "universe_weights": [1e308, 1e308]},
      "matroid": {"kind": "uniform", "r": 2}}, 2),
    (_diversity_doc([[0.0, 0.0], [0.0, 0.0]], weights=[0.0, 1e308], r=0), 0),  # the bound
    ({"n": 3, "function": {"kind": "table",
                           "values": [0, 1e308, -1e308, 1e308, 1e308, -1e308, 1e308, 1e308]},
      "matroid": {"kind": "uniform", "r": 2}}, 2),  # the differences
    ({"n": 6, "function": {"kind": "table", "values": FIVES},
      "matroid": {"kind": "uniform", "r": 4}}, 2),  # the matching total
], ids=["diversity-total", "coverage-total", "analyze-slack", "table", "matching-total"])
def test_overflowing_instances_exit_2_without_a_report(doc, solve_code, tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    for command, code in (("solve", solve_code), ("analyze", 2)):
        out = tmp_path / f"{command}.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # stderr holds the error line and nothing else
            assert cli.main([command, str(inst), "--out", str(out)]) == code, command
        err = capsys.readouterr().err
        if code == 0:
            json.loads(out.read_text(), parse_constant=lambda name: pytest.fail(name))
        else:
            assert not out.exists()
            assert err.startswith("error: ") and err.count("\n") == 1, (command, err)


def _strict_results(out):
    return json.loads(out.read_text(), parse_constant=lambda name: pytest.fail(name))["results"]


def test_analyze_power_document_has_infinite_gamma(tmp_path):
    # marginals of 1 beside distances of 1e154: the zero rule's tolerance is
    # 1e-12 max|f|, 2e142 here, so B_i + B_j = 1 counts as zero under a positive A_ij
    doc = _diversity_doc([[0.0, 0.0, 1.0], [0.0, 0.0, 1e154], [1.0, 1e154, 0.0]], r=0)
    assert diag.gamma_parameter(cli.parse_instance(doc)[0]).is_infinite
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    for command in ("solve", "analyze"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run([command, str(inst)], tmp_path, f"{command}.json")
        assert code == 0, command
        results = _strict_results(out)
    assert results["gamma"]["is_infinite"]  # the analyze report


def test_analyze_bounds_by_zero_a_derivative_within_the_zero_rule(tmp_path):
    # f(S + 0) is f(S) less 5e-13, within tol = 1e-12: the directional derivative
    # at 1_R is a negative residue, which times the infinite cap 2^(4 * 499) was -inf
    values = [0, -5e-13, 1e-3, 1e-3 - 5e-13, 1e-3, 1e-3 - 5e-13, 1, 1 - 5e-13]
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"n": 3, "function": {"kind": "table", "values": values},
                                "matroid": {"kind": "uniform", "r": 2}}))
    code, out = run(["analyze", str(inst)], tmp_path)
    assert code == 0
    results = _strict_results(out)
    assert results["gamma"]["gamma"] == 499.0
    assert [check["passed"] for check in results["lemmas"].values()] == [True] * 6


@pytest.mark.parametrize("kind", ["metric-random", "semimetric-power", "negtype-sqeuclid",
                                  "js-random"])
def test_analyze_does_not_depend_on_a_power_of_two_scale(kind, tmp_path):
    # sigma and gamma are ratios and each zero test scales with what it compares,
    # so D times 2^k (k even, so that the roots scale exactly too) keeps every
    # verdict and witness; the values reported scale by 2^k
    def analyze(doc, k):
        doc = dict(doc, function=dict(doc["function"],
                                      distance=np.ldexp(doc["function"]["distance"], k).tolist()))
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(doc))
        assert run(["analyze", str(inst)], tmp_path)[0] == 0
        results = _strict_results(tmp_path / "out.json")
        metric, cls = results["metric"], results["classification"]
        top = metric["negative_type"].pop("top_eigenvalue")
        for witness in cls["witnesses"].values():
            for key in set(witness) & {"A", "B", "delta"}:
                witness[key] = math.ldexp(witness[key], -k)
        return top, (metric, results["gamma"], cls)

    for n in (3, 6, 9):
        for seed in (0, 1):
            _, inst = run(["gen", kind, "--n", str(n), "--seed", str(seed)], tmp_path, "gen.json")
            doc = json.loads(inst.read_text())
            top, want = analyze(doc, 0)
            for k in (20, 60):
                got_top, got = analyze(doc, k)
                assert got == want, (n, seed, k)
                assert math.ldexp(got_top, -k) == pytest.approx(top, abs=1e-12 * n), (n, seed, k)


def test_analyze_carries_a_gamma_whose_power_passes_the_float_range(tmp_path):
    # gamma = 1000, so 2^(4 gamma) is +inf: the gradient-growth bound holds
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(_diversity_doc([[0, 0, 1], [0, 0, 1000], [1, 1000, 0]])))
    code, out = run(["analyze", str(inst)], tmp_path)
    assert code == 0
    results = _strict_results(out)
    assert results["gamma"]["gamma"] == 1000.0
    assert all(check["passed"] for check in results["lemmas"].values()), results["lemmas"]
    assert len(results["lemmas"]) == 6


def test_analyze_refuses_a_table_past_the_bound(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"n": 5, "function": {"kind": "table", "values": OVERFLOWING_TABLE},
                                "matroid": {"kind": "uniform", "r": 2}}))
    code, out = run(["analyze", str(inst)], tmp_path)
    assert code == 2 and not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("error: the instance's magnitudes overflow floating point: ")
    # without the exhaustive diagnostics no value table is built, and no bound applies
    assert run(["analyze", str(inst), "--n-max", "4"], tmp_path)[0] == 0


MATROIDS = {
    "uniform": {"kind": "uniform", "r": 2},
    "partition": {"kind": "partition", "blocks": [[0, 1], [2]], "caps": [1, 1]},
    "graphic": {"kind": "graphic", "vertices": 3, "edges": [[0, 1], [1, 2], [2, 0]]},
}


def _small_doc(matroid="uniform", **changes):
    """A valid 3-element coverage instance with the named entries replaced."""
    doc = {"n": 3, "function": {"kind": "coverage", "incidence": [[0], [1], [0, 1]],
                                "universe_weights": [1.0, 2.0]},
           "matroid": dict(MATROIDS[matroid])}
    for key, value in changes.items():
        next(d for d in (doc, doc["function"], doc["matroid"]) if key in d)[key] = value
    return doc


@pytest.mark.parametrize("doc", [
    _small_doc(n=3.5),
    _small_doc(n=3.0),
    _small_doc(r=1.9),
    _small_doc(r=True),
    _small_doc(r="2"),
    _small_doc("partition", caps=[1.5, 1]),
    _small_doc("partition", blocks=[[0, 1.0], [2]]),
    _small_doc("graphic", vertices=3.7),
    _small_doc("graphic", edges=[[0, 1.5], [1, 2], [2, 0]]),
    _small_doc("graphic", edges=[[0, 1], [1, False], [2, 0]]),
    _small_doc(incidence=[[0.0], [1], [0, 1]]),
], ids=["n", "n-float", "r", "r-bool", "r-string", "caps", "block-element", "vertices",
        "edge", "edge-bool", "incidence-item"])
def test_non_integer_counts_and_indices_exit_2(doc, tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    for command in ("solve", "analyze"):
        out = tmp_path / f"{command}.json"
        assert cli.main([command, str(inst), "--out", str(out)]) == 2, command
        assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("must be an integer") == 2 and "Traceback" not in err


@pytest.mark.parametrize("doc", [
    _small_doc(incidence=[[0], [1], {}]),
    _small_doc(incidence=[[0], [1], ""]),
    _small_doc("partition", blocks=[[0, 1, 2], {}]),
    _small_doc("partition", blocks=[[0, 1, 2], ""]),
], ids=["incidence-object", "incidence-string", "block-object", "block-string"])
@pytest.mark.parametrize("command", ["solve", "analyze"])
def test_an_entry_that_is_not_an_array_exits_2_with_one_error_line(command, doc, tmp_path,
                                                                   capsys):
    # an empty object or string would iterate as no items: an empty set
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert cli.main([command, str(inst), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "must be an array" in err, err


def test_a_nested_table_exits_2_with_one_error_line(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"n": 1, "function": {"kind": "table", "values": [[0], [1]]},
                                "matroid": {"kind": "uniform", "r": 1}}))
    for command in ("analyze", "solve"):
        out = tmp_path / f"{command}.json"
        assert cli.main([command, str(inst), "--out", str(out)]) == 2, command
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: table values must be a flat list, got shape (2, 1)"], err


def test_analyze_reads_the_matrix_that_f_sums(tmp_path):
    # asymmetric and on the diagonal within 9e-13, with one pair at -5e-13: the
    # whole report is that of the twin with the upper triangle mirrored
    rng = np.random.default_rng(8)
    D = random_metric(rng, 8) + rng.random((8, 8)) * 9e-13
    D[1, 6] = D[6, 1] = -5e-13
    twin = np.triu(D, 1) + np.triu(D, 1).T
    results = []
    for name, matrix in (("raw", D), ("twin", twin)):
        inst = tmp_path / f"{name}.json"
        inst.write_text(json.dumps(_diversity_doc(matrix.tolist(), r=3)))
        code, out = run(["analyze", str(inst)], tmp_path, f"{name}-report.json")
        assert code == 0
        results.append(_strict_results(out))
    assert results[0] == results[1]


def test_analyze_takes_the_root_of_an_accepted_negative_as_zero(tmp_path):
    # sqrt(1) > sqrt(0) + sqrt(0.1); a NaN root at -5e-13 passed every triangle
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(_diversity_doc([[0, -5e-13, 1], [-5e-13, 0, 0.1], [1, 0.1, 0]])))
    code, out = run(["analyze", str(inst)], tmp_path)
    assert code == 0
    assert _strict_results(out)["metric"]["sqrt_metric"] == {"holds": False, "witness": [0, 2, 1]}


def test_analyze_a_single_element_instance(tmp_path):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(_diversity_doc([[0.0]], r=1)))
    code, out = run(["analyze", str(inst)], tmp_path)
    assert code == 0
    lemmas = json.loads(out.read_text())["results"]["lemmas"]
    assert lemmas["marginal_sum_bound"]["passed"] is None


@pytest.mark.parametrize("matroid, key, raw, says", [
    ("uniform", "n", "9" * 400, "ground set size"),
    ("partition", "blocks", "[[" + "[" * 900 + "]" * 900 + ", 1], [2]]", "must be an integer"),
    ("graphic", "edges", "[[0, " + "9" * 400 + "], [1, 2], [2, 0]]", "unknown vertex"),
    # block elements outside [0, n) or not integers, which the partition matroid rejects
    ("partition", "blocks", "[[0, 1], [3]]", "densely"),
    ("partition", "blocks", "[[0, 1], [-1]]", "densely"),
    ("partition", "blocks", f"[[0, 1], [{10**9}]]", "densely"),
    ("partition", "blocks", "[[0, 1], [1.5]]", "must be an integer"),
    ("partition", "blocks", "[[0, 1], [true]]", "must be an integer"),
    # an element listed twice, across blocks or within one
    ("partition", "blocks", "[[0, 1], [1]]", "listed twice"),
    ("partition", "blocks", "[[0, 0], [1]]", "listed twice"),
], ids=["400-digit-n", "900-deep-block-element", "400-digit-edge-endpoint", "block-element-n",
        "block-element-negative", "block-element-1e9", "block-element-fraction",
        "block-element-bool", "block-element-repeated-across", "block-element-repeated-within"])
def test_error_lines_truncate_the_offending_value(matroid, key, raw, says, tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps(_small_doc(matroid, **{key: "VALUE"})).replace('"VALUE"', raw))
    for command in ("solve", "analyze"):
        out = tmp_path / f"{command}.json"
        assert cli.main([command, str(inst), "--out", str(out)]) == 2, command
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) <= 200, err
        assert says in err


def test_a_distance_error_lists_ten_violations_and_counts_the_rest(tmp_path, capsys):
    rng = np.random.default_rng(0)
    D = rng.random((62, 62))  # every diagonal cell and every pair is a violation
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"n": 62, "function": {"kind": "diversity", "distance": D.tolist()},
                                "matroid": {"kind": "uniform", "r": 20}}))
    out = tmp_path / "solve.json"
    assert cli.main(["solve", str(inst), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err.encode()) <= 1000, err
    assert err.count("nonzero diagonal at") == 10
    assert err.endswith(f"; and {62 + 62 * 61 // 2 - 10} more\n"), err


@pytest.mark.parametrize("power", ["nan", "inf"])
def test_non_finite_power_exits_2(power, tmp_path, capsys):
    out = tmp_path / "inst.json"
    argv = ["gen", "semimetric-power", "--n", "5", "--power", power, "--out", str(out)]
    assert cli.main(argv) == 2
    assert not out.exists()
    assert "--power must be a finite number at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("power", ["1025", "1e308"])
def test_a_power_whose_sigma_overflows_exits_2_with_one_line(power, tmp_path, capsys):
    # the declared sigma 2^(power - 1) passes the float range, and the report refuses it
    out = tmp_path / "inst.json"
    argv = ["gen", "semimetric-power", "--n", "4", "--power", power, "--out", str(out)]
    assert cli.main(argv) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "(34," not in err, err
    assert "not JSON compliant: inf" in err


def test_every_command_runs_without_scipy(tmp_path):
    # a fresh interpreter in which any import of scipy fails
    inst = str(tmp_path / "inst.json")
    out = ["--out", str(tmp_path / "report.json")]
    argvs = [
        ["gen", "metric-random", "--n", "12", "--seed", "1", "--out", inst],
        ["analyze", inst, *out],
        ["solve", inst, *out],
        *(["verify", suite, "--samples", "2", *out]
          for suite in ("matching", "matroid", "ratios", "lemmas", "smoothness")),
    ]
    script = ("import json, sys\n"
              "sys.modules['scipy'] = None\n"
              "from metasub import cli\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert cli.main(argv) == 0, argv\n")
    src = Path(cli.__file__).resolve().parents[1]
    subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                   env={**os.environ, "PYTHONPATH": str(src)}, check=True)
