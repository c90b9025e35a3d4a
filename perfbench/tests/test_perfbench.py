"""Tests of the benchmark itself: oracle, input generation, tracer, compare.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import json
import sys
import time

import numpy as np
import pytest

import run
import tracer
import workloads as wl

SMALL = wl.WORKLOADS["boot-small"]


def _report(code, stdout):
    return {"code": code, "stdout": stdout, "setup_s": 0.4, "wall_s": 2.0,
            "cpu_s": 2.0, "peak_rss_mb": 60.0}


def _expected(workload, seed=wl.DEFAULT_SEED):
    return wl.expected_for(wl.generate(workload, seed))


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_golden_output_passes_every_check(name):
    workload = wl.WORKLOADS[name]
    golden = wl.golden_path(workload).read_text()
    code = 3 if json.loads(golden).get("reject") else 0
    report = _report(code, golden)
    assert run.check(workload, _expected(workload), wl.DEFAULT_SEED, report, golden) == []


def test_golden_check_fails_on_one_digit_perturbation():
    golden = wl.golden_path(SMALL).read_text()
    line = next(l for l in golden.splitlines() if '"var_gof"' in l)
    digit = next(c for c in line if c.isdigit())
    bumped = line.replace(digit, str((int(digit) + 1) % 10), 1)
    perturbed = golden.replace(line, bumped)
    assert wl.check_golden(SMALL, golden) == []
    problems = wl.check_golden(SMALL, perturbed)
    assert problems and "var_gof" in problems[0]


def test_oracle_catches_wrong_var_gof_without_golden():
    golden = json.loads(wl.golden_path(SMALL).read_text())
    golden["var_gof"] *= 1.0 + 1e-4
    code = 3 if golden["reject"] else 0
    problems = wl.check_output(SMALL, _expected(SMALL), code, json.dumps(golden))
    assert any("var_gof" in p for p in problems)


def test_injected_nonzero_exit_counts_as_failure():
    golden = wl.golden_path(SMALL).read_text()
    assert not json.loads(golden)["reject"]
    calls = []

    def invoker(argv, spans_path):
        calls.append(argv)
        time.sleep(0.01)
        return _report(2 if len(calls) == 2 else 0, golden)

    tally, *_ = run.run_workload(
        SMALL, wl.DEFAULT_SEED, 0.05, False, run.load_spec(), invoker=invoker
    )
    assert tally.attempted == len(calls) >= 3
    assert tally.failed == 1
    assert any("exit 2" in p for p in tally.problems[1])


def test_crashed_first_invocation_fails_only_itself():
    golden = wl.golden_path(SMALL).read_text()
    crashed = {"code": -1, "stdout": "", "error": "child exit 1: Traceback"}
    reports = [crashed, _report(0, golden), _report(0, golden)]
    tally = run.check_all(SMALL, _expected(SMALL), wl.DEFAULT_SEED, reports)
    assert [bool(p) for p in tally.problems] == [True, False, False]


def test_malformed_record_counts_as_failure():
    problems = wl.check_output(SMALL, _expected(SMALL), 0, json.dumps({"n": 200, "r": 3}))
    assert problems and "malformed" in problems[0]


def test_crashed_child_counts_as_failure():
    report = {"code": -1, "stdout": "", "error": "child exit 1: Traceback"}
    tally = run.Tally()
    tally.problems.append(run.check(SMALL, _expected(SMALL), 5, report, None))
    assert tally.failed == 1


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def test_workloads_are_those_of_benchmark_json():
    assert [w["name"] for w in run.load_spec()["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("name", ["boot-small", "boot-wide"])
def test_inputs_identical_for_a_seed(tmp_path, name):
    workload = wl.WORKLOADS[name]
    first, second = wl.generate(workload, 7), wl.generate(workload, 7)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    wl.write_csv(tmp_path / "a.csv", *first)
    wl.write_csv(tmp_path / "b.csv", *second)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert not np.array_equal(wl.generate(workload, 8)[0], first[0])


def test_csv_round_trips_exactly(tmp_path):
    y, x = wl.generate(SMALL, 3)
    wl.write_csv(tmp_path / "d.csv", y, x)
    table = np.loadtxt(tmp_path / "d.csv", delimiter=",", skiprows=1)
    assert np.array_equal(table, np.column_stack([y, x]))


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def _gofboot_namespaces():
    return {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if name.startswith("gofboot.")
    }


def test_traced_run_restores_every_attribute_and_keeps_output(tmp_path):
    from gofboot import cli

    workload = wl.WORKLOADS["boot-small"]
    wl.write_csv(tmp_path / "d.csv", *wl.generate(workload, 2))
    argv = ["test", "--data", str(tmp_path / "d.csv"), "--response", "y",
            "--covariates", "x1,x2", "--boot", "50", "--seed", "2", "--format", "json"]

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    untraced = call()
    before = _gofboot_namespaces()
    t = tracer.Tracer()
    t.install()
    try:
        bootstrap = sys.modules["gofboot.bootstrap"]
        assert bootstrap.least_squares is not before["gofboot.bootstrap"]["least_squares"]
        traced = call()
    finally:
        t.uninstall()
    after = _gofboot_namespaces()
    assert before.keys() == after.keys()
    for name, namespace in before.items():
        for attr, value in namespace.items():
            assert after[name][attr] is value, f"{name}.{attr} not restored"
    assert traced == untraced

    path = tmp_path / "spans.jsonl"
    t.write(path)
    spans = tracer.read_spans(path)
    table = tracer.layer_table(spans, run.LAYERS)
    assert table["cli.calls"] == 1
    assert table["bootstrap.calls"] == 1
    # 50 iterations, each one least_squares and one _sandwich_core call
    run_test = next(s["id"] for s in spans if s["layer"] == "bootstrap")
    inner = [s["name"] for s in spans if s["parent"] == run_test]
    assert inner.count("regression.least_squares") == 50
    assert inner.count("variance._sandwich_core") == 50
    assert (table["bootstrap.redraws"], table["bootstrap.useful_ratio"]) == (0, 1.0)
    total_self = sum(table[f"{layer}.self_s"] for layer in run.LAYERS)
    assert total_self == pytest.approx(table["trace.wall_s"], rel=1e-9)


def test_self_time_subtracts_direct_children():
    def span(i, parent, layer, start, end, **extra):
        return {"id": i, "parent": parent, "layer": layer, "start": start, "end": end,
                "cpu_start": start, "cpu_end": end, **extra}

    spans = [
        span(0, None, "cli", 0.0, 10.0),
        span(1, 0, "bootstrap", 1.0, 9.0, redraws=3, draws=9),
        span(2, 1, "regression", 2.0, 4.0),
        span(3, 1, "variance", 5.0, 6.0),
        span(4, 3, "regression", 5.2, 5.5),
    ]
    table = tracer.layer_table(spans, run.LAYERS)
    assert table["cli.self_s"] == pytest.approx(2.0)
    assert table["bootstrap.self_s"] == pytest.approx(5.0)
    assert table["variance.self_s"] == pytest.approx(0.7)
    assert table["regression.self_s"] == pytest.approx(2.3)
    assert table["regression.calls"] == 2
    assert table["bootstrap.redraws"] == 3
    assert table["bootstrap.useful_ratio"] == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# stamps and compare
# ---------------------------------------------------------------------------


def test_stamp_mismatch_ignores_code_fields_only():
    a = run.environment_stamp()
    b = dict(a, commit="other", dirty=True, src_digest="x")
    assert run.stamp_mismatch(a, b) == []
    c = dict(a, env=dict(a["env"], OPENBLAS_NUM_THREADS="1"))
    assert run.stamp_mismatch(a, c)


def test_compare_refuses_different_stamps(tmp_path, capsys):
    stamp = run.environment_stamp()
    for name, s in (("a", stamp), ("b", dict(stamp, nproc=stamp["nproc"] + 1))):
        rec = {"stamp": s, "workload": "boot-small", "seed": 1, "trace": 0,
               "started_at": 0.0, "attempted": 1, "failed": 0,
               "metrics": {m["name"]: 1.0 for m in run.load_spec()["end_to_end"]}}
        (tmp_path / f"{name}.jsonl").write_text(json.dumps(rec) + "\n")
    assert run.compare(tmp_path / "a.jsonl", tmp_path / "b.jsonl", run.load_spec()) == 2
    assert "refusing" in capsys.readouterr().out


@pytest.mark.parametrize(
    "base, head, wins, want",
    [
        ([10.0] * 5 + [10.2] * 5, [8.0] * 10, 10, "improved"),
        ([10.0] * 5 + [10.2] * 5, [12.0] * 10, 0, "regressed"),
        ([10.0] * 5 + [10.2] * 5, [10.1] * 10, 5, "within bound"),
        ([5.0] * 5 + [15.0] * 5, [10.0] * 10, 5, "unresolved"),
    ],
)
def test_verdict(base, head, wins, want):
    assert run.verdict(base, head, wins, 10, "lower", 0.1) == want
