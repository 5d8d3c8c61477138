"""Tests of the benchmark's own helpers: spans, checks, inputs.

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import check
import spans
import workloads

BENCH = Path(__file__).resolve().parents[1]


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]


def test_summary_nested_and_repeated_spans():
    rec = spans.Recorder()
    rec.name = ["cli.main", "channels.noise_operator", "channels.noise_operator", "cli.main"]
    rec.start = [0.0, 1.0, 3.0, 20.0]
    rec.end = [10.0, 2.0, 6.0, 21.0]
    rec.parent = [-1, 0, 0, -1]
    rec.functions = ["cli.main", "channels.noise_operator"]
    out = rec.summary(steps_start=0.0, steps_end=25.0)
    assert out["cli.main.busy_s"] == 11.0
    assert out["cli.main.self_s"] == 7.0
    assert out["cli.self_s"] == 7.0
    assert out["channels.noise_operator.busy_s"] == 4.0
    assert out["channels.self_s"] == 4.0
    assert out["trace.coverage"] == 11.0 / 25.0


def test_wrapper_records_parent_counts_and_work():
    rec = spans.Recorder()

    def noise_operator(f, eps):
        return inner([1])

    inner = rec.wrap("boolfn.ent", lambda f: sum(f))
    outer = rec.wrap("channels.noise_operator", noise_operator)
    outer([0.0] * 8, eps=0.1)
    assert rec.name == ["channels.noise_operator", "boolfn.ent"]
    assert rec.parent == [-1, 0]
    out = rec.summary(0.0, 1.0)
    assert out["channels.noise_operator.calls"] == 1
    assert out["channels.noise_operator.elem_ops"] == 3 * 8
    assert out["channels.noise_operator.bytes_computed"] == 24 * 3 * 8
    assert out["channels.noise_operator.peak_alloc_mb"] >= 0


def test_install_wraps_every_namespace_holding_a_function():
    # in a fresh interpreter: install patches the chanent modules in place
    code = """
import spans, chanent
from chanent import channels, inequalities, listdecode, entropy_analysis
original = channels.noise_operator
code = chanent.make_code("hamming74")
rec = spans.Recorder()
spans.install(rec)
assert channels.noise_operator is not original
assert inequalities.noise_operator is channels.noise_operator
assert listdecode.noise_operator is channels.noise_operator
assert chanent.noise_operator is channels.noise_operator
entropy_analysis.cond_entropy_bsc(code, 0.1)
assert rec.name == ["entropy_analysis.cond_entropy_bsc", "boolfn.from_code",
                    "channels.noise_operator", "boolfn.dim_of", "boolfn.ent",
                    "boolfn.binary_entropy", "boolfn.h_q"], rec.name
assert rec.parent == [-1, 0, 0, 2, 0, 0, 5], rec.parent
"""
    env_path = f"{BENCH}:{BENCH.parent / 'src'}"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": env_path},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def _reference(workload, key, input_set=0):
    data = json.loads((BENCH / "reference" / f"{workload}.json").read_text())
    return data["input_sets"][str(input_set)][key]


def test_checker_accepts_reference_and_flags_corrupted_row():
    ref = _reference("verify", "verify")
    rows = json.loads(json.dumps(ref))
    assert check.check_op("verify", 0, rows, ref) == []
    rows[3]["rhs"] += 1e-6
    problems = check.check_op("verify", 0, rows, ref)
    assert len(problems) == 1 and "rhs" in problems[0]


def test_checker_flags_nonzero_exit_missing_row_and_negative_slack():
    ref = _reference("verify", "verify")
    rows = json.loads(json.dumps(ref))
    assert any("exit code 1" in p for p in check.check_op("verify", 1, rows, ref))
    assert check.check_op("verify", 0, rows[:-1], ref) == ["144 rows, reference 145"]
    rows[0]["slack"] = -1e-6
    assert any("slack" in p and "below" in p for p in check.check_op("verify", 0, rows, ref))


def test_checker_monte_carlo_fields_use_reference_standard_error():
    ref = _reference("entropy", "entropy.mc")
    se = ref[0]["stderr"]
    assert se > 0
    rows = json.loads(json.dumps(ref))
    rows[0]["E_S_HqXS"] += 3 * se
    rows[0]["H_X_given_Ybec"] -= 3 * se
    assert check.check_op("entropy.mc", 0, rows, ref) == []
    rows[0]["E_S_HqXS"] += 2 * se
    assert len(check.check_op("entropy.mc", 0, rows, ref)) == 1
    # an exact field of the same row keeps the exact tolerance
    rows = json.loads(json.dumps(ref))
    rows[0]["H_X_given_Ybsc"] += 1e-6
    assert len(check.check_op("entropy.mc", 0, rows, ref)) == 1


def test_inputs_are_a_function_of_the_seed():
    a, b = workloads.make_inputs(5), workloads.make_inputs(5)
    assert a == b
    assert workloads.make_inputs(5 + workloads.INPUT_SETS) == a
    assert workloads.make_inputs(6) != a
    assert len(set(a.nonlinear_words)) == workloads.NONLINEAR_WORDS
    assert all(0 <= w < 1 << workloads.NONLINEAR_N for w in a.nonlinear_words)


@pytest.mark.parametrize("workload", sorted(workloads.ROWS))
def test_references_cover_every_input_set_with_the_stated_rows(workload):
    data = json.loads((BENCH / "reference" / f"{workload}.json").read_text())
    assert sorted(map(int, data["input_sets"])) == list(range(workloads.INPUT_SETS))
    for outputs in data["input_sets"].values():
        assert len(outputs) == workloads.OPS[workload]
        assert sum(len(rows) for rows in outputs.values()) == workloads.ROWS[workload]

