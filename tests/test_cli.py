import csv
import json
import math

import pytest

from chanent import bitspace as bs
from chanent import entropy_analysis as ea
from chanent import inequalities, listdecode
from chanent.cli import main


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_entropy_command_matches_library(tmp_path):
    out = tmp_path / "rows.json"
    code = main(
        [
            "entropy",
            "--code", "repetition:3",
            "--eps", "0.1",
            "--eta", "0.5",
            "--format", "json",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 1
    c = bs.repetition_code(3)
    assert rows[0]["H_X_given_Ybsc"] == pytest.approx(
        ea.cond_entropy_bsc(c, 0.1), rel=1e-11
    )
    assert rows[0]["H_X_given_Ybec"] == pytest.approx(
        ea.cond_entropy_bec(c, 0.5), rel=1e-11
    )


def test_entropy_bec_only_when_eps_missing(capsys):
    code, out = run(
        ["entropy", "--code", "repetition:3", "--eta", "0.5", "--format", "json"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["H_X_given_Ybsc"] is None
    assert rows[0]["H_X_given_Ybec"] is not None


def test_entropy_bad_code_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("011\n0x1\n")
    code = main(
        ["entropy", "--code", f"codewords-file:{bad}", "--eta", "0.5"]
    )
    assert code == 2


def test_verify_small_battery_passes(capsys):
    code, out = run(
        [
            "verify",
            "--code", "repetition:3",
            "--code", "hamming74",
            "--eps", "0.1,0.3",
            "--eta", "0.5",
            "--q", "2,3",
            "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    summary = rows[-1]
    assert summary["inequality"] == "summary"
    assert summary["pass"] is True
    for row in rows[:-1]:
        if not row["skipped"]:
            assert row["slack"] >= -1e-9


def test_verify_builds_subset_stats_once_per_code(monkeypatch, capsys):
    calls = []
    build = inequalities.subset_stats_of_code

    def counted(code, qs):
        calls.append(tuple(qs))
        return build(code, qs)

    monkeypatch.setattr(inequalities, "subset_stats_of_code", counted)
    code, _ = run(
        [
            "verify",
            "--code", "repetition:3",
            "--code", "hamming74",
            "--eps", "0.1,0.2,0.3",
            "--q", "2,3,4",
            "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    assert calls == [(2, 3, 4), (2, 3, 4)]


def _forbid(monkeypatch, module, name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} ran")

    monkeypatch.setattr(module, name, fail)


def test_verify_runs_no_dp_on_linear_codes(monkeypatch, capsys):
    _forbid(monkeypatch, inequalities, "subset_stats")
    code, out = run(
        [
            "verify",
            "--code", "repetition:3",
            "--code", "hamming74",
            "--code", "reed_muller:1,4",
            "--eps", "0.1,0.3",
            "--eta", "0.5",
            "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out)[-1]["pass"] is True


@pytest.mark.parametrize("linear", [True, False])
def test_verify_rejects_codes_above_the_subset_cap_before_any_work(
    linear, monkeypatch, tmp_path, capsys
):
    if linear:
        spec = "repetition:21"
    else:
        path = tmp_path / "words.txt"
        path.write_text("".join(format(w, "021b")[::-1] + "\n" for w in (0, 3, 1 << 20)))
        spec = f"codewords-file:{path}"
    for name in ("subset_stats", "subset_stats_of_code", "noise_operator"):
        _forbid(monkeypatch, inequalities, name)
    _forbid(monkeypatch, ea, "subset_renyi_values")
    # the small code sorts first, so its work would start before the cap check
    code = main(["verify", "--code", "repetition:3", "--code", spec, "--eps", "0.1", "--q", "2"])
    assert code == 2
    assert "capped at n <= 20" in capsys.readouterr().err


def test_verify_applies_noise_operator_once_per_code_and_eps(monkeypatch, capsys):
    calls = []
    apply = inequalities.noise_operator

    def counted(f, eps):
        calls.append(eps)
        return apply(f, eps)

    monkeypatch.setattr(inequalities, "noise_operator", counted)
    code, _ = run(
        [
            "verify",
            "--code", "repetition:3",
            "--code", "hamming74",
            "--eps", "0.1,0.2,0.3",
            "--eta", "0.3",
            "--q", "2,3",
            "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    assert calls == [0.1, 0.2, 0.3] * 2


def test_verify_drops_repeated_orders(capsys):
    code, out = run(
        ["verify", "--code", "repetition:3", "--eps", "0.3", "--q", "2,2", "--format", "json"],
        capsys,
    )
    assert code == 0
    names = [row["inequality"] for row in json.loads(out)]
    assert sorted(names) == sorted(
        ["cor_rv_entropy", "sam_entropy", "cor_rv", "sam_norm", "summary"]
    )


def test_decode_sim_runs_one_pass_per_code_and_eps(monkeypatch, capsys):
    calls = []
    simulate = listdecode.simulate

    def counted(code, eps, trials, seed):
        calls.append((code.n, eps))
        return simulate(code, eps, trials, seed)

    monkeypatch.setattr(listdecode, "simulate", counted)
    code, out = run(
        [
            "decode-sim",
            "--code", "repetition:5",
            "--code", "hamming74",
            "--eps", "0.1,0.2",
            "--delta", "0.0,0.05",
            "--trials", "200",
            "--seed", "3",
            "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    assert len(json.loads(out)) == 8
    assert calls == [(5, 0.1), (5, 0.2), (7, 0.1), (7, 0.2)]


@pytest.mark.parametrize("eta", ["1.5", "-0.1"])
def test_verify_rejects_eta_outside_unit_interval(eta, capsys):
    code = main(
        ["verify", "--code", "repetition:3", "--eps", "0.3", "--eta", eta, "--q", "2"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "error: eta=" in captured.err
    assert captured.out == ""


def test_verify_marks_hypothesis_violations_skipped(capsys):
    code, out = run(
        [
            "verify",
            "--code", "repetition:3",
            "--eps", "0.05",
            "--eta", "0.9",
            "--q", "2",
            "--format", "json",
        ],
        capsys,
    )
    assert code == 0  # skipped rows are not failures
    rows = json.loads(out)
    skipped = [r for r in rows if r.get("skipped")]
    assert skipped and all(r["inequality"] == "bsc_bec" for r in skipped)


def test_entropy_lambda_matches_eta(capsys):
    code, out = run(
        ["entropy", "--code", "repetition:3", "--lambda", "0.5", "--format", "json"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    c = bs.repetition_code(3)
    assert rows[0]["eta"] == pytest.approx(0.5)
    assert rows[0]["E_S_HqXS"] == pytest.approx(
        ea.subset_entropy_expectation(c, 0.5, 1.0), rel=1e-11
    )



@pytest.mark.parametrize("q", ["-1", "0.5", "nan"])
def test_entropy_rejects_orders_below_one(q, capsys):
    # the linear subset table never reads q, so the check cannot live there
    code = main(["entropy", "--code", "hamming74", "--eta", "0.5", "--q", q])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: order" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--eta", "--lambda"])
def test_entropy_rejects_eta_outside_unit_interval_on_the_monte_carlo_path(flag, capsys):
    code = main(
        ["entropy", "--code", "repetition:21", flag, "1.5", "--trials", "100", "--seed", "1"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "error: eta=" in captured.err and "outside [0, 1]" in captured.err
    assert captured.out == ""


def test_entropy_rows_without_subsets_are_exact_for_large_n(capsys):
    # H(X|Y_BSC) is exact for every n; nothing is sampled without an eta
    code, out = run(
        ["entropy", "--code", "repetition:21", "--eps", "0.1", "--format", "json"], capsys
    )
    assert code == 0
    (row,) = json.loads(out)
    assert (row["method"], row["trials"], row["stderr"]) == ("exact", None, None)


def test_entropy_computes_once_per_code(monkeypatch, tmp_path, capsys):
    noise_calls, report_calls = [], []
    apply, report = ea.noise_operator, ea.entropy_report

    def counted_noise(f, eps):
        noise_calls.append(eps)
        return apply(f, eps)

    def counted_report(code, *args, **kwargs):
        report_calls.append(code.n)
        return report(code, *args, **kwargs)

    monkeypatch.setattr(ea, "noise_operator", counted_noise)
    monkeypatch.setattr(ea, "entropy_report", counted_report)
    words = tmp_path / "words.txt"
    words.write_text("00000\n11000\n00110\n10011\n01111\n")
    code, out = run(
        [
            "entropy",
            "--code", f"codewords-file:{words}",
            "--code", "hamming74",
            "--eps", "0.1,0.2",
            "--eta", "0.25,0.5",
            "--q", "1,2",
            "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    assert len(json.loads(out)) == 16
    # the dense pass is the nonlinear code's, once per eps
    assert noise_calls == [0.1, 0.2]
    assert report_calls == [5, 7]

def test_decode_sim_requires_seed(capsys):
    assert main(["decode-sim", "--code", "repetition:3", "--eps", "0.1"]) == 2


def test_decode_sim_zero_eps(capsys):
    code, out = run(
        [
            "decode-sim",
            "--code", "hamming74",
            "--eps", "0.0",
            "--trials", "500",
            "--seed", "1",
            "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    assert all(r["error_rate"] == 0 for r in rows)


def test_decode_sim_rejects_eps_half(capsys):
    code = main(
        [
            "decode-sim",
            "--code", "repetition:3",
            "--eps", "0.5",
            "--trials", "100",
            "--seed", "1",
        ]
    )
    assert code == 2


def test_decode_sim_matches_library(tmp_path):
    from chanent import listdecode as ld

    out = tmp_path / "rows.json"
    main(
        [
            "decode-sim",
            "--code", "hamming74",
            "--eps", "0.1,0.2",
            "--trials", "2000",
            "--seed", "7",
            "--format", "json",
            "--out", str(out),
        ]
    )
    rows = json.loads(out.read_text())
    assert len(rows) == 2
    c = bs.hamming74_code()
    for row in rows:
        cfg = ld.DecoderConfig(n=7, eps=row["eps"], delta=0.0)
        stats = ld.simulate(c, cfg.eps, trials=2000, seed=7).stats(cfg)
        assert row["error_rate"] == pytest.approx(stats.error_rate, abs=1e-12)
        assert row["k_theoretical"] == ld.theoretical_list_size(
            c.rate, row["eps"], 0.0, 7
        )


def test_byte_identical_reruns(tmp_path):
    args = [
        "decode-sim",
        "--code", "repetition:5",
        "--code", "hamming74",
        "--eps", "0.1,0.2",
        "--trials", "1000",
        "--seed", "42",
        "--format", "csv",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_csv_json_roundtrip_same_values(tmp_path):
    base = [
        "entropy",
        "--code", "repetition:3",
        "--eps", "0.1,0.3",
        "--eta", "0.25,0.5",
        "--q", "1,2",
    ]
    cpath, jpath = tmp_path / "r.csv", tmp_path / "r.json"
    main(base + ["--format", "csv", "--out", str(cpath)])
    main(base + ["--format", "json", "--out", str(jpath)])
    jrows = json.loads(jpath.read_text())
    with cpath.open() as fh:
        crows = list(csv.DictReader(fh))
    assert len(jrows) == len(crows)
    for jr, cr in zip(jrows, crows):
        for key, jv in jr.items():
            cv = cr[key]
            if jv is None:
                assert cv == ""
            elif isinstance(jv, bool):
                assert cv == str(jv)
            elif isinstance(jv, float):
                assert math.isclose(float(cv), jv, rel_tol=1e-12, abs_tol=1e-15)
            else:
                assert str(jv) == cv


def test_generator_file_input(tmp_path, capsys):
    gen = tmp_path / "gen.txt"
    gen.write_text("1000110\n0100101\n0010011\n0001111\n")
    code, out = run(
        ["entropy", "--code", f"generator-file:{gen}", "--eta", "0.5", "--format", "json"],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["n"] == 7
    assert rows[0]["H_X"] == pytest.approx(4.0)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["entropy"])  # missing --code
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["decode-sim", "--code", "hamming74", "--eps", "0.1", "--eta", "0.3",
         "--trials", "100", "--seed", "1"],
        ["verify", "--code", "hamming74", "--eps", "0.1", "--seed", "1"],
        ["verify", "--code", "hamming74", "--eps", "0.1", "--trials", "100"],
    ],
)
def test_subcommands_reject_flags_they_do_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
