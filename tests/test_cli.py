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
    build = inequalities.subset_stats

    def counted(f, qs):
        calls.append(tuple(qs))
        return build(f, qs)

    monkeypatch.setattr(inequalities, "subset_stats", counted)
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
