import csv
import functools
import json
import math
import tracemalloc
from pathlib import Path

import pytest

import chanent
from chanent import bitspace as bs
from chanent import entropy_analysis as ea
from chanent import boolfn, channels, cli, inequalities, listdecode
from chanent.boolfn import h_q
from chanent.cli import main


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


DATA = Path(__file__).resolve().parent / "data"

HIGH_RATE = "random_linear:24,20,1"  # 2^20 codewords


@pytest.mark.parametrize(
    "args, pinned",
    [
        (
            ["entropy", "--code", HIGH_RATE, "--eps", "0.1", "--eta", "0.5",
             "--trials", "2000", "--seed", "1", "--format", "json"],
            "entropy_24_20.json",
        ),
        (
            ["decode-sim", "--code", HIGH_RATE, "--eps", "0.1", "--trials", "2000", "--seed", "1"],
            "decode_24_20.csv",
        ),
    ],
    ids=["entropy", "decode-sim"],
)
def test_high_rate_code_outputs_are_pinned(args, pinned, tmp_path):
    # a code of 2^20 words, built from its generator, through the CLI:
    # the output must not change by a single byte
    out = tmp_path / pinned
    assert main(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / pinned).read_bytes()


def test_verify_at_the_subset_cap_output_is_pinned(tmp_path):
    # the CI run at n = EXACT_CAP, recorded when two of repetition:20's
    # 2^19-coset laws shared a chunk: the CSV must not change by a single byte
    out = tmp_path / "verify_cap.csv"
    argv = ["verify", "--code", "repetition:20", "--code", "random_linear:20,10,1",
            "--q", "2,3", "--eta", "0.3,0.5", "--out", str(out)]
    assert main(argv) == 0
    assert out.read_bytes() == (DATA / "verify_cap.csv").read_bytes()


NONLINEAR14 = f"codewords-file:{DATA / 'nonlinear14.txt'}"  # n = 14, 200 words, no generator
NONLINEAR10 = f"codewords-file:{DATA / 'nonlinear10.txt'}"  # n = 10, 40 words, no generator

DECODE_PIN_RUNS = [
    ["decode-sim", "--code", "random_linear:16,8,1", "--code", "hamming74", "--code", NONLINEAR10,
     "--eps", "0.1,0.3,0.7,0.0,1.0", "--delta", "0,0.05,0.2", "--trials", "3000", "--seed", "5"],
    ["decode-sim", "--code", "reed_muller:2,4", "--code", "random_linear:20,10,3",
     "--eps", "0.05,0.2,0.35", "--delta", "0,0.1", "--list-cap", "3", "--trials", "20000",
     "--seed", "9"],
]


def test_decode_sim_output_is_pinned(tmp_path):
    # both paths, the coset table with its tie walk and the pair kernel of
    # a codeword file; eps on both sides of 1/2, 0 and 1 included; deltas
    # and a list cap.  One CSV: the second run's rows follow the first's
    outs = []
    for i, argv in enumerate(DECODE_PIN_RUNS):
        out = tmp_path / f"decode{i}.csv"
        assert main(argv + ["--out", str(out)]) == 0
        outs.append(out.read_bytes())
    header, _, rows = outs[1].partition(b"\n")
    assert outs[0].startswith(header + b"\n")
    assert outs[0] + rows == (DATA / "decode_sim_pin.csv").read_bytes()


@pytest.mark.parametrize(
    "args, pinned",
    [
        (
            ["verify", "--code", NONLINEAR14, "--q", "2,3", "--eta", "0.3,0.5", "--format", "json"],
            "verify_nonlinear14.json",
        ),
        (
            ["entropy", "--code", NONLINEAR14, "--eps", "0.1,0.2", "--eta", "0.25,0.5",
             "--q", "1,2", "--format", "json"],
            "entropy_nonlinear14.json",
        ),
    ],
    ids=["verify", "entropy"],
)
def test_nonlinear_code_outputs_are_pinned(args, pinned, tmp_path):
    # a code given only by its codewords: the output, the summary argmin
    # included, must not change by a single byte
    out = tmp_path / pinned
    assert main(args + ["--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / pinned).read_bytes()


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


def test_entropy_names_the_repeated_line_of_a_code_file(tmp_path, capsys):
    # an unsorted file is read as its set of lines: only the repeat is wrong
    words = tmp_path / "words.txt"
    words.write_text("110\n011\n110\n")
    assert main(["entropy", "--code", f"codewords-file:{words}", "--eta", "0.5"]) == 2
    assert capsys.readouterr().err == "error: line 3: duplicate codeword\n"
    # lines are numbered from 1, as in an editor, blank lines included
    words.write_text("110\n\n011\n\n110\n")
    assert main(["entropy", "--code", f"codewords-file:{words}", "--eta", "0.5"]) == 2
    assert capsys.readouterr().err == "error: line 5: duplicate codeword\n"
    words.write_text("110\n011\n")
    assert main(["entropy", "--code", f"codewords-file:{words}", "--eta", "0.5"]) == 0


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
    build = ea.subset_stats_of_code

    def counted(code, qs):
        calls.append(tuple(qs))
        return build(code, qs)

    monkeypatch.setattr(ea, "subset_stats_of_code", counted)
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


def test_verify_over_several_codes_keeps_at_most_two_subset_tables(tmp_path):
    # the CLI reads each code's table once; five [16, 8] tables of 512 KiB
    # each would stay alive in a cache that kept them all
    codes = [arg for seed in range(1, 6) for arg in ("--code", f"random_linear:16,8,{seed}")]
    argv = ["verify", *codes, "--eps", "0.1", "--q", "2", "--eta", "0.3"]
    argv += ["--out", str(tmp_path / "verify.csv")]
    assert main(argv) == 0  # warms popcounts and the other small caches
    ea.subset_renyi_values.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert main(argv) == 0
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    table = 8 << 16
    info = ea.subset_renyi_values.cache_info()
    assert (info.misses, info.currsize) == (5, 2)
    assert held < 2.5 * table


def _forbid(monkeypatch, module, name):
    def fail(*args, **kwargs):
        raise AssertionError(f"{name} ran")

    monkeypatch.setattr(module, name, fail)


def test_verify_runs_no_dp_and_one_subset_table_per_code(monkeypatch, tmp_path, capsys):
    # the 3^n DP is a test oracle: the library has none to run
    assert not hasattr(inequalities, "subset_stats")
    passes = []
    kernel = ea.projection_entropies

    def counted(code, masks, qs):
        passes.append(tuple(qs))
        return kernel(code, masks, qs)

    monkeypatch.setattr(ea, "projection_entropies", counted)
    path = tmp_path / "words.txt"
    path.write_text("".join(format(w, "05b")[::-1] + "\n" for w in (0, 3, 12, 25, 30)))
    ea.subset_renyi_values.cache_clear()
    code, out = run(
        [
            "verify",
            "--code", "repetition:3",
            "--code", "hamming74",
            "--code", "reed_muller:1,4",
            "--code", f"codewords-file:{path}",
            "--eps", "0.1,0.3",
            "--eta", "0.5",
            "--q", "2,3,4",
            "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out)[-1]["pass"] is True
    # one projection pass serves every order of the nonlinear code
    assert passes == [(1.0, 2, 3, 4)]
    assert ea.subset_renyi_values.cache_info().misses == 4


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
    for name in ("subset_stats_of_code", "noisy_laws", "_xor_shift_pass", "subset_renyi_values"):
        _forbid(monkeypatch, ea, name)
    _forbid(monkeypatch, inequalities, "noise_operator")
    # the small code sorts first, so its work would start before the cap check
    code = main(["verify", "--code", "repetition:3", "--code", spec, "--eps", "0.1", "--q", "2"])
    assert code == 2
    assert "capped at n <= 20" in capsys.readouterr().err


def _forbid_dense(monkeypatch):
    """Make the dense noise operator, f_C and the dense H(X|Y_BSC) fail wherever chanent holds them."""
    modules = [chanent, bs, boolfn, channels, ea, inequalities, listdecode, cli]
    for name in ("noise_operator", "from_code", "cond_entropy_bsc"):
        for module in modules:
            if hasattr(module, name):
                _forbid(monkeypatch, module, name)


def _count_law_passes(monkeypatch) -> list:
    """Record (cell exponent m, eps grid) of every XOR-shift pass that builds noisy laws."""
    passes = []
    xor_shift_pass = ea._xor_shift_pass

    def counted(p, m, columns, eps_grid):
        passes.append((m, list(eps_grid)))
        return xor_shift_pass(p, m, columns, eps_grid)

    monkeypatch.setattr(ea, "_xor_shift_pass", counted)
    return passes


def test_verify_takes_one_law_pass_per_chunk_per_code(monkeypatch, tmp_path, capsys):
    # every code, linear or not: one pass of the law of X+Z per chunk of
    # its eps grid, and no dense noise operator, f_C or dense H(X|Y_BSC)
    _forbid_dense(monkeypatch)
    passes = _count_law_passes(monkeypatch)
    # two laws of 2^5 cells a chunk: the nonlinear n = 5 code's grid is cut
    # in two, the linear codes' 2^2 and 2^3 cosets take it in one
    monkeypatch.setattr(bs, "_BLOCK", 2 << 5)
    words = tmp_path / "words.txt"
    words.write_text("00000\n11000\n00110\n10011\n01111\n")
    code, out = run(
        [
            "verify",
            "--code", "repetition:3",
            "--code", f"codewords-file:{words}",
            "--code", "hamming74",
            "--eps", "0.1,0.2,0.3",
            "--eta", "0.3",
            "--q", "2,3",
            "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    # in code order: repetition(3), words.txt, hamming74
    assert passes == [
        (2, [0.1, 0.2, 0.3]),
        (5, [0.1, 0.2]),
        (5, [0.3]),
        (3, [0.1, 0.2, 0.3]),
    ]
    assert json.loads(out)[-1]["pass"] is True


def test_no_block_size_changes_an_output(monkeypatch, tmp_path, capsys):
    # one patch reaches all six blocked loops: the law chunks and v log2 v
    # (verify, entropy), the projection kernel (the file's subset table),
    # masked_ranks and the draw blocks (the Monte Carlo rows of the n = 21
    # code), and the pair kernel (decode-sim of the file; hamming74 reads
    # its coset table)
    words = tmp_path / "words.txt"
    words.write_text("00000\n11000\n00110\n10011\n01111\n")
    codes = ["--code", "hamming74", "--code", f"codewords-file:{words}"]
    commands = [
        ["verify", *codes, "--q", "2", "--eta", "0.3"],
        ["entropy", *codes, "--eps", "0.1,0.2", "--eta", "0.25,0.5", "--q", "1,2"],
        ["entropy", "--code", "random_linear:21,3,1", "--eta", "0.5", "--trials", "200", "--seed", "1"],
        ["decode-sim", *codes, "--eps", "0.1,0.3", "--trials", "500", "--seed", "1"],
    ]
    assert listdecode._table_pays(bs.hamming74_code(), 500)
    outputs = []
    for block in (bs._BLOCK, 1, 224):
        monkeypatch.setattr(bs, "_BLOCK", block)
        ea.subset_renyi_values.cache_clear()  # the file's table is built under this block
        outputs.append([run(argv, capsys) for argv in commands])
    assert outputs[0] == outputs[1] == outputs[2]
    assert all(code == 0 for code, _ in outputs[0])


def test_verify_gathers_subset_weights_once_per_distinct_lambda(monkeypatch, capsys):
    # the workload's battery: 144 rows, but 29 distinct lambdas per code
    gathers = []
    weights = ea.subset_weights

    def counted(n, lam):
        gathers.append((n, lam))
        return weights(n, lam)

    monkeypatch.setattr(ea, "subset_weights", counted)
    codes = ["reed_muller:1,4", "random_linear:14,7,3"]
    eps_grid = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]
    argv = ["verify", "--code", codes[0], "--code", codes[1], "--q", "2,3", "--eta", "0.3,0.5"]
    code, out = run([*argv, "--format", "json"], capsys)
    assert code == 0
    assert len(json.loads(out)) == 145
    lams = {(1 - 2 * eps) ** 2 for eps in eps_grid}
    lams |= {1 - h_q(eps, q) for eps in eps_grid for q in (2, 3)}
    lams |= {1 - eta for eta in (0.3, 0.5)}
    assert len(lams) == 29
    assert sorted(gathers) == sorted((n, lam) for n in (14, 16) for lam in lams)


def test_verify_holds_one_chunk_of_noisy_laws(monkeypatch, capsys):
    # repetition:20 has 2^19 cosets, so a chunk of the grid holds one law
    assert bs._BLOCK >> 19 == 0
    cells = 1 << 19
    chunks = _count_law_passes(monkeypatch)
    held = []
    build, laws = ea.subset_stats_of_code, ea.noisy_laws

    def built_rows(code, qs):
        # the rows the checks read are built here, outside the measured span
        stats = build(code, qs)
        for q in qs:
            stats.row("log_norm", q)
        stats.row("ent")
        return stats

    def start_peak(code, eps_grid):
        # measured from here: the subset statistics are built and held
        held.append(tracemalloc.get_traced_memory()[0])
        tracemalloc.reset_peak()
        return laws(code, eps_grid)

    monkeypatch.setattr(ea, "subset_stats_of_code", built_rows)
    monkeypatch.setattr(ea, "noisy_laws", start_peak)
    argv = ["verify", "--code", "repetition:20", "--q", "2", "--eta", "0.3", "--format", "json"]
    tracemalloc.start()
    try:
        code = main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert [len(grid) for _, grid in chunks] == [1] * 9
    # one chunk of laws and the pass's scratch (2 x 2^19 cells), one
    # weight array (2^20) and 1 MiB of the rest: a second chunk of laws
    # alive at once would add 4 MiB, the whole grid 64 MiB
    assert peak - held[0] <= 8 * (2 * cells + (1 << 20)) + (1 << 20)
    assert json.loads(capsys.readouterr().out)[-1]["pass"] is True


@pytest.mark.parametrize(
    "repeated, once",
    [
        (
            "entropy --code hamming74 --eta 0.5 --q 2,2",
            "entropy --code hamming74 --eta 0.5 --q 2",
        ),
        (
            "entropy --code hamming74 --eta 0.5 --lambda 0.5",
            "entropy --code hamming74 --eta 0.5",
        ),
        (
            "entropy --code hamming74 --code hamming74 --eps 0.1,0.1",
            "entropy --code hamming74 --eps 0.1",
        ),
        (
            "verify --code repetition:3 --eps 0.3 --q 2,2",
            "verify --code repetition:3 --eps 0.3 --q 2",
        ),
        (
            "verify --code repetition:3 --eps 0.1,0.1 --eta 0.3,0.3",
            "verify --code repetition:3 --eps 0.1 --eta 0.3",
        ),
        (
            "decode-sim --code hamming74 --delta 0,0 --seed 1 --trials 50",
            "decode-sim --code hamming74 --delta 0 --seed 1 --trials 50",
        ),
        (
            "decode-sim --code repetition:3 --code repetition:3 --eps 0.1,0.1 --seed 1 --trials 50",
            "decode-sim --code repetition:3 --eps 0.1 --seed 1 --trials 50",
        ),
    ],
)
def test_repeated_codes_and_grid_values_print_each_row_once(repeated, once, capsys):
    assert run(repeated.split(), capsys) == run(once.split(), capsys)


def test_decode_sim_runs_one_shared_pass_per_code(monkeypatch, capsys):
    # one pass per code serves its whole (eps, delta) grid
    calls = []
    simulate = listdecode.simulate

    def counted(code, decoders, trials, seed):
        calls.append((code.n, [(cfg.eps, cfg.delta) for cfg in decoders]))
        return simulate(code, decoders, trials, seed)

    monkeypatch.setattr(listdecode, "simulate", counted)
    code, out = run(
        [
            "decode-sim",
            "--code", "hamming74",
            "--code", "repetition:5",
            "--eps", "0.2,0.1",
            "--delta", "0.0,0.05",
            "--trials", "200",
            "--seed", "3",
            "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    grid = [(eps, delta) for eps in (0.2, 0.1) for delta in (0.0, 0.05)]
    assert calls == [(5, grid), (7, grid)]
    assert [(row["n"], row["eps"], row["delta"]) for row in rows] == [
        (n, eps, delta) for n in (5, 7) for eps, delta in grid
    ]


@pytest.mark.parametrize("grid", [["--eps", "1.5"], ["--eta", "1.5"], ["--eta", "0.5,-0.1"]])
def test_verify_checks_its_grids_before_any_subset_table(grid, monkeypatch, capsys):
    for name in ("subset_stats_of_code", "subset_renyi_values", "_xor_shift_pass"):
        _forbid(monkeypatch, ea, name)
    # the small code sorts first, so its table would be built before the large one's
    code = main(["verify", "--code", "random_linear:20,10,1", "--code", "repetition:3", *grid])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: {grid[0][2:]}")
    assert captured.out == ""


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
    # a --lambda is named as typed, not as the eta it folds into
    name = flag.lstrip("-")
    assert f"error: {name}=1.5 outside [0, 1]" in captured.err
    assert captured.out == ""
    # on the exact path too
    code = main(["entropy", "--code", "hamming74", "--eta", "0.5", flag, "1.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {name}=1.5 outside [0, 1]\n"
    assert captured.out == ""


def test_entropy_past_the_exact_cap_without_a_seed_is_a_usage_error(capsys):
    code = main(["entropy", "--code", "random_linear:24,12,1", "--eta", "0.5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: monte_carlo mode requires trials and seed\n"
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
    report_calls = []
    report = ea.entropy_report

    def counted_report(code, *args, **kwargs):
        report_calls.append(code.n)
        return report(code, *args, **kwargs)

    _forbid_dense(monkeypatch)
    passes = _count_law_passes(monkeypatch)
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
    # one pass of the law of X+Z per code for its whole eps grid: the
    # nonlinear words.txt on 2^5 points, then hamming74 on 2^3 cosets
    assert passes == [(5, [0.1, 0.2]), (3, [0.1, 0.2])]
    assert report_calls == [5, 7]


def test_verify_takes_one_ent_per_code_and_eps(monkeypatch, tmp_path, capsys):
    calls = []
    ent = ea.NoisyFunction.ent.func

    def counted(noisy):
        calls.append((noisy.n, noisy.k, len(noisy.p)))
        return ent(noisy)

    counted_ent = functools.cached_property(counted)
    counted_ent.__set_name__(ea.NoisyFunction, "ent")
    monkeypatch.setattr(ea.NoisyFunction, "ent", counted_ent)
    words = tmp_path / "words.txt"
    words.write_text("00000\n11000\n00110\n10011\n01111\n")
    code, out = run(
        [
            "verify",
            "--code", f"codewords-file:{words}",
            "--code", "hamming74",
            "--eps", "0.1,0.2,0.3",
            "--eta", "0.3,0.5",
            "--q", "2,3",
            "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    rows = json.loads(out)
    assert sum(row["inequality"] == "bsc_bec" and not row["skipped"] for row in rows) > 0
    # cor_rv_entropy, sam_entropy and every bsc_bec read the one Ent[T_eps f]:
    # of the dense 2^5 points, and of hamming74's 2^3 cosets of 2^4 points
    assert calls == [(5, 0, 32)] * 3 + [(7, 4, 8)] * 3


def test_entropy_rejects_a_single_monte_carlo_trial(capsys):
    code = main(
        ["entropy", "--code", "random_linear:24,12,1", "--eta", "0.5",
         "--trials", "1", "--seed", "1"]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert "standard error needs two samples" in captured.err
    assert captured.out == ""


def test_decode_sim_requires_seed(capsys):
    assert main(["decode-sim", "--code", "repetition:3", "--eps", "0.1"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["decode-sim", "--code", "hamming74", "--eps", "0.1", "--trials", "100"],
        ["entropy", "--code", "random_linear:24,12,1", "--eta", "0.5", "--trials", "100"],
    ],
)
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_negative_seed_is_rejected_at_parse_time_naming_the_flag(argv, seed, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", seed])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert f"argument --seed: expected a non-negative integer, got '{seed}'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_decode_sim_rejects_non_finite_delta(delta, capsys):
    argv = ["decode-sim", "--code", "hamming74", "--eps", "0.1", "--delta", delta]
    code = main(argv + ["--trials", "100", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: delta must be finite and >= 0\n"
    assert captured.out == ""


def test_decode_sim_rejects_a_list_size_past_the_float_range_before_any_draw(monkeypatch, capsys):
    _forbid(monkeypatch, listdecode, "simulate")
    # the first code's decoders are fine: the second's delta is checked before its pass
    argv = ["decode-sim", "--code", "hamming74", "--code", "repetition:3", "--delta", "0,200"]
    code = main(argv + ["--trials", "100", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: delta=200.0 ")
    assert captured.out == ""


@pytest.mark.parametrize("spec", ["hamming74:5", "repetition:3,4", "single:", "repetition:x"])
def test_a_code_spec_with_the_wrong_arguments_is_a_usage_error(spec, capsys):
    code = main(["entropy", "--code", spec, "--eps", "0.1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: bad code spec '{spec}': ")
    assert captured.out == ""


@pytest.mark.parametrize("command", ["entropy", "verify", "decode-sim"])
def test_every_subcommand_rejects_an_eps_outside_unit_interval_in_one_message(command, capsys):
    argv = [command, "--code", "hamming74", "--eps", "1.5"]
    if command == "decode-sim":
        argv += ["--trials", "100", "--seed", "1"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: eps=1.5 outside [0, 1]\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "cap_args, delta", [(["--delta", "100"], 100.0), (["--list-cap", "100"], 0.0)]
)
def test_decode_sim_prints_the_applied_list_cap_at_most_the_code_size(cap_args, delta, capsys):
    argv = ["decode-sim", "--code", "hamming74", *cap_args, "--trials", "100", "--seed", "1"]
    code, out = run(argv + ["--format", "json"], capsys)
    assert code == 0
    (row,) = json.loads(out)
    hamming74 = bs.hamming74_code()
    assert row["k"] == hamming74.size == 16
    # k_theoretical keeps the formula's value, past |C| at delta 100
    assert row["k_theoretical"] == listdecode.theoretical_list_size(hamming74.rate, 0.1, delta, 7)
    assert row["list_max"] <= row["k"]


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
        stats = ld.simulate(c, [cfg], trials=2000, seed=7)[0]
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


def test_format_rows_rejects_an_unknown_format():
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        cli.format_rows([{"a": 1}], "xml")


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


@pytest.mark.parametrize("q", ["1", "0", "2,1", "2.5"])
def test_verify_rejects_an_order_below_2_at_parse_time(q, monkeypatch, capsys):
    # the subset statistics take any order >= 1; the norm checks need integers >= 2
    _forbid(monkeypatch, ea, "subset_renyi_values")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--code", "hamming74", "--eps", "0.1", "--q", q])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert f"argument --q: expected comma-separated integers >= 2, got '{q}'" in captured.err
    assert captured.out == ""


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
