"""The README's examples run and give the documented output."""

import re
from pathlib import Path

from chanent.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()

VERIFY_ARGS = [
    "verify",
    "--code", "repetition:5",
    "--code", "reed_muller:1,3",
    "--eps", "0.05,0.15,0.25",
    "--eta", "0.3,0.5",
    "--q", "2,3,4",
    "--format", "json",
]

ENTROPY_ARGS = ["entropy", "--code", "hamming74", "--eps", "0.1,0.2", "--eta", "0.25,0.5", "--q", "1,2"]

DECODE_ARGS = [
    "decode-sim", "--code", "hamming74", "--eps", "0.1,0.2", "--delta", "0.0,0.05",
    "--trials", "100000", "--seed", "42",
]


def test_readme_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_verify_example_output_is_pinned(tmp_path):
    # the README shows this invocation; its JSON, summary argmin included,
    # must not change by a single byte
    shown = re.sub(r"\s*\\\n\s*", " ", README)
    assert "chanent " + " ".join(VERIFY_ARGS) in shown
    out = tmp_path / "verify.json"
    assert main(VERIFY_ARGS + ["--out", str(out)]) == 0
    assert out.read_bytes() == (ROOT / "tests" / "data" / "verify_readme.json").read_bytes()


def test_readme_entropy_example_output_is_pinned(tmp_path):
    assert "chanent " + " ".join(ENTROPY_ARGS) in README
    out = tmp_path / "entropy.csv"
    assert main(ENTROPY_ARGS + ["--out", str(out)]) == 0
    assert out.read_bytes() == (ROOT / "tests" / "data" / "entropy_readme.csv").read_bytes()


def test_readme_decode_sim_example_output_is_pinned(tmp_path):
    shown = re.sub(r"\s*\\\n\s*", " ", README)
    assert "chanent " + " ".join(DECODE_ARGS) + " --out results.csv" in shown
    out = tmp_path / "results.csv"
    assert main(DECODE_ARGS + ["--out", str(out)]) == 0
    assert out.read_bytes() == (ROOT / "tests" / "data" / "decode_readme.csv").read_bytes()
