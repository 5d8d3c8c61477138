"""The benchmark's workloads: inputs made from a seed, and the operations run.

An operation is one CLI invocation (``chanent.cli.main(argv)``, output
captured in memory) or one library call.  Every workload has a fixed
number of result rows, so rows per second compares across commits.

Inputs come from ``seed % INPUT_SETS``: the outputs of every input set
were recorded at the seed commit (``reference/``), so each run's outputs
can be checked against a fixed reference whatever seed it is given.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

INPUT_SETS = 8

# Per-workload number of operations and of result rows.
OPS = {"verify": 1, "entropy": 2, "decode": 5}
ROWS = {"verify": 145, "entropy": 17, "decode": 12}

NONLINEAR_N = 14
NONLINEAR_WORDS = 200
DECODE_SIM_TRIALS = 50000
ENTROPY_MC_TRIALS = 2000
LIKELY_GRID = [(eps, delta) for eps in (0.1, 0.2) for delta in (0.0, 0.05)]


@dataclass(frozen=True)
class Inputs:
    """Everything a workload needs, derived from the benchmark seed."""

    input_set: int
    code_seed: int  # the seed of every random_linear code spec
    mc_seed: int  # the --seed of the Monte Carlo steps
    nonlinear_words: tuple[int, ...]  # codewords of the n=14 nonlinear code


def make_inputs(seed: int) -> Inputs:
    input_set = seed % INPUT_SETS
    rng = random.Random(f"chanent-bench-{input_set}")
    code_seed = rng.randrange(1, 2**31)
    mc_seed = rng.randrange(1, 2**31)
    words = tuple(sorted(rng.sample(range(1 << NONLINEAR_N), NONLINEAR_WORDS)))
    return Inputs(input_set, code_seed, mc_seed, words)


def codeword_file_text(words: tuple[int, ...], n: int) -> str:
    """One codeword per line, coordinate 0 first (codewords-file format)."""
    return "".join(format(w, f"0{n}b")[::-1] + "\n" for w in words)


@dataclass
class Op:
    """One operation; ``key`` names its reference output."""

    key: str
    run: Callable[[], tuple[int, object]]  # -> (exit code, raw output)
    kind: str  # "cli": raw output is the CLI's JSON text; "lib": a value


def _cli_op(key: str, argv: list[str]) -> Op:
    from chanent import cli

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    return Op(key, run, "cli")


def build_ops(workload: str, inp: Inputs, work_dir: Path) -> list[Op]:
    """Generate the workload's input files and codes, and return its operations.

    This is the set-up the benchmark times as ``setup_s``: it parses and
    validates every code the workload uses.
    """
    from chanent import bitspace, cli, listdecode

    s = inp.code_seed
    if workload == "verify":
        codes = ["reed_muller:1,4", f"random_linear:14,7,{s}"]
        for spec in codes:
            cli.resolve_code(spec)
        argv = ["verify", "--q", "2,3", "--eta", "0.3,0.5", "--format", "json"]
        return [_cli_op("verify", argv + _code_args(codes))]

    if workload == "entropy":
        path = work_dir / "nonlinear14.txt"
        path.write_text(codeword_file_text(inp.nonlinear_words, NONLINEAR_N))
        exact = [f"random_linear:18,8,{s}", f"codewords-file:{path}"]
        mc = [f"random_linear:24,12,{s}"]
        for spec in exact + mc:
            cli.resolve_code(spec)
        grid = ["--eps", "0.1,0.2", "--eta", "0.25,0.5", "--q", "1,2"]
        mc_args = ["--eps", "0.1", "--eta", "0.5", "--q", "1"]
        mc_args += ["--trials", str(ENTROPY_MC_TRIALS), "--seed", str(inp.mc_seed)]
        return [
            _cli_op("entropy.exact", ["entropy", *_code_args(exact), *grid, "--format", "json"]),
            _cli_op("entropy.mc", ["entropy", *_code_args(mc), *mc_args, "--format", "json"]),
        ]

    if workload == "decode":
        sim = [f"random_linear:20,10,{s}", f"random_linear:24,12,{s}"]
        for spec in sim:
            cli.resolve_code(spec)
        code = bitspace.make_code(f"random_linear:18,8,{s}")
        argv = ["decode-sim", *_code_args(sim), "--eps", "0.1,0.2", "--delta", "0.0,0.05"]
        argv += ["--trials", str(DECODE_SIM_TRIALS), "--seed", str(inp.mc_seed)]
        ops = [_cli_op("decode.sim", argv + ["--format", "json"])]
        for eps, delta in LIKELY_GRID:
            cfg = listdecode.DecoderConfig(n=code.n, eps=eps, delta=delta)
            ops.append(
                Op(
                    f"decode.likely:{eps},{delta}",
                    lambda cfg=cfg: (0, listdecode.likely_probability(code, cfg)),
                    "lib",
                )
            )
        return ops

    raise ValueError(f"unknown workload {workload!r}")


def _code_args(specs: list[str]) -> list[str]:
    return [arg for spec in specs for arg in ("--code", spec)]
