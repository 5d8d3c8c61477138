"""Layer and CLI timings of one or two chanent source trees, written as JSON.

    python scripts/bench_layers.py --src DIR --out FILE [--label NAME] [--repeats R]
    python scripts/bench_layers.py --src DIR_A --label A --src DIR_B --label B --out FILE

DIR is the directory that holds the ``chanent`` package (``src`` of a
checkout).  Each tree is timed in its own subprocess.  With two trees
the repeats alternate between them, each tree going first on every
other repeat, so machine drift during the run falls on both alike.
Each case is timed R times (R >= 5 for a recorded file) and reported
as the median with its quartiles.  One untimed run per tree comes
first; when the faster tree's run takes under 20 ms, each sample is the
mean of an inner loop of at least 100 ms, the same number of runs in
both trees (``inner_loops`` in FILE).  The cases:

* ``subset_weights`` at n = 16 and n = 18, ten densities per repeat;
* ``bitspace.make_code`` on random_linear:24,16,1 and random_linear:24,20,1,
  up to the code's uint64 array of codewords;
* the subset Monte Carlo rows of ``entropy_report`` on random_linear:24,12
  at 2000 trials, two etas and orders 1 and 2 (through ``entropy_report``,
  whose signature is stable, so that any tree can be timed);
* the ``verify`` and ``entropy`` operations of the benchmark workloads
  (``perfbench/workloads.py``) on seed 1, each through ``cli.main``;
* ``verify`` through ``cli.main`` on seed 1's nonlinear n = 14, 200-word
  ``codewords-file`` code of the same workloads, at orders 2 and 3 and
  etas 0.3 and 0.5;
* ``verify`` through ``cli.main`` on random_linear:20,10,1 with the
  ``verify`` workload's grid (default eps grid, orders 2 and 3, etas 0.3
  and 0.5);
* ``entropy_analysis.projection_entropies`` over all masks on seed 1's
  nonlinear n = 14, 200-word code at orders 1 and 2, and on 1,000
  seeded random words of length 16 at orders 1 to 4;
* ``entropy_analysis.noisy_laws`` on those 1,000 words of length 16
  over ``verify``'s default eps grid, reading each law's
  ``cell_entropy`` (``noisy_laws.nonlinear16``);
* ``entropy_analysis.subset_renyi_values`` on seed 1's
  random_linear:18,8: the exact subset table of a linear code
  (``subset_table.linear18``);
* ``channels.noise_operator`` on the distribution function of
  random_linear:20,10,1 at eps 0.2: one dense operator at n = 20;
* ``listdecode.simulate`` on seed 1's random_linear:24,12 at eps 0.2 and
  on reed_muller:2,4 at eps 0.3, each at the ``decode`` workload's 50000
  trials, under its Monte Carlo seed, for the two decoders of the
  workload's deltas 0 and 0.05 (the output hashed is their stats rows;
  a tree whose ``simulate`` takes one eps is called through its
  ``.stats``);
* ``listdecode.simulate`` at eps 0.2 on one small run each side of
  ``_table_pays``: random_linear:24,9,1 at 100 trials, where the pair
  kernel it takes is the faster path, and random_linear:20,10,1 at 500
  trials, where it takes the coset table, the faster path there;
* the ``decode`` workload's operations: ``decode-sim`` through
  ``cli.main`` and the ``likely_probability`` library calls;
* those ``likely_probability`` calls on their own: seed 1's
  random_linear:18,8 at the workload's four (eps, delta) pairs, one
  coset table build and four reads;
* ``numpy.sort`` of 2^20 seeded uint32 words (``calibration.sort``),
  which runs no chanent code: it times the machine, not a tree, so
  files recorded at different times can be compared through it.

Every lru cache of the package is cleared before each run, so a run
pays what a fresh CLI process pays.  The CLI cases also record
the SHA-256 of their output (``repr`` of a library call's value), so
two trees can be compared row for row.  Two values of each tree are
not timed: ``src_lines`` in ``machine``, the lines of its ``chanent/*.py``,
and ``workload_sha256``, the SHA-256 of the exit code and output of every
operation of the benchmark workloads (``perfbench/workloads.py``) on each
of their input sets, so that "fewer lines, same bytes" reads from one file.
Each tree's run is stored in FILE under its NAME (default ``run`` for
a single tree); other runs already in FILE are kept.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
MC_TRIALS = 2000
MC_ETAS = [0.25, 0.5]
MC_ORDERS = [1.0, 2.0]
DENSITIES = [i / 10 for i in range(10)]
KERNEL_WORDS = 1000  # codewords of the n = 16 projection and noisy-law cases
VERIFY_EPS = [i / 20 for i in range(1, 10)]  # verify's default eps grid, 0.05 to 0.45
CALIBRATION_WORDS = 1 << 20  # uint32 words of the calibration sort
SHORT_CASE_S = 0.02  # a case faster than this is timed in an inner loop
MIN_SAMPLE_S = 0.1  # of at least this long per sample


def quartiles(samples: list[float]) -> dict:
    out = {"median_s": statistics.median(samples), "samples_s": samples}
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out.update(q1_s=q1, q3_s=q3)
    return out


def git(src: Path, *args: str) -> str | None:
    try:
        return subprocess.run(
            ["git", "-C", str(src), *args], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def src_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "chanent").rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def src_lines(src: Path) -> int:
    """Lines of the package's top-level modules, as ``cat chanent/*.py | wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (src / "chanent").glob("*.py"))


def machine(src: Path) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_sha": git(src, "rev-parse", "HEAD"),
        # uncommitted changes under --src: the timings are of the working tree
        "git_dirty": bool(git(src, "status", "--porcelain", "--", ".")),
        "src_sha256": src_digest(src),
        "src_lines": src_lines(src),
    }


def clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name.startswith("chanent"):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def ops_output(ops) -> bytes:
    """The exit code and output of each workload operation, run in turn."""
    out = []
    for op in ops:
        code, value = op.run()
        text = value if op.kind == "cli" else repr(value)
        out.append(str(code).encode() + b"\0" + text.encode())
    return b"".join(out)


def workload_digest(work_dir: Path) -> str:
    """SHA-256 of every benchmark workload operation's output on every input set, untimed."""
    import workloads

    digest = hashlib.sha256()
    for input_set in range(workloads.INPUT_SETS):
        inputs = workloads.make_inputs(input_set)
        for workload in workloads.OPS:
            clear_caches()
            digest.update(ops_output(workloads.build_ops(workload, inputs, work_dir)))
    return digest.hexdigest()


def cases(work_dir: Path) -> dict:
    """Case name -> callable returning the bytes (or contiguous array) to hash, or None."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import numpy as np
    import workloads
    from chanent import bitspace, boolfn, channels, entropy_analysis, listdecode

    inputs = workloads.make_inputs(SEED)
    mc_code = bitspace.make_code(f"random_linear:24,12,{inputs.code_seed}")

    def weights(n):
        def run():
            for lam in DENSITIES:
                entropy_analysis.subset_weights(n, lam)

        return run

    def build(spec):
        def run():
            return bitspace.make_code(spec).codewords

        return run

    def mc():
        reports = entropy_analysis.entropy_report(
            mc_code, [None], MC_ETAS, MC_ORDERS, MC_TRIALS, inputs.mc_seed
        )
        return repr([report.to_dict() for report in reports]).encode()

    linear20 = bitspace.make_code("random_linear:20,10,1")
    f20 = boolfn.from_code(linear20)

    def noise20():
        # the array itself is hashed through its buffer: no 8 MB copy in the timing
        return channels.noise_operator(f20, 0.2)

    def simulate(code, eps, trials=workloads.DECODE_SIM_TRIALS):
        # the decode workload's deltas at one eps, each at the theoretical list size
        decoders = [listdecode.DecoderConfig(n=code.n, eps=eps, delta=d) for d in (0.0, 0.05)]

        def run():
            if hasattr(listdecode, "simulate_grid"):
                # a tree whose simulate takes one eps and returns per-trial arrays
                sim = listdecode.simulate(code, eps, trials, inputs.mc_seed)
                stats = [sim.stats(cfg) for cfg in decoders]
            else:
                stats = listdecode.simulate(code, decoders, trials, inputs.mc_seed)
            return repr([row.to_dict() for row in stats]).encode()

        return run

    linear18 = bitspace.make_code(f"random_linear:18,8,{inputs.code_seed}")
    likely_cfgs = [
        listdecode.DecoderConfig(n=linear18.n, eps=eps, delta=delta)
        for eps, delta in workloads.LIKELY_GRID
    ]

    calibration_words = np.random.default_rng(SEED).integers(
        0, 1 << 32, CALIBRATION_WORDS, dtype=np.uint32
    )

    def likely():
        values = [listdecode.likely_probability(linear18, cfg) for cfg in likely_cfgs]
        return repr(values).encode()

    def cli(ops):
        return lambda: ops_output(ops)

    nonlinear = work_dir / "verify_nonlinear14.txt"
    nonlinear.write_text(
        workloads.codeword_file_text(inputs.nonlinear_words, workloads.NONLINEAR_N)
    )
    verify_args = ["verify", "--q", "2,3", "--eta", "0.3,0.5", "--format", "json"]
    verify_nonlinear = verify_args + ["--code", f"codewords-file:{nonlinear}"]
    verify_linear20 = verify_args + ["--code", "random_linear:20,10,1"]

    def projection(code, qs):
        masks = np.arange(1 << code.n, dtype=np.uint64)
        return lambda: entropy_analysis.projection_entropies(code, masks, qs)

    def laws(code):
        def run():
            laws = entropy_analysis.noisy_laws(code, VERIFY_EPS)
            return repr([law.cell_entropy for law in laws]).encode()

        return run

    nonlinear14 = bitspace.Code(n=workloads.NONLINEAR_N, codewords=inputs.nonlinear_words)
    rng = np.random.default_rng(SEED)
    words16 = rng.choice(1 << 16, KERNEL_WORDS, replace=False)
    code16 = bitspace.Code(n=16, codewords=tuple(sorted(words16.tolist())))

    return {
        "subset_weights.n16": weights(16),
        "subset_weights.n18": weights(18),
        "make_code.24_16": build("random_linear:24,16,1"),
        "make_code.24_20": build("random_linear:24,20,1"),
        "entropy_report.mc.24_12": mc,
        "cli.verify": cli(workloads.build_ops("verify", inputs, work_dir)),
        "cli.entropy": cli(workloads.build_ops("entropy", inputs, work_dir)),
        "cli.verify.nonlinear14": cli([workloads._cli_op("verify.nonlinear14", verify_nonlinear)]),
        "cli.verify.linear20": cli([workloads._cli_op("verify.linear20", verify_linear20)]),
        "projection_entropies.nonlinear14": projection(nonlinear14, (1.0, 2.0)),
        "projection_entropies.n16_1000": projection(code16, (1.0, 2.0, 3.0, 4.0)),
        "noisy_laws.nonlinear16": laws(code16),
        "subset_table.linear18": lambda: entropy_analysis.subset_renyi_values(linear18, (1.0,))[0],
        "noise_operator.n20": noise20,
        "simulate.24_12": simulate(mc_code, 0.2),
        "simulate.rm2_4": simulate(bitspace.make_code("reed_muller:2,4"), 0.3),
        "simulate.24_9_100": simulate(bitspace.make_code("random_linear:24,9,1"), 0.2, 100),
        "simulate.20_10_500": simulate(linear20, 0.2, 500),
        "cli.decode": cli(workloads.build_ops("decode", inputs, work_dir)),
        "likely_probability.18_8": likely,
        "calibration.sort": lambda: np.sort(calibration_words),
    }


def worker(src: Path) -> int:
    """Time the cases of one tree.

    The first reply, one JSON line, holds the case names and the tree's
    ``workload_sha256``.  Each stdin line is then a case name and a run
    count; the reply holds the mean time of those runs, each with fresh caches.
    """
    sys.path.insert(0, str(src))
    reply, sys.stdout = sys.stdout, sys.stderr  # the cases print nothing into the replies
    with tempfile.TemporaryDirectory() as tmp:
        table = cases(Path(tmp))
        hello = {"cases": list(table), "workload_sha256": workload_digest(Path(tmp))}
        print(json.dumps(hello), file=reply, flush=True)
        for line in sys.stdin:
            name, runs = line.split()
            fn = table[name]
            elapsed = 0.0
            for _ in range(int(runs)):
                clear_caches()
                start = time.perf_counter()
                out = fn()
                elapsed += time.perf_counter() - start
            digest = None if out is None else hashlib.sha256(out).hexdigest()
            answer = {"s": elapsed / int(runs), "sha256": digest}
            print(json.dumps(answer), file=reply, flush=True)
    return 0


def ask(proc, name: str, runs: int) -> dict:
    proc.stdin.write(f"{name} {runs}\n")
    proc.stdin.flush()
    return json.loads(proc.stdout.readline())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path, action="append",
                        help="a tree's package directory; twice to alternate two trees")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--label", action="append", help="one per --src (default: run)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    srcs = [src.resolve() for src in args.src]
    for src in srcs:
        if not (src / "chanent" / "__init__.py").is_file():
            parser.error(f"no chanent package under {src}")
    if args.worker:
        return worker(srcs[0])
    if args.out is None:
        parser.error("--out is required")
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if len(srcs) > 2:
        parser.error("at most two --src trees")
    labels = args.label or (["run"] if len(srcs) == 1 else [])
    if len(labels) != len(srcs) or len(set(labels)) != len(labels):
        parser.error("give each --src its own --label")

    procs = [
        subprocess.Popen(
            [sys.executable, __file__, "--worker", "--src", str(src)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        for src in srcs
    ]
    try:
        # every worker runs this file's cases, so each lists the same names
        hellos = [json.loads(proc.stdout.readline()) for proc in procs]
        names = hellos[0]["cases"]
        samples = {label: {} for label in labels}
        digests = {label: {} for label in labels}
        loops = {}
        for name in names:
            fastest = min(ask(proc, name, 1)["s"] for proc in procs)
            loops[name] = 1 if fastest >= SHORT_CASE_S else math.ceil(MIN_SAMPLE_S / fastest)
            for rep in range(args.repeats):
                order = range(len(procs)) if rep % 2 == 0 else reversed(range(len(procs)))
                for i in order:
                    answer = ask(procs[i], name, loops[name])
                    samples[labels[i]].setdefault(name, []).append(answer["s"])
                    if answer["sha256"] is not None:
                        digests[labels[i]][name] = answer["sha256"]
            for label in labels:
                median = statistics.median(samples[label][name])
                print(f"{label} {name}: median {median:.4f} s", file=sys.stderr)
    finally:
        for proc in procs:
            proc.stdin.close()
            proc.wait()

    stored = json.loads(args.out.read_text()) if args.out.is_file() else {}
    for src, label, hello in zip(srcs, labels, hellos):
        results = {}
        for name, times in samples[label].items():
            results[name] = {**quartiles(times), "inner_loops": loops[name]}
            if name in digests[label]:
                results[name]["output_sha256"] = digests[label][name]
        stored[label] = {
            "machine": machine(src),
            "seed": SEED,
            "repeats": args.repeats,
            "alternated_with": [other for other in labels if other != label],
            "workload_sha256": hello["workload_sha256"],
            "cases": results,
        }
    args.out.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
