"""Benchmark of the chanent CLI and library: one workload per run.

    python3 perfbench/run.py --workload {verify,entropy,decode} --seed N \
        --seconds S --trace {0,1}

Every pass of the workload runs in a fresh single-threaded interpreter
(``worker.py``), the way a CLI user pays for it, so no cache survives
from one pass to the next.  Passes repeat until the next one would end
after ``--seconds``; several set-up-only interpreters are started
first, so set-up time is a median too.

With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer ones: passes then
alternate between untraced and traced, and ``trace.overhead_s`` is the
difference of their median wall times.  The last line of standard
output is the JSON result; the lines before it print every metric with
its unit, the machine facts, and each pass.  The run's files stay in
``.perfbench_out/<workload>-seed<N>-trace<T>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 6
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever the program does
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def spawn(workload: str, seed: int, mode: str, work_dir: Path, timeout: float) -> dict:
    """Run one worker pass; returns its result plus set-up time and peak RSS."""
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "worker.py"), str(ROOT), workload, str(seed), mode]
    env = {**os.environ, **SINGLE_THREAD, "PYTHONHASHSEED": "0"}
    started = time.monotonic()
    proc = subprocess.Popen(
        [*argv, str(work_dir)], cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
    )
    waited = []
    reaper = threading.Thread(target=lambda: waited.append(os.wait4(proc.pid, 0)))
    reaper.start()
    reaper.join(max(timeout, 1.0))
    if reaper.is_alive():
        proc.kill()
        reaper.join()
    _, status, usage = waited[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    result_file = work_dir / "result.json"
    if proc.returncode != 0 or not result_file.is_file():
        return {"ok": False, "exit": proc.returncode}
    result = json.loads(result_file.read_text())
    result.update(
        ok=True,
        setup_s=result["ready"] - started,
        peak_rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
    )
    return result


def machine_facts(seed: int) -> dict:
    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "seed": seed,
        "input_set": workloads.make_inputs(seed).input_set,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        facts["cpu_model"] = models[0] if models else platform.processor()
    except OSError:
        facts["cpu_model"] = platform.processor()
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = (
                (index / name).read_text().strip() for name in ("level", "type", "size")
            )
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    facts["caches"] = caches
    return facts


def _git_sha() -> str | None:
    """HEAD's commit when the checkout is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROWS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chanent" / "__init__.py").is_file():
        print(f"error: no chanent sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    began = time.monotonic()
    run_dir = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - began)

    def one(mode: str, label: str) -> dict:
        return spawn(args.workload, args.seed, mode, run_dir / label, remaining())

    # compiles bytecode and warms the file cache, which users do not pay per run
    one("setup", "warmup")
    probes = [one("setup", f"setup{i}") for i in range(SETUP_PROBES)]

    modes = ["run", "trace"] if args.trace else ["run"]
    passes: list[dict] = []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - began
        if len(passes) >= len(modes) and elapsed + longest > args.seconds:
            break
        if longest > remaining():
            break
        mode = modes[len(passes) % len(modes)]
        t = time.monotonic()
        result = one(mode, f"pass{len(passes)}")
        result["mode"] = mode
        passes.append(result)
        longest = max(longest, time.monotonic() - t)

    attempted = failed = 0
    for p in passes:
        if p["ok"]:
            attempted += p["attempted"]
            failed += p["failed"]
        else:  # the interpreter died or was stopped: all its operations failed
            attempted += workloads.OPS[args.workload]
            failed += workloads.OPS[args.workload]
    good = [p for p in passes if p["ok"]]
    untraced = [p for p in good if p["mode"] == "run"]
    traced = [p for p in good if p["mode"] == "trace"]
    setups = [p for p in probes if p["ok"]] + untraced

    metrics: dict[str, float] = {}
    if untraced and setups:
        rows = workloads.ROWS[args.workload]
        metrics.update(
            wall_s=median_of(untraced, "wall_s"),
            setup_s=median_of(setups, "setup_s"),
            peak_rss_mb=median_of(untraced, "peak_rss_mb"),
            rows_per_s=statistics.median(rows / p["wall_s"] for p in untraced),
            ok_frac=(attempted - failed) / attempted,
            error_frac=failed / attempted,
        )
    if traced and untraced:
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(p["layers"][name] for p in traced)
        metrics["trace.wall_s"] = median_of(traced, "wall_s")
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["wall_s"]

    facts = machine_facts(args.seed)
    facts["numpy"] = good[0]["numpy"] if good else None
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("machine " + json.dumps(facts, sort_keys=True))
    for i, p in enumerate(probes):
        print(f"setup probe {i}: " + (f"{p['setup_s']:.4f} s" if p["ok"] else f"exit {p['exit']}"))
    for i, p in enumerate(passes):
        if not p["ok"]:
            print(f"pass {i} ({p['mode']}): interpreter exit {p['exit']}")
            continue
        print(
            f"pass {i} ({p['mode']}): setup {p['setup_s']:.4f} s, wall {p['wall_s']:.4f} s, "
            f"peak rss {p['peak_rss_mb']:.1f} MB, {p['attempted'] - p['failed']}"
            f"/{p['attempted']} operations ok"
        )
        for key, problems in p["failures"].items():
            print(f"  FAILED {key}: " + "; ".join(str(x) for x in problems)[:2000])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units["error_frac"] = "ratio"
    for name in [m["name"] for m in spec["end_to_end"]] + ["error_frac"]:
        if name in metrics:
            print(f"metric {name} = {metrics[name]!r} {units[name]}")
    if args.trace:
        for m in spec["per_layer"]:
            print(f"metric {m['name']} = {metrics.get(m['name'])!r} {m['unit']}")

    reported = {}
    for m in wanted:
        if m["name"] not in metrics:
            print(f"error: metric {m['name']} was not measured", file=sys.stderr)
            return 1
        reported[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "result.json").write_text(
        json.dumps({"machine": facts, "metrics": metrics, "probes": probes, "passes": passes},
                   indent=1)
    )
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": reported}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
