"""One benchmark pass in a fresh, single-threaded interpreter.

    python3 worker.py ROOT WORKLOAD SEED MODE WORK_DIR

MODE is ``setup`` (set up, then exit), ``run`` (set up, run the
workload's operations, check their outputs) or ``trace`` (the same with
every chanent layer wrapped by the span recorder).  The pass writes
``WORK_DIR/result.json``; set-up ends at ``ready``, read on the
monotonic clock, which the parent shares, so the parent times set-up
from the moment it started this interpreter.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    root, workload, seed, mode, work_dir = argv
    work_dir = Path(work_dir)
    sys.path.insert(0, str(Path(root) / "src"))
    import chanent  # noqa: F401  (set-up includes importing the package)
    import numpy

    import check
    import workloads

    recorder = None
    if mode == "trace":
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)

    inputs = workloads.make_inputs(int(seed))
    ops = workloads.build_ops(workload, inputs, work_dir)
    result = {"ready": time.monotonic(), "numpy": numpy.__version__}
    if mode != "setup":
        start = time.perf_counter()
        raw = []
        for op in ops:
            try:
                raw.append(op.run())
            except Exception:  # a failed operation is counted, not fatal
                raw.append((None, traceback.format_exc(limit=-3)))
        end = time.perf_counter()

        reference = json.loads((HERE / "reference" / f"{workload}.json").read_text())
        expected = reference["input_sets"][str(inputs.input_set)]
        failures = {}
        for op, (code, value) in zip(ops, raw):
            if code is None:
                failures[op.key] = [value]
                continue
            try:
                out = check.rows_of(op.kind, value)
            except ValueError as exc:
                failures[op.key] = [f"unparseable output: {exc}"]
                continue
            problems = check.check_op(op.key, code, out, expected[op.key])
            if problems:
                failures[op.key] = problems[:10]
        result.update(
            wall_s=end - start,
            attempted=len(ops),
            failed=len(failures),
            failures=failures,
        )
        if recorder is not None:
            result["layers"] = recorder.summary(start, end)
            recorder.dump(work_dir / "spans.json")
    (work_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
