"""Record the reference outputs the benchmark checks every run against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Run it from the root of a checkout of the commit whose outputs are the
reference (the commit that introduced the benchmark).  It runs every
operation of each workload on every input set and writes
``perfbench/reference/<workload>.json``.  Re-record only when a change
is meant to alter the outputs, and say so in that change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import workloads  # noqa: E402


def record(workload: str) -> dict:
    sets = {}
    for input_set in range(workloads.INPUT_SETS):
        with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
            ops = workloads.build_ops(workload, workloads.make_inputs(input_set), Path(tmp))
            outputs = {}
            for op in ops:
                code, value = op.run()
                if code != 0:
                    raise SystemExit(f"{workload} {op.key}: exit code {code}")
                outputs[op.key] = check.rows_of(op.kind, value)
        count = sum(len(rows) for rows in outputs.values())
        if count != workloads.ROWS[workload]:
            raise SystemExit(f"{workload}: {count} rows, expected {workloads.ROWS[workload]}")
        sets[str(input_set)] = outputs
        print(f"{workload}: input set {input_set} recorded", file=sys.stderr)
    return {"workload": workload, "input_sets": sets}


def main(names: list[str]) -> int:
    out_dir = HERE / "reference"
    out_dir.mkdir(exist_ok=True)
    for workload in names or list(workloads.ROWS):
        data = record(workload)
        (out_dir / f"{workload}.json").write_text(json.dumps(data, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
