"""Output checks: each operation's rows against the seed commit's reference.

* Exact fields (every numeric field not named below) must lie within
  ``EXACT_TOL`` of the reference; other fields must be equal.
* Monte Carlo fields must lie within ``MC_SIGMAS`` standard errors of
  the reference, the standard error taken from the reference row.
* Every CLI invocation must exit 0; in ``verify`` every non-skipped
  slack must also be at least ``-EXACT_TOL``.
* Row counts must match the reference.
"""

from __future__ import annotations

import json
import math

EXACT_TOL = 1e-9
MC_SIGMAS = 4.0


def _rate_se(p: float, trials: int) -> float:
    # floored at one trial so a rate recorded as 0 still admits a few events
    return max(math.sqrt(max(p * (1 - p), 0.0) / trials), 1.0 / trials)


def _count_se(field: str):
    return lambda ref: ref["trials"] * _rate_se(ref[field] / ref["trials"], ref["trials"])


# Standard error of each Monte Carlo field, from the reference row.
MC_FIELDS = {
    "entropy.mc": {
        "E_S_HqXS": lambda ref: ref["stderr"],
        "H_X_given_Ybec": lambda ref: ref["stderr"],
    },
    "decode.sim": {
        "error_rate": lambda ref: _rate_se(ref["error_rate"], ref["trials"]),
        "successes": _count_se("successes"),
        "truncations": _count_se("truncations"),
        "heavy_noise": _count_se("heavy_noise"),
    },
}

# Sample statistics without a standard error in the output.
UNCHECKED = {
    "entropy.mc": {"stderr"},
    "decode.sim": {"error_stderr", "list_min", "list_mean", "list_max"},
}


def rows_of(kind: str, raw) -> list:
    """Result rows of an operation's raw output."""
    if kind == "cli":
        return json.loads(raw)
    return [{"value": raw}]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare_row(key: str, row: dict, ref: dict) -> list[str]:
    if set(row) != set(ref):
        return [f"fields {sorted(set(row) ^ set(ref))} differ from the reference"]
    mc = MC_FIELDS.get(_group(key), {})
    skip = UNCHECKED.get(_group(key), set())
    problems = []
    for field, want in ref.items():
        got = row[field]
        if field in skip:
            continue
        if field in mc and _is_number(got) and _is_number(want):
            tol = MC_SIGMAS * mc[field](ref)
        elif _is_number(got) and _is_number(want):
            tol = EXACT_TOL
        else:
            if got != want:
                problems.append(f"{field}={got!r}, reference {want!r}")
            continue
        if not abs(got - want) <= tol:
            problems.append(f"{field}={got!r}, reference {want!r} (tolerance {tol:.3g})")
    return problems


def _group(key: str) -> str:
    return key.split(":", 1)[0]


def check_op(key: str, exit_code: int, rows: list, ref: list) -> list[str]:
    """Every problem found in one operation's output; empty when it passes."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if len(rows) != len(ref):
        problems.append(f"{len(rows)} rows, reference {len(ref)}")
        return problems
    if key == "verify":
        for i, row in enumerate(rows):
            slack = row.get("slack")
            if not row.get("skipped") and slack is not None and not slack >= -EXACT_TOL:
                problems.append(f"row {i}: slack {slack!r} below {-EXACT_TOL}")
    for i, (row, want) in enumerate(zip(rows, ref)):
        problems += [f"row {i}: {p}" for p in compare_row(key, row, want)]
    return problems
