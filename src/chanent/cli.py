"""Command-line frontend: entropy sweeps, inequality batteries, decoding sims.

Exit codes: 0 = all checks pass, 1 = inequality violation, 2 = usage or
parse error.  Output rows are sorted by configuration key and floats are
rendered with 12 significant digits, so reruns with the same seed are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from . import bitspace, entropy_analysis, inequalities, listdecode
from .listdecode import DecoderConfig


def resolve_code(spec: str) -> bitspace.Code:
    if spec.startswith("generator-file:"):
        path = Path(spec.split(":", 1)[1])
        return bitspace.parse_generator_file(path.read_text(), name=path.name)
    if spec.startswith("codewords-file:"):
        path = Path(spec.split(":", 1)[1])
        return bitspace.parse_codeword_file(path.read_text(), name=path.name)
    return bitspace.make_code(spec)


def _fmt(v):
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    return float(f"{v:.12g}")


def format_rows(rows: list[dict], fmt: str) -> str:
    rows = [{k: _fmt(v) for k, v in row.items()} for row in rows]
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        fields: list[str] = []
        for row in rows:
            for k in row:
                if k not in fields:
                    fields.append(k)
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if v is None else v) for k, v in row.items()})
        return buf.getvalue()
    raise ValueError(f"unknown format {fmt!r}")


def emit(rows: list[dict], args) -> None:
    text = format_rows(rows, args.format)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _float_list(s: str) -> list[float]:
    return [float(t) for t in s.split(",") if t.strip()]


def _int_list(s: str) -> list[int]:
    return [int(t) for t in s.split(",") if t.strip()]


def cmd_entropy(args) -> int:
    codes = [resolve_code(s) for s in args.code]
    # a subset density lam is the same configuration as erasure eta = 1 - lam
    eta_grid = [*(args.eta or []), *(1 - lam for lam in args.lam or [])] or [None]
    rows = []
    for code in sorted(codes, key=lambda c: (c.n, c.name)):
        reports = entropy_analysis.entropy_report(
            code, args.eps or [None], eta_grid, args.q or [1.0], args.trials, args.seed
        )
        rows += [report.to_dict() for report in reports]
    emit(rows, args)
    return 0


def cmd_verify(args) -> int:
    codes = [resolve_code(s) for s in args.code]
    eps_grid = args.eps or [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]
    eta_grid = args.eta or []
    # a repeated order would repeat its rows
    qs = list(dict.fromkeys(args.q or [2, 3, 4]))
    # every check enumerates all subsets: refuse an oversized code before any work
    for code in codes:
        entropy_analysis.require_subset_cap(code.n)
    rows = []
    reports = []
    for code in sorted(codes, key=lambda c: (c.n, c.name)):
        stats = inequalities.subset_stats_of_code(code, qs)
        for eps in eps_grid:
            noisy = inequalities.noisy_function(stats.f, eps)
            checks = [
                inequalities.check_cor_rv_entropy(code, noisy),
                inequalities.check_sam_entropy(stats, noisy, name=code.name),
            ]
            for q in qs:
                checks.append(inequalities.check_cor_rv(code, noisy, q))
                checks.append(inequalities.check_sam_norm(stats, noisy, q, name=code.name))
            for rep in checks:
                reports.append(rep)
                rows.append({**rep.to_dict(), "skipped": False})
            for eta in eta_grid:
                try:
                    rep = inequalities.check_bsc_bec(code, noisy, eta)
                except inequalities.HypothesisViolation:
                    rows.append(
                        {
                            "inequality": "bsc_bec",
                            "code": code.name,
                            "n": code.n,
                            "eps": eps,
                            "eta": eta,
                            "lhs": None,
                            "rhs": None,
                            "slack": None,
                            "pass": True,
                            "skipped": True,
                        }
                    )
                    continue
                reports.append(rep)
                rows.append({**rep.to_dict(), "skipped": False})
    worst = min(reports, key=lambda r: r.slack) if reports else None
    all_pass = all(r.passed for r in reports)
    summary = {
        "inequality": "summary",
        "pass": all_pass,
        "skipped": False,
    }
    if worst is not None:
        summary.update(
            {"slack": worst.slack, "code": worst.params.get("code") or worst.params.get("f")}
        )
        summary["argmin"] = worst.inequality
    rows.append(summary)
    emit(rows, args)
    return 0 if all_pass else 1


def cmd_decode_sim(args) -> int:
    if args.seed is None:
        print("error: decode-sim requires --seed", file=sys.stderr)
        return 2
    codes = [resolve_code(s) for s in args.code]
    eps_grid = args.eps or [0.1]
    deltas = args.delta or [0.0]
    rows = []
    for code in sorted(codes, key=lambda c: (c.n, c.name)):
        for eps in eps_grid:
            # validate every decoder before the pass they share
            cfgs = [
                DecoderConfig(n=code.n, eps=eps, delta=delta, list_cap=args.list_cap)
                for delta in deltas
            ]
            decoded = listdecode.simulate(code, eps, args.trials, args.seed)
            for cfg in cfgs:
                stats = decoded.stats(cfg)
                k_theory = listdecode.theoretical_list_size(
                    code.rate, cfg.effective_eps, cfg.delta, code.n
                )
                rs_exp, rs_in_hyp = listdecode.rs22_lower_bound(
                    code.rate, cfg.effective_eps, code.n
                )
                rows.append(
                    {
                        "code": code.name,
                        "n": code.n,
                        "eps": eps,
                        "delta": cfg.delta,
                        "k": cfg.cap_for(code),
                        "k_theoretical": k_theory,
                        "rs22_log2_lower_bound": rs_exp,
                        "rs22_in_hypothesis": rs_in_hyp,
                        "seed": args.seed,
                        **stats.to_dict(),
                    }
                )
    emit(rows, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chanent",
        description="Entropy, inequality, and list-decoding computations "
        "for binary codes over BSC/BEC channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--code",
            action="append",
            required=True,
            help="code spec, e.g. repetition:3, hamming74, reed_muller:1,3, "
            "random_linear:12,4,7, generator-file:PATH, codewords-file:PATH "
            "(repeatable)",
        )
        p.add_argument("--eps", type=_float_list, help="comma-separated BSC eps grid")
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p_ent = sub.add_parser("entropy", help="entropy sweeps")
    common(p_ent)
    p_ent.add_argument("--q", type=_float_list, help="comma-separated Renyi orders")
    p_ent.add_argument(
        "--lambda",
        dest="lam",
        type=_float_list,
        help="comma-separated subset densities (same rows as eta = 1 - lambda)",
    )
    p_ent.set_defaults(func=cmd_entropy)

    p_ver = sub.add_parser("verify", help="inequality battery")
    common(p_ver)
    p_ver.add_argument("--q", type=_int_list, help="comma-separated integer orders >= 2")
    p_ver.set_defaults(func=cmd_verify)

    p_dec = sub.add_parser("decode-sim", help="list-decoding simulation")
    common(p_dec)
    p_dec.add_argument("--delta", type=_float_list, help="comma-separated delta grid")
    p_dec.add_argument("--list-cap", type=int, default=None)
    p_dec.set_defaults(func=cmd_decode_sim)
    # each subcommand takes only the flags it reads
    for p in (p_ent, p_ver):
        p.add_argument("--eta", type=_float_list, help="comma-separated BEC eta grid")
    for p in (p_ent, p_dec):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=10000)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
