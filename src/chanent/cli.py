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
from functools import partial
from pathlib import Path

from . import bitspace, entropy_analysis, inequalities, listdecode
from .boolfn import _require_unit_interval
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
        fields = dict.fromkeys(k for row in rows for k in row)
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
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


def _seed(s: str) -> int:
    """A --seed value: numpy seeds its generators with non-negative integers only."""
    try:
        seed = int(s)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {s!r}")
    return seed


def _orders(s: str) -> list[int]:
    """A verify --q value: the norm inequality takes integer orders q >= 2 only."""
    try:
        qs = _int_list(s)
    except ValueError:
        qs = None
    if qs is None or any(q < 2 for q in qs):
        raise argparse.ArgumentTypeError(f"expected comma-separated integers >= 2, got {s!r}")
    return qs


def cmd_entropy(args, codes: list[bitspace.Code]) -> int:
    grids = args.eps or [None], args.eta or [None], args.q or [1.0]
    rows = []
    for code in codes:
        reports = entropy_analysis.entropy_report(code, *grids, args.trials, args.seed)
        rows += [report.to_dict() for report in reports]
    emit(rows, args)
    return 0


def cmd_verify(args, codes: list[bitspace.Code]) -> int:
    eps_grid = args.eps or [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45]
    eta_grid = args.eta or []
    qs = args.q or [2, 3, 4]
    # every check enumerates all subsets: refuse an oversized code or a bad grid before any work
    for code in codes:
        bitspace.require_exact_cap(code.n)
    _require_unit_interval("eps", eps_grid)
    _require_unit_interval("eta", eta_grid)
    reports = []
    for code in codes:
        stats = entropy_analysis.subset_stats_of_code(code, qs)
        laws = entropy_analysis.noisy_laws(code, eps_grid)
        # map keeps no law past its checks, so each chunk of laws is freed before the next pass
        for checked in map(partial(inequalities.check_law, stats, qs=qs, etas=eta_grid), laws):
            reports += checked
    # every eps gives a cor_rv_entropy and a sam_entropy row, so some row was not skipped
    worst = min((rep for rep in reports if not rep.skipped), key=lambda rep: rep.slack)
    all_pass = all(rep.passed for rep in reports)
    name = worst.params.get("code") or worst.params.get("f")
    summary = {"inequality": "summary", "pass": all_pass, "skipped": False,
               "slack": worst.slack, "code": name, "argmin": worst.inequality}
    rows = [*(rep.to_dict() for rep in reports), summary]
    emit(rows, args)
    return 0 if all_pass else 1


def _decoder(
    code: bitspace.Code, eps: float, delta: float, list_cap: int | None
) -> tuple[DecoderConfig, int, int]:
    """A decoder, the list cap it applies to the code and the theoretical list size."""
    cfg = DecoderConfig(n=code.n, eps=eps, delta=delta, list_cap=list_cap)
    k_theory = listdecode.theoretical_list_size(code.rate, cfg.effective_eps, delta, code.n)
    return cfg, cfg.cap_for(code), k_theory


def cmd_decode_sim(args, codes: list[bitspace.Code]) -> int:
    if args.seed is None:
        print("error: decode-sim requires --seed", file=sys.stderr)
        return 2
    eps_grid = args.eps or [0.1]
    deltas = args.delta or [0.0]
    # validate every decoder, and take its list size once, before the first pass
    grids = [
        [_decoder(code, eps, delta, args.list_cap) for eps in eps_grid for delta in deltas]
        for code in codes
    ]
    rows = []
    for code, decoders in zip(codes, grids):
        cfgs = [cfg for cfg, _, _ in decoders]
        results = listdecode.simulate(code, cfgs, args.trials, args.seed)
        for (cfg, cap, k_theory), stats in zip(decoders, results):
            rs_exp, rs_in_hyp = listdecode.rs22_lower_bound(code.rate, cfg.effective_eps, code.n)
            rows.append(
                {
                    "code": code.name,
                    "n": code.n,
                    "eps": cfg.eps,
                    "delta": cfg.delta,
                    "k": cap,
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
    p_ver.add_argument("--q", type=_orders, help="comma-separated integer orders >= 2")
    p_ver.set_defaults(func=cmd_verify)

    p_dec = sub.add_parser(
        "decode-sim",
        help="list-decoding simulation",
        description="Distance ties at the list cap are broken uniformly at random. "
        "One pass per code serves its whole --eps grid from shared draws, "
        "so it holds 8 bytes per trial for the tie-breaking uniform and 4 more "
        "per trial per eps: 50 eps at 10^6 trials hold about 200 MB of noise.",
    )
    common(p_dec)
    p_dec.add_argument("--delta", type=_float_list, help="comma-separated delta grid")
    p_dec.add_argument("--list-cap", type=int, default=None)
    p_dec.set_defaults(func=cmd_decode_sim)
    # each subcommand takes only the flags it reads
    for p in (p_ent, p_ver):
        p.add_argument("--eta", type=_float_list, help="comma-separated BEC eta grid")
    for p in (p_ent, p_dec):
        p.add_argument("--seed", type=_seed, default=None)
        p.add_argument("--trials", type=int, default=10000)

    return parser


def _unique_grids(args) -> None:
    """Fold --lambda into --eta, then keep each code and grid value once, in first-seen order.

    A repeated value would repeat its rows.
    """
    if getattr(args, "lam", None):
        # checked here: past the fold a bad lam would be reported as an eta
        _require_unit_interval("lambda", args.lam)
        # a subset density lam is the same configuration as erasure eta = 1 - lam
        args.eta = [*(args.eta or []), *(1 - lam for lam in args.lam)]
    for key, value in list(vars(args).items()):
        if isinstance(value, list):
            setattr(args, key, list(dict.fromkeys(value)))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _unique_grids(args)
        codes = sorted(map(resolve_code, args.code), key=lambda c: (c.n, c.name))
        return args.func(args, codes)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
