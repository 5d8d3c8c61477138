"""Numerical verifiers for the noisy-entropy inequalities.

Each check returns a SlackReport with signed slack = RHS - LHS in
bits; the underlying theorems guarantee slack >= 0, so any slack below
-1e-9 indicates an implementation bug rather than a near-violation.

A check reads f = f_C, the distribution function of X uniform on a
code C, through the two objects of ``entropy_analysis``: its subset
statistics (``SubsetStats``), built once per code, and T_eps f through
its noisy law at eps (``NoisyFunction``, one of the stream
``noisy_laws``).  ``noisy_function`` gives the noisy law of any other f.

``check_law`` is the battery of ``verify`` at one law, in its row
order; a ``bsc_bec`` row outside its hypothesis is a skipped report,
one without sides.  Every row opens with the fields of ``_fields``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .boolfn import _require_unit_interval, binary_entropy, dim_of, h_q, validate
from .channels import noise_operator
from .entropy_analysis import NoisyFunction, SubsetStats, cond_entropy_bsc_of_law

TOLERANCE = 1e-9


class HypothesisViolation(ValueError):
    """Raised when a check is called outside its theorem's hypotheses."""


@dataclass(frozen=True)
class SlackReport:
    """A check's sides; a skipped check has none, no slack, and passes."""

    inequality: str
    params: dict = field(compare=False)
    lhs: float | None = None
    rhs: float | None = None

    @property
    def skipped(self) -> bool:
        return self.lhs is None

    @property
    def slack(self) -> float | None:
        return None if self.skipped else self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.skipped or self.slack >= -TOLERANCE

    def to_dict(self) -> dict:
        return {"inequality": self.inequality, **self.params, "lhs": self.lhs, "rhs": self.rhs,
                "slack": self.slack, "pass": self.passed, "skipped": self.skipped}


def _require_q(q) -> int:
    if not (isinstance(q, (int, np.integer)) or float(q).is_integer()) or q < 2:
        raise ValueError(f"the norm inequality requires integer q >= 2, got {q}")
    return int(q)


def noisy_function(f: np.ndarray, eps: float) -> NoisyFunction:
    """The noisy law of a general f: the dense noise operator, cells of one point."""
    noisy = noise_operator(validate(f), eps)
    n = dim_of(noisy)
    noisy *= 2.0**-n  # a power of two: exact unless an entry is subnormal
    noisy.flags.writeable = False
    return NoisyFunction(eps, n, 0, noisy)


def _fields(stats: SubsetStats, noisy: NoisyFunction, q: float = 1.0, label: str = "code") -> dict:
    """A row's leading fields {label: code name, n, eps}; the stats must hold q and the law's n."""
    if q not in stats.renyi:
        raise ValueError(f"subset statistics were built without q={q}")
    if noisy.n != stats.n:
        raise ValueError(f"noisy function has 2^{noisy.n} points, expected 2^{stats.n}")
    return {label: stats.code.name or "code", "n": stats.n, "eps": noisy.eps}


def check_sam_norm(stats: SubsetStats, noisy: NoisyFunction, q: int) -> SlackReport:
    """log2 ||T_eps f||_q <= E_{S~lam} log2 ||E(f|S)||_q, lam = 1 - h_q(eps)."""
    q = _require_q(q)
    row = _fields(stats, noisy, q, "f")
    lam = 1 - h_q(noisy.eps, q)
    lhs = noisy.log_norm(q)
    rhs = stats.expectation("log_norm", lam, q)
    return SlackReport("sam_norm", {**row, "q": q, "lambda": lam}, lhs, rhs)


def check_sam_entropy(stats: SubsetStats, noisy: NoisyFunction) -> SlackReport:
    """Ent[T_eps f] <= E_{S~lam} Ent[E(f|S)], lam = (1-2*eps)^2."""
    row = _fields(stats, noisy, label="f")
    lam = (1 - 2 * noisy.eps) ** 2
    lhs = noisy.ent
    rhs = stats.expectation("ent", lam)
    return SlackReport("sam_entropy", {**row, "lambda": lam}, lhs, rhs)


def check_cor_rv(stats: SubsetStats, noisy: NoisyFunction, q: int) -> SlackReport:
    """H_q(X+Z) >= (1-lam)*n + E_{S~lam} H_q(X_S), lam = 1 - h_q(eps)."""
    q = _require_q(q)
    row = _fields(stats, noisy, q)
    lam = 1 - h_q(noisy.eps, q)
    h_xz = noisy.renyi(q)
    bound = (1 - lam) * stats.n + stats.expectation("renyi", lam, q)
    # slack = H_q(X+Z) - lower bound
    return SlackReport("cor_rv", {**row, "q": q, "lambda": lam}, lhs=bound, rhs=h_xz)


def check_cor_rv_entropy(stats: SubsetStats, noisy: NoisyFunction) -> SlackReport:
    """H(X+Z) >= (1-lam)*n + E_{S~lam} H(X_S), lam = (1-2*eps)^2."""
    row = _fields(stats, noisy)
    lam = (1 - 2 * noisy.eps) ** 2
    h_xz = stats.n - noisy.ent
    bound = (1 - lam) * stats.n + stats.expectation("renyi", lam)
    return SlackReport("cor_rv_entropy", {**row, "lambda": lam}, lhs=bound, rhs=h_xz)


def check_bsc_bec(stats: SubsetStats, noisy: NoisyFunction, eta: float) -> SlackReport:
    """H(X|Y_BSC) <= (h(eps)-eta)*n + H(X|Y_BEC), for 4*eps*(1-eps) >= eta."""
    row = {**_fields(stats, noisy), "eta": eta}
    eps = noisy.eps
    _require_unit_interval("eta", [eta])
    if 4 * eps * (1 - eps) < eta:
        raise HypothesisViolation(f"hypothesis 4*eps*(1-eps) >= eta fails: eps={eps}, eta={eta}")
    code = stats.code
    lhs = cond_entropy_bsc_of_law(code, noisy)
    # H(X) - E H(X_S); the expectation does not depend on eps
    h_bec = code.log_size - stats.expectation("renyi", 1 - eta)
    rhs = (binary_entropy(eps) - eta) * code.n + h_bec
    return SlackReport("bsc_bec", row, lhs, rhs)


def check_law(
    stats: SubsetStats, noisy: NoisyFunction, qs: Sequence[int], etas: Sequence[float]
) -> list[SlackReport]:
    """Every row of ``verify`` at one law, in its order.

    cor_rv_entropy and sam_entropy, then cor_rv and sam_norm at each q,
    then bsc_bec at each eta: skipped, without sides, where
    4*eps*(1-eps) < eta.
    """
    reports = [check_cor_rv_entropy(stats, noisy), check_sam_entropy(stats, noisy)]
    for q in qs:
        reports += [check_cor_rv(stats, noisy, q), check_sam_norm(stats, noisy, q)]
    for eta in etas:
        try:
            reports.append(check_bsc_bec(stats, noisy, eta))
        except HypothesisViolation:
            reports.append(SlackReport("bsc_bec", {**_fields(stats, noisy), "eta": eta}))
    return reports
