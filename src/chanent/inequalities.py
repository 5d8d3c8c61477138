"""Numerical verifiers for the noisy-entropy inequalities.

Each check returns a SlackReport with signed slack = RHS - LHS in
bits; the underlying theorems guarantee slack >= 0, so any slack below
-1e-9 indicates an implementation bug rather than a near-violation.

A check reads f = f_C, the distribution function of X uniform on a
code C, through the two objects of ``entropy_analysis``: its subset
statistics (``SubsetStats``), built once per code, and T_eps f through
its noisy law at eps (``NoisyFunction``, one of the stream
``noisy_laws``).  ``noisy_function`` gives the noisy law of any other f.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bitspace import Code
from .boolfn import _require_unit_interval, binary_entropy, dim_of, h_q, validate
from .channels import noise_operator
from .entropy_analysis import NoisyFunction, SubsetStats, cond_entropy_bsc_of_law

TOLERANCE = 1e-9


class HypothesisViolation(ValueError):
    """Raised when a check is called outside its theorem's hypotheses."""


@dataclass(frozen=True)
class SlackReport:
    inequality: str
    params: dict = field(compare=False)
    lhs: float = 0.0
    rhs: float = 0.0

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.slack >= -TOLERANCE

    def to_dict(self) -> dict:
        row = {"inequality": self.inequality}
        row.update(self.params)
        row.update({
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "pass": self.passed,
        })
        return row


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


def _code_of(stats: SubsetStats, noisy: NoisyFunction, q: float = 1.0) -> Code:
    """The code behind the statistics, which must hold its row H_q(X_S) and share the law's n."""
    if q not in stats.renyi:
        raise ValueError(f"subset statistics were built without q={q}")
    code = stats.code
    if noisy.n != code.n:
        raise ValueError(f"noisy function has 2^{noisy.n} points, expected 2^{code.n}")
    return code


def check_sam_norm(stats: SubsetStats, noisy: NoisyFunction, q: int) -> SlackReport:
    """log2 ||T_eps f||_q <= E_{S~lam} log2 ||E(f|S)||_q, lam = 1 - h_q(eps)."""
    q = _require_q(q)
    code = _code_of(stats, noisy, q)
    eps = noisy.eps
    lam = 1 - h_q(eps, q)
    n = code.n
    lhs = noisy.log_norm(q)
    rhs = stats.expectation("log_norm", lam, q)
    return SlackReport(
        "sam_norm", {"f": code.name, "n": n, "eps": eps, "q": q, "lambda": lam}, lhs, rhs
    )


def check_sam_entropy(stats: SubsetStats, noisy: NoisyFunction) -> SlackReport:
    """Ent[T_eps f] <= E_{S~lam} Ent[E(f|S)], lam = (1-2*eps)^2."""
    code = _code_of(stats, noisy)
    eps = noisy.eps
    lam = (1 - 2 * eps) ** 2
    n = code.n
    lhs = noisy.ent
    rhs = stats.expectation("ent", lam)
    return SlackReport(
        "sam_entropy", {"f": code.name, "n": n, "eps": eps, "lambda": lam}, lhs, rhs
    )


def check_cor_rv(stats: SubsetStats, noisy: NoisyFunction, q: int) -> SlackReport:
    """H_q(X+Z) >= (1-lam)*n + E_{S~lam} H_q(X_S), lam = 1 - h_q(eps)."""
    q = _require_q(q)
    code = _code_of(stats, noisy, q)
    eps = noisy.eps
    lam = 1 - h_q(eps, q)
    n = code.n
    lhs_side = noisy.renyi(q)
    rhs_side = (1 - lam) * n + stats.expectation("renyi", lam, q)
    # slack = H_q(X+Z) - lower bound
    return SlackReport(
        "cor_rv",
        {"code": code.name, "n": n, "eps": eps, "q": q, "lambda": lam},
        lhs=rhs_side,
        rhs=lhs_side,
    )


def check_cor_rv_entropy(stats: SubsetStats, noisy: NoisyFunction) -> SlackReport:
    """H(X+Z) >= (1-lam)*n + E_{S~lam} H(X_S), lam = (1-2*eps)^2."""
    code = _code_of(stats, noisy)
    eps = noisy.eps
    lam = (1 - 2 * eps) ** 2
    n = code.n
    h_xz = n - noisy.ent
    bound = (1 - lam) * n + stats.expectation("renyi", lam)
    return SlackReport(
        "cor_rv_entropy",
        {"code": code.name, "n": n, "eps": eps, "lambda": lam},
        lhs=bound,
        rhs=h_xz,
    )


def check_bsc_bec(stats: SubsetStats, noisy: NoisyFunction, eta: float) -> SlackReport:
    """H(X|Y_BSC) <= (h(eps)-eta)*n + H(X|Y_BEC), for 4*eps*(1-eps) >= eta."""
    code = _code_of(stats, noisy)
    eps = noisy.eps
    _require_unit_interval("eta", [eta])
    if 4 * eps * (1 - eps) < eta:
        raise HypothesisViolation(
            f"hypothesis 4*eps*(1-eps) >= eta fails: eps={eps}, eta={eta}"
        )
    n = code.n
    lhs = cond_entropy_bsc_of_law(code, noisy)
    # H(X) - E H(X_S); the expectation does not depend on eps
    h_bec = code.log_size - stats.expectation("renyi", 1 - eta)
    rhs = (binary_entropy(eps) - eta) * n + h_bec
    return SlackReport(
        "bsc_bec", {"code": code.name, "n": n, "eps": eps, "eta": eta}, lhs, rhs
    )
