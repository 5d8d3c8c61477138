"""Numerical verifiers for the noisy-entropy inequalities.

Each check returns a SlackReport with signed slack = RHS - LHS in
bits; the underlying theorems guarantee slack >= 0, so any slack below
-1e-9 indicates an implementation bug rather than a near-violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bitspace import Code
from .boolfn import (
    binary_entropy,
    dim_of,
    ent,
    h_q,
    norm_q,
    renyi_entropy_of_function,
    validate,
)
from .channels import noise_operator
from .entropy_analysis import (
    _cond_entropy_bsc_from,
    cond_entropy_bec,
    popcounts,
    subset_entropy_expectation,
    subset_weights,
)

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


# ---------------------------------------------------------------------------
# Per-subset statistics of a general nonnegative f.  They do not depend
# on eps (only the subset weights do), so callers build them once per
# function and pass them down the eps grid.


@dataclass(frozen=True)
class SubsetStats:
    """Ent[E(f|S)] and log2 ||E(f|S)||_q of f for every subset mask S."""

    f: np.ndarray  # read-only copy of the function
    ent: np.ndarray
    log_norm: dict[int, np.ndarray]  # q -> values per mask


def subset_stats(f: np.ndarray, qs) -> SubsetStats:
    """One O(3^n) pass over all subsets, for Ent and every requested q."""
    f = validate(f).copy()
    f.flags.writeable = False
    qs = tuple(dict.fromkeys(_require_q(q) for q in qs))
    n = dim_of(f)
    norm_sums = {q: np.empty(len(f)) for q in qs}
    ent_sums = np.empty(len(f))

    # Divide and conquer on the top remaining coordinate: leaving it out
    # of S averages the two halves, putting it in S stacks their fibers.
    # Visits each subset once with O(3^n) total element work.
    def visit(arr: np.ndarray, coord: int, mask: int) -> None:
        if coord < 0:
            vals = arr[:, 0]
            for q in qs:
                norm_sums[q][mask] = float(np.sum(vals**q))
            pos = vals > 0
            ent_sums[mask] = float(np.sum(vals[pos] * np.log2(vals[pos])))
            return
        half = arr.shape[1] // 2
        a, b = arr[:, :half], arr[:, half:]
        visit((a + b) * 0.5, coord - 1, mask)
        visit(np.concatenate([a, b], axis=0), coord - 1, mask | (1 << coord))

    visit(f.reshape(1, -1), n - 1, 0)

    sizes = np.exp2(popcounts(n))
    m = float(f.mean())
    return SubsetStats(
        f,
        ent_sums / sizes - m * math.log2(m),
        {q: np.log2(norm_sums[q] / sizes) / q for q in qs},
    )


def _require_q(q) -> int:
    if not (isinstance(q, (int, np.integer)) or float(q).is_integer()) or q < 2:
        raise ValueError(f"the norm inequality requires integer q >= 2, got {q}")
    return int(q)


# ---------------------------------------------------------------------------
# T_eps f depends only on (f, eps), so callers apply the noise operator
# once per eps and pass the result to every check at that eps.


@dataclass(frozen=True)
class NoisyFunction:
    """T_eps f together with the eps it was built for."""

    eps: float
    f: np.ndarray  # read-only T_eps f


def noisy_function(f: np.ndarray, eps: float) -> NoisyFunction:
    """Apply the noise operator to f once; the checks read eps from the result."""
    noisy = noise_operator(validate(f), eps)
    noisy.flags.writeable = False
    return NoisyFunction(eps, noisy)


def _require_dim(noisy: NoisyFunction, n: int) -> None:
    if len(noisy.f) != 1 << n:
        raise ValueError(f"noisy function has length {len(noisy.f)}, expected 2^{n}")


def check_sam_norm(
    stats: SubsetStats, noisy: NoisyFunction, q: int, name: str = "f"
) -> SlackReport:
    """log2 ||T_eps f||_q <= E_{S~lam} log2 ||E(f|S)||_q, lam = 1 - h_q(eps)."""
    q = _require_q(q)
    if q not in stats.log_norm:
        raise ValueError(f"subset statistics were built without q={q}")
    eps = noisy.eps
    lam = 1 - h_q(eps, q)
    n = dim_of(stats.f)
    _require_dim(noisy, n)
    lhs = math.log2(norm_q(noisy.f, q))
    rhs = float(subset_weights(n, lam) @ stats.log_norm[q])
    return SlackReport(
        "sam_norm", {"f": name, "n": n, "eps": eps, "q": q, "lambda": lam}, lhs, rhs
    )


def check_sam_entropy(stats: SubsetStats, noisy: NoisyFunction, name: str = "f") -> SlackReport:
    """Ent[T_eps f] <= E_{S~lam} Ent[E(f|S)], lam = (1-2*eps)^2."""
    eps = noisy.eps
    lam = (1 - 2 * eps) ** 2
    n = dim_of(stats.f)
    _require_dim(noisy, n)
    lhs = ent(noisy.f)
    rhs = float(subset_weights(n, lam) @ stats.ent)
    return SlackReport(
        "sam_entropy", {"f": name, "n": n, "eps": eps, "lambda": lam}, lhs, rhs
    )


def check_cor_rv(code: Code, noisy: NoisyFunction, q: int) -> SlackReport:
    """H_q(X+Z) >= (1-lam)*n + E_{S~lam} H_q(X_S), lam = 1 - h_q(eps)."""
    q = _require_q(q)
    eps = noisy.eps
    lam = 1 - h_q(eps, q)
    n = code.n
    _require_dim(noisy, n)
    lhs_side = renyi_entropy_of_function(noisy.f, q)
    rhs_side = (1 - lam) * n + subset_entropy_expectation(code, lam, q)
    # slack = H_q(X+Z) - lower bound
    return SlackReport(
        "cor_rv",
        {"code": code.name, "n": n, "eps": eps, "q": q, "lambda": lam},
        lhs=rhs_side,
        rhs=lhs_side,
    )


def check_cor_rv_entropy(code: Code, noisy: NoisyFunction) -> SlackReport:
    """H(X+Z) >= (1-lam)*n + E_{S~lam} H(X_S), lam = (1-2*eps)^2."""
    eps = noisy.eps
    lam = (1 - 2 * eps) ** 2
    n = code.n
    _require_dim(noisy, n)
    h_xz = n - ent(noisy.f)
    bound = (1 - lam) * n + subset_entropy_expectation(code, lam, 1.0)
    return SlackReport(
        "cor_rv_entropy",
        {"code": code.name, "n": n, "eps": eps, "lambda": lam},
        lhs=bound,
        rhs=h_xz,
    )


def check_bsc_bec(code: Code, noisy: NoisyFunction, eta: float) -> SlackReport:
    """H(X|Y_BSC) <= (h(eps)-eta)*n + H(X|Y_BEC), for 4*eps*(1-eps) >= eta."""
    eps = noisy.eps
    if not 0 <= eta <= 1:
        raise ValueError(f"eta={eta} outside [0, 1]")
    if 4 * eps * (1 - eps) < eta:
        raise HypothesisViolation(
            f"hypothesis 4*eps*(1-eps) >= eta fails: eps={eps}, eta={eta}"
        )
    n = code.n
    _require_dim(noisy, n)
    lhs = _cond_entropy_bsc_from(code, noisy.f, eps)
    rhs = (binary_entropy(eps) - eta) * n + cond_entropy_bec(code, eta)
    return SlackReport(
        "bsc_bec", {"code": code.name, "n": n, "eps": eps, "eta": eta}, lhs, rhs
    )


def partial_entropy_bound_check(p) -> SlackReport:
    """sum p_i log2(1/p_i) <= (sum p_i) log2 k + 1 for sub-distributions."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or len(p) == 0:
        raise ValueError("p must be a nonempty 1-d sequence")
    if np.any(p < 0):
        raise ValueError("p must be nonnegative")
    total = float(p.sum())
    if total > 1 + 1e-12:
        raise ValueError(f"sub-distribution sums to {total} > 1")
    pos = p[p > 0]
    lhs = float(-np.sum(pos * np.log2(pos)))
    rhs = total * math.log2(len(p)) + 1
    return SlackReport("partial_entropy", {"k": len(p), "mass": total}, lhs, rhs)
