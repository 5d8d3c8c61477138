"""Numerical verifiers for the noisy-entropy inequalities.

Each check returns a SlackReport with signed slack = RHS - LHS in
bits; the underlying theorems guarantee slack >= 0, so any slack below
-1e-9 indicates an implementation bug rather than a near-violation.

A check reads f = f_C, the distribution function of X uniform on a
code C, through its subset statistics and T_eps f through its noisy law
(``NoisyFunction``): the law of X+Z over cells that are the cosets of
the code's kernel, which is C when the code has a generator and {0}
otherwise (``noisy_law``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bitspace import Code
from .boolfn import (
    binary_entropy,
    dim_of,
    h_q,
    renyi_entropy,
    renyi_entropy_from_counts,
    validate,
)
from .channels import _eps_chunks, noise_operator
from .entropy_analysis import (
    cond_entropy_bsc_of_law,
    law_cells,
    noise_laws,
    popcounts,
    require_subset_cap,
    subset_rows,
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
# Per-subset statistics of f = f_C, the distribution function of X
# uniform on a code C.  They do not depend on eps (only the subset
# weights do), so callers build them once per code and pass them down
# the eps grid.  E(f|S)(x) = 2^|S| Pr[X_S = x_S], so every code, linear
# or not, has them in closed form from its one subset table of H_q(X_S)
# (``subset_stats_of_code``); those rows also give the code checks their
# E_{S~lam} H_q(X_S).


@dataclass(frozen=True)
class SubsetStats:
    """Ent[E(f_C|S)] and log2 ||E(f_C|S)||_q of a code's f_C, for every subset mask S.

    They hold no copy of f_C: the noisy law's cells are the cosets of the
    code's kernel, which is C when the code has a generator and {0} otherwise.
    """

    code: Code
    ent: np.ndarray
    log_norm: dict[int, np.ndarray]  # q -> values per mask
    renyi: dict[float, np.ndarray]  # q -> H_q(X_S) per mask, q = 1 included
    # (row, q, lam) -> E_{S~lam} of that row, and the weights of the last lam
    _expected: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _weights: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.code.n

    def expectation(self, row: str, lam: float, q: float | None = None) -> float:
        """E_{S~lam} of a per-mask row: ``ent``, or ``log_norm`` / ``renyi`` at order q.

        Each (row, q, lam) is computed once, as ``subset_weights(n, lam) @ row``.
        The weights of the last lam are kept, so checks that ask for
        several rows at one lam in turn share one gather; they are
        dropped before the next lam's weights are built, so at most one
        2^n weight array is alive.
        """
        key = (row, q, lam)
        if key not in self._expected:
            values = getattr(self, row)
            values = values if q is None else values[q]
            if self._weights.get("lam") != lam:
                self._weights.clear()
                self._weights.update(lam=lam, w=subset_weights(self.n, lam))
            self._expected[key] = float(self._weights["w"] @ values)
        return self._expected[key]


def subset_stats_of_code(code: Code, qs) -> SubsetStats:
    """Subset statistics of f_C, the distribution function of X uniform on the code.

    E(f|S) is 2^|S| times the law of X_S, so Ent[E(f|S)] = |S| - H(X_S)
    and log2 ||E(f|S)||_q = (|S| - H_q(X_S)) (1 - 1/q), with H_q(X_S)
    read from the code's one subset table for the orders {1} and qs.
    """
    require_subset_cap(code.n)
    qs = tuple(dict.fromkeys(_require_q(q) for q in qs))
    orders = (1.0, *qs)
    renyi = dict(zip(orders, subset_rows(code, orders)))
    sizes = popcounts(code.n)
    log_norm = {q: np.subtract(sizes, renyi[q]) for q in qs}
    for q, free in log_norm.items():
        free *= 1 - 1 / q  # in place: no 2^n temporary per order
    return SubsetStats(code, sizes - renyi[1.0], log_norm, renyi)


def _require_q(q) -> int:
    if not (isinstance(q, (int, np.integer)) or float(q).is_integer()) or q < 2:
        raise ValueError(f"the norm inequality requires integer q >= 2, got {q}")
    return int(q)


# ---------------------------------------------------------------------------
# T_eps f depends only on (f, eps), so callers build its law once per eps
# and pass it to every check at that eps.  The checks read it only
# through n, Ent, log2 ||.||_q and H_q, so a law whose cells are cosets
# serves them as well as the dense T_eps f does.


@dataclass(frozen=True, eq=False)
class NoisyFunction:
    """The noisy law of f: T_eps f as 2^(n-k) cells of 2^k points each.

    ``p`` is the read-only probability of each cell, and T_eps f is
    2^(n-k) p(cell) on every point of a cell.  For f_C (``noisy_laws``) p is
    the law of X+Z: the cells are the cosets of the code's kernel, which is
    C when the code has a generator and {0} otherwise.  For any other f, k = 0 and
    p = T_eps f / 2^n, which sums to the mean of f.  With m = sum p:

    * log2 ||T_eps f||_q = (n-k)(1 - 1/q) + log2(sum p^q) / q;
    * Ent[T_eps f] = m ((n-k) - H(p / m)), so (n-k) - H(p) for a distribution;
    * H_q(X+Z) = k + H_q(p) when T_eps f is the distribution function of X+Z.
    """

    eps: float
    n: int
    k: int  # cell exponent: each cell holds 2^k points
    p: np.ndarray  # read-only probability of each cell

    @cached_property
    def cell_entropy(self) -> float:
        """H(p / sum p), taken once: ``ent`` and every eta of ``check_bsc_bec`` read it."""
        return renyi_entropy_from_counts(self.p, 1)

    @cached_property
    def ent(self) -> float:
        """Ent[T_eps f], taken once and read by every check at this eps."""
        m = float(self.p.sum())
        return m * (self.n - self.k - self.cell_entropy)

    def log_norm(self, q: float) -> float:
        """log2 ||T_eps f||_q."""
        return (self.n - self.k) * (1 - 1 / q) + math.log2(float(np.sum(self.p**q))) / q

    def renyi(self, q: float) -> float:
        """H_q of the X whose distribution function is T_eps f."""
        return self.k + renyi_entropy(self.p, q)


def noisy_function(f: np.ndarray, eps: float) -> NoisyFunction:
    """The noisy law of a general f: the dense noise operator, cells of one point."""
    noisy = noise_operator(validate(f), eps)
    n = dim_of(noisy)
    noisy *= 2.0**-n  # a power of two: exact unless an entry is subnormal
    noisy.flags.writeable = False
    return NoisyFunction(eps, n, 0, noisy)


def law_chunks(stats: SubsetStats, eps_grid) -> list[list[float]]:
    """The eps grid in order, in chunks whose noisy laws hold at most 2^20 cells together.

    A code's law has 2^m cells (``law_cells``).  A caller that builds the
    laws of one chunk (``noisy_laws``) and drops them before the next
    bounds the memory of a long grid, or of laws of 2^19 cells.
    """
    return _eps_chunks(eps_grid, law_cells(stats.code))


def noisy_laws(stats: SubsetStats, eps_grid) -> list[NoisyFunction]:
    """The noisy law of the code behind the statistics at each eps of the grid.

    The laws of X+Z from one XOR-shift pass (``noise_laws``), so no copy of f_C is built.
    """
    code = stats.code
    k = code.n - law_cells(code)
    laws = noise_laws(code, eps_grid)
    return [NoisyFunction(eps, code.n, k, p) for eps, p in zip(eps_grid, laws)]


def noisy_law(stats: SubsetStats, eps: float) -> NoisyFunction:
    """The noisy law of the code behind the statistics, at eps: ``noisy_laws`` at one eps."""
    return noisy_laws(stats, [eps])[0]


def _require_dim(noisy: NoisyFunction, n: int) -> None:
    if noisy.n != n:
        raise ValueError(f"noisy function has 2^{noisy.n} points, expected 2^{n}")


def check_sam_norm(stats: SubsetStats, noisy: NoisyFunction, q: int) -> SlackReport:
    """log2 ||T_eps f||_q <= E_{S~lam} log2 ||E(f|S)||_q, lam = 1 - h_q(eps)."""
    q = _require_q(q)
    if q not in stats.log_norm:
        raise ValueError(f"subset statistics were built without q={q}")
    eps = noisy.eps
    lam = 1 - h_q(eps, q)
    n = stats.n
    _require_dim(noisy, n)
    lhs = noisy.log_norm(q)
    rhs = stats.expectation("log_norm", lam, q)
    return SlackReport(
        "sam_norm", {"f": stats.code.name, "n": n, "eps": eps, "q": q, "lambda": lam}, lhs, rhs
    )


def check_sam_entropy(stats: SubsetStats, noisy: NoisyFunction) -> SlackReport:
    """Ent[T_eps f] <= E_{S~lam} Ent[E(f|S)], lam = (1-2*eps)^2."""
    eps = noisy.eps
    lam = (1 - 2 * eps) ** 2
    n = stats.n
    _require_dim(noisy, n)
    lhs = noisy.ent
    rhs = stats.expectation("ent", lam)
    return SlackReport(
        "sam_entropy", {"f": stats.code.name, "n": n, "eps": eps, "lambda": lam}, lhs, rhs
    )


def _code_of(stats: SubsetStats, q: float) -> Code:
    """The code behind the statistics, which must hold its row H_q(X_S)."""
    if q not in stats.renyi:
        raise ValueError(f"subset statistics were built without q={q}")
    return stats.code


def check_cor_rv(stats: SubsetStats, noisy: NoisyFunction, q: int) -> SlackReport:
    """H_q(X+Z) >= (1-lam)*n + E_{S~lam} H_q(X_S), lam = 1 - h_q(eps)."""
    q = _require_q(q)
    code = _code_of(stats, q)
    eps = noisy.eps
    lam = 1 - h_q(eps, q)
    n = code.n
    _require_dim(noisy, n)
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
    code = _code_of(stats, 1.0)
    eps = noisy.eps
    lam = (1 - 2 * eps) ** 2
    n = code.n
    _require_dim(noisy, n)
    h_xz = n - noisy.ent
    bound = (1 - lam) * n + stats.expectation("renyi", lam, 1.0)
    return SlackReport(
        "cor_rv_entropy",
        {"code": code.name, "n": n, "eps": eps, "lambda": lam},
        lhs=bound,
        rhs=h_xz,
    )


def check_bsc_bec(stats: SubsetStats, noisy: NoisyFunction, eta: float) -> SlackReport:
    """H(X|Y_BSC) <= (h(eps)-eta)*n + H(X|Y_BEC), for 4*eps*(1-eps) >= eta."""
    code = _code_of(stats, 1.0)
    eps = noisy.eps
    if not 0 <= eta <= 1:
        raise ValueError(f"eta={eta} outside [0, 1]")
    if 4 * eps * (1 - eps) < eta:
        raise HypothesisViolation(
            f"hypothesis 4*eps*(1-eps) >= eta fails: eps={eps}, eta={eta}"
        )
    n = code.n
    _require_dim(noisy, n)
    lhs = cond_entropy_bsc_of_law(code, eps, noisy.k, noisy.cell_entropy)
    # H(X) - E H(X_S); the expectation does not depend on eps
    h_bec = code.log_size - stats.expectation("renyi", 1 - eta, 1.0)
    rhs = (binary_entropy(eps) - eta) * n + h_bec
    return SlackReport(
        "bsc_bec", {"code": code.name, "n": n, "eps": eps, "eta": eta}, lhs, rhs
    )
