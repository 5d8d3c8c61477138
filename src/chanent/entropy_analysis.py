"""Exact and Monte Carlo conditional entropies for codes over BSC/BEC.

H(X|Y_BSC) is computed through the chain rule
H(X) + n*h(eps) - H(X+Z), with the distribution of X+Z obtained from
the noise operator.  H(X|Y_BEC) comes from the subset identity
E_{S~lam} H(X_S) = H(X) - H(X|Y_BEC) with lam = 1 - eta.  Independent
Bayes-rule / erasure-pattern oracles live in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bitspace import Code
from .boolfn import (
    binary_entropy,
    ent,
    from_code,
    renyi_entropy_from_counts,
)
from .channels import _axis_pairs, bernoulli_words, noise_operator

EXACT_SUBSET_CAP = 20


@lru_cache(maxsize=32)
def popcounts(n: int) -> np.ndarray:
    """Hamming weight of every integer in [0, 2^n)."""
    idx = np.arange(1 << n, dtype=np.uint64)
    return np.bitwise_count(idx).astype(np.int64)


def subset_weights(n: int, lam: float) -> np.ndarray:
    """Probability lam^|S| (1-lam)^(n-|S|) of each subset under S~lam."""
    w = popcounts(n)
    # 0^0 := 1 at the endpoints
    with np.errstate(divide="ignore"):
        logs = np.where(w > 0, w * np.log(lam) if lam > 0 else -np.inf, 0.0)
        logs = logs + np.where(
            n - w > 0, (n - w) * np.log(1 - lam) if lam < 1 else -np.inf, 0.0
        )
    return np.exp(logs)


def marginal_entropy(code: Code, mask: int, q: float) -> float:
    """H_q of the projection of uniform-on-code X onto the subset.

    Counts multiplicities of projected codewords; masking without
    re-indexing is entropy-preserving.
    """
    if mask == 0:
        return 0.0
    cws = code.codeword_array()
    _, counts = np.unique(cws & np.uint64(mask), return_counts=True)
    return renyi_entropy_from_counts(counts, q)


@lru_cache(maxsize=64)
def subset_renyi_values(code: Code, q: float) -> np.ndarray:
    """H_q(X_S) for every subset S, indexed by mask."""
    n = code.n
    if n > EXACT_SUBSET_CAP:
        raise ValueError(f"exact subset enumeration capped at n <= {EXACT_SUBSET_CAP}")
    if code.generator is not None:
        # X_S is uniform on a subspace for every q, so H_q(X_S) is
        # log2|C| - log2 #{c : c & S = 0}; that count is the sum over the
        # supersets of S of the indicator of the complemented codewords.
        out = np.zeros(1 << n)
        out[code.codeword_array() ^ np.uint64((1 << n) - 1)] = 1
        for lo, hi in _axis_pairs(out):
            lo += hi
        np.log2(out, out=out)
        np.subtract(code.log_size, out, out=out)
    else:
        out = np.empty(1 << n)
        for mask in range(1 << n):
            out[mask] = marginal_entropy(code, mask, q)
    out.setflags(write=False)
    return out


def subset_entropy_expectation(code: Code, lam: float, q: float) -> float:
    """Exact E_{S~lam} H_q(X_S) by enumerating all 2^n subsets."""
    if not 0 <= lam <= 1:
        raise ValueError("lam must be in [0, 1]")
    vals = subset_renyi_values(code, q)
    return float(subset_weights(code.n, lam) @ vals)


def subset_entropy_expectation_mc(
    code: Code, lam: float, q: float, trials: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo E_{S~lam} H_q(X_S); returns (estimate, std error)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    masks = bernoulli_words(trials, code.n, lam, rng)
    vals = np.array([marginal_entropy(code, int(m), q) for m in masks])
    est = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return est, stderr


def cond_entropy_bsc(code: Code, eps: float) -> float:
    """H(X|Y_BSC) = H(X) + n*h(eps) - H(X+Z), all in bits."""
    n = code.n
    f_noisy = noise_operator(from_code(code), eps)
    h_xz = n - ent(f_noisy)
    return code.log_size + n * binary_entropy(eps) - h_xz


def cond_entropy_bec(code: Code, eta: float) -> float:
    """H(X|Y_BEC) = H(X) - E_{S~(1-eta)} H(X_S), exact."""
    if not 0 <= eta <= 1:
        raise ValueError("eta must be in [0, 1]")
    return code.log_size - subset_entropy_expectation(code, 1 - eta, 1.0)


def cond_entropy_bec_mc(
    code: Code, eta: float, trials: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo H(X|Y_BEC); returns (estimate, std error)."""
    est, stderr = subset_entropy_expectation_mc(code, 1 - eta, 1.0, trials, seed)
    return code.log_size - est, stderr


@dataclass(frozen=True)
class EntropyReport:
    """One (code, eps, eta, q) configuration's entropic quantities."""

    code: str
    n: int
    eps: float | None
    eta: float | None
    q: float
    h_x: float
    h_x_given_bsc: float | None
    h_x_given_bec: float | None
    e_s_hq_xs: float | None
    method: str = "exact"
    trials: int | None = None
    stderr: float | None = None

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "n": self.n,
            "eps": self.eps,
            "eta": self.eta,
            "q": self.q,
            "H_X": self.h_x,
            "H_X_given_Ybsc": self.h_x_given_bsc,
            "H_X_given_Ybec": self.h_x_given_bec,
            "E_S_HqXS": self.e_s_hq_xs,
            "method": self.method,
            "trials": self.trials,
            "stderr": self.stderr,
        }


def entropy_report(
    code: Code,
    eps: float | None,
    eta: float | None,
    q: float = 1.0,
    trials: int | None = None,
    seed: int | None = None,
) -> EntropyReport:
    """Compute the full entropy record for one configuration.

    Uses exact enumeration when n allows it, otherwise Monte Carlo for
    the BEC/subset quantities (requires trials and seed).
    """
    exact_ok = code.n <= EXACT_SUBSET_CAP
    method = "exact" if exact_ok else "monte_carlo"
    stderr = None
    h_bec = e_s = None
    lam = None if eta is None else 1 - eta
    if lam is not None:
        if exact_ok:
            e_s = subset_entropy_expectation(code, lam, q)
            h_bec = cond_entropy_bec(code, eta)
        else:
            if trials is None or seed is None:
                raise ValueError("monte_carlo mode requires trials and seed")
            e_s, stderr = subset_entropy_expectation_mc(code, lam, q, trials, seed)
            # the same seed draws the same subsets, so q == 1 reuses e_s
            e_s1 = e_s if q == 1 else subset_entropy_expectation_mc(
                code, lam, 1.0, trials, seed
            )[0]
            h_bec = code.log_size - e_s1
    h_bsc = cond_entropy_bsc(code, eps) if eps is not None else None
    return EntropyReport(
        code=code.name or "code",
        n=code.n,
        eps=eps,
        eta=eta,
        q=q,
        h_x=code.log_size,
        h_x_given_bsc=h_bsc,
        h_x_given_bec=h_bec,
        e_s_hq_xs=e_s,
        method=method,
        trials=trials if method == "monte_carlo" else None,
        stderr=stderr,
    )
