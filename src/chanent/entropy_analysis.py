"""Exact and Monte Carlo conditional entropies for codes over BSC/BEC.

H(X|Y_BSC) is computed through the chain rule
H(X) + n*h(eps) - H(X+Z).  For a linear [n, k] code X+Z is uniform on
the coset of the syndrome of Z, so H(X+Z) = k + H(s(Z)) and only the
syndrome distribution, of length 2^(n-k), is needed: the noise
operator's XOR-shift pass along the parity-check columns.  For other
codes X+Z comes from the noise operator on all of F_2^n.
H(X|Y_BEC) comes from the subset identity
E_{S~lam} H(X_S) = H(X) - H(X|Y_BEC) with lam = 1 - eta.  The entropies
H_q(X_S) of a nonlinear code come from one blocked projection kernel,
``projection_entropies``.  Independent Bayes-rule / erasure-pattern
oracles live in the test suite.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bitspace import Code, syndrome_columns
from .boolfn import (
    binary_entropy,
    ent,
    from_code,
    renyi_entropy,
    renyi_entropy_from_counts,
)
from .channels import _axis_pairs, _xor_shift_pass, bernoulli_words, noise_operator

EXACT_SUBSET_CAP = 20

# (mask, codeword) pairs per block of the projection kernel
_PAIR_BLOCK = 1 << 16


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


def projection_entropies(code: Code, masks: np.ndarray, q: float) -> np.ndarray:
    """H_q(X_S) for each subset mask in ``masks``, as ``marginal_entropy`` gives it.

    A block of masks projects every codeword at once.  The runs of each
    sorted row are the multiplicities of its projected words, and their
    entropy terms are summed per row by one bincount.
    """
    if not q >= 1:
        raise ValueError("order must be >= 1")
    cws = code.codeword_array()
    size = code.size
    masks = np.asarray(masks, dtype=np.uint64)
    out = np.empty(len(masks))
    block = max(1, _PAIR_BLOCK // size)
    for start in range(0, len(masks), block):
        words = masks[start : start + block, None] & cws
        words.sort(axis=1)
        m = len(words)
        first = np.empty(words.shape, dtype=bool)  # a run starts here
        first[:, 0] = True
        np.not_equal(words[:, 1:], words[:, :-1], out=first[:, 1:])
        starts = np.flatnonzero(first)
        counts = np.diff(starts, append=first.size)
        p = counts / size
        row = starts // size
        if q == 1:
            # log2|C| - E log2(count): exact when every count is 1, or one is |C|
            e_log_c = np.bincount(row, weights=p * np.log2(counts), minlength=m)
            vals = math.log2(size) - e_log_c
        elif math.isinf(q):
            vals = -np.log2(np.maximum.reduceat(p, np.flatnonzero(starts % size == 0)))
        else:
            vals = -np.log2(np.bincount(row, weights=p**q, minlength=m)) / (q - 1)
        out[start : start + m] = vals
    return out


def require_subset_cap(n: int) -> None:
    """Reject a dimension above the exact all-subsets cap."""
    if n > EXACT_SUBSET_CAP:
        raise ValueError(f"exact subset enumeration capped at n <= {EXACT_SUBSET_CAP}")


@lru_cache(maxsize=64)
def subset_renyi_values(code: Code, q: float) -> np.ndarray:
    """H_q(X_S) for every subset S, indexed by mask.

    A linear code's table is the same for every q; callers ask for it
    with q = 1 so that one build serves all orders.
    """
    n = code.n
    require_subset_cap(n)
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
        out = projection_entropies(code, np.arange(1 << n, dtype=np.uint64), q)
    out.setflags(write=False)
    return out


def _check_subset_law(lam: float, q: float) -> None:
    if not 0 <= lam <= 1:
        raise ValueError("lam must be in [0, 1]")
    if not q >= 1:
        raise ValueError("order must be >= 1")


def subset_entropy_expectation(code: Code, lam: float, q: float) -> float:
    """Exact E_{S~lam} H_q(X_S) by enumerating all 2^n subsets."""
    _check_subset_law(lam, q)
    vals = subset_renyi_values(code, 1.0 if code.generator is not None else q)
    return float(subset_weights(code.n, lam) @ vals)


def subset_entropy_expectation_mc(
    code: Code, lam: float, q: float, trials: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo E_{S~lam} H_q(X_S); returns (estimate, std error)."""
    _check_subset_law(lam, q)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    masks = bernoulli_words(trials, code.n, lam, rng)
    distinct, inverse = np.unique(masks, return_inverse=True)
    vals = projection_entropies(code, distinct, q)[inverse]
    est = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return est, stderr


def cond_entropy_bsc(code: Code, eps: float) -> float:
    """H(X|Y_BSC) = H(X) + n*h(eps) - H(X+Z), all in bits."""
    return _cond_entropy_bsc_from(code, noise_operator(from_code(code), eps), eps)


def syndrome_distribution(code: Code, eps: float) -> np.ndarray:
    """Distribution of the syndrome of BSC(eps) noise Z, for a linear code.

    It has length 2^(n-k).  Coordinate i of Z flips with probability
    eps and then moves the syndrome by its column h_i, so this is the
    noise operator's XOR-shift pass along the columns h_i, started from
    the point mass at syndrome 0.
    """
    if code.generator is None:
        raise ValueError("the syndrome distribution needs a linear code")
    if not 0 <= eps <= 1:
        raise ValueError("eps must be in [0, 1]")
    r = code.n - (code.size.bit_length() - 1)  # |C| = 2^k
    p = np.zeros(1 << r)
    p[0] = 1.0
    return _xor_shift_pass(p, r, syndrome_columns(code.generator, code.n), eps)


def cond_entropy_bsc_linear(code: Code, eps: float) -> float:
    """H(X|Y_BSC) = n*h(eps) - H(s(Z)) for a linear code, without 2^n arrays.

    Y = X + Z is uniform on the coset of the syndrome s(Z), so
    H(Y) = k + H(s(Z)); ``cond_entropy_bsc`` is the dense reference.
    """
    return code.n * binary_entropy(eps) - renyi_entropy(syndrome_distribution(code, eps), 1)


def _cond_entropy_bsc_from(code: Code, f_noisy: np.ndarray, eps: float) -> float:
    """H(X|Y_BSC) given f_noisy = T_eps f_X, the distribution function of X+Z."""
    n = code.n
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
    if not 0 <= eta <= 1:
        raise ValueError("eta must be in [0, 1]")
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
    eps_grid: Sequence[float | None],
    eta_grid: Sequence[float | None],
    qs: Sequence[float] = (1.0,),
    trials: int | None = None,
    seed: int | None = None,
) -> list[EntropyReport]:
    """The code's entropy records over a grid, one per (eps, eta, q) in that order.

    H(X|Y_BSC) is computed once per eps, exactly for every n: from the
    syndrome distribution for a code with a generator, from the dense
    noise operator otherwise.  E_{S~1-eta} H_q(X_S) is computed once per
    (eta, q), by exact enumeration when n allows it and otherwise by
    Monte Carlo (requires trials and seed), and H(X|Y_BEC) comes from its
    q = 1 value.  A None eps or eta leaves its quantities out.  Every q
    and eta is checked before any work.
    """
    for q in qs:
        if not q >= 1:
            raise ValueError(f"order q={q} must be >= 1")
    etas = [eta for eta in dict.fromkeys(eta_grid) if eta is not None]
    for eta in etas:
        if not 0 <= eta <= 1:
            raise ValueError(f"eta={eta} outside [0, 1]")
    sampled = bool(etas) and code.n > EXACT_SUBSET_CAP
    if sampled and (trials is None or seed is None):
        raise ValueError("monte_carlo mode requires trials and seed")

    bsc_entropy = cond_entropy_bsc_linear if code.generator is not None else cond_entropy_bsc
    h_bsc = {eps: bsc_entropy(code, eps) for eps in dict.fromkeys(eps_grid) if eps is not None}
    # (eta, q) -> (E_{S~1-eta} H_q(X_S), stderr); q = 1 gives H(X|Y_BEC)
    subset = {}
    for eta in etas:
        for q in dict.fromkeys([*qs, 1.0]):
            if sampled:
                # the same seed draws the same subsets for every q
                subset[eta, q] = subset_entropy_expectation_mc(code, 1 - eta, q, trials, seed)
            else:
                subset[eta, q] = subset_entropy_expectation(code, 1 - eta, q), None

    reports = []
    for eps, eta, q in itertools.product(eps_grid, eta_grid, qs):
        e_s, stderr = subset.get((eta, q), (None, None))
        mc = sampled and eta is not None
        reports.append(
            EntropyReport(
                code=code.name or "code",
                n=code.n,
                eps=eps,
                eta=eta,
                q=q,
                h_x=code.log_size,
                h_x_given_bsc=h_bsc.get(eps),
                h_x_given_bec=None if eta is None else code.log_size - subset[eta, 1.0][0],
                e_s_hq_xs=e_s,
                method="monte_carlo" if mc else "exact",
                trials=trials if mc else None,
                stderr=stderr,
            )
        )
    return reports
