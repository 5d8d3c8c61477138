"""Exact and Monte Carlo conditional entropies for codes over BSC/BEC.

A code is read through two objects, which ``entropy`` and ``verify``
share:

* the noise side, ``noisy_laws(code, eps_grid)``: the law p of X+Z at
  each eps (``NoisyFunction``), one XOR-shift pass per chunk of the
  grid of at most ``bitspace._BLOCK`` law cells.  Its 2^m cells are the
  cosets of the code's kernel, C with a generator, {0} otherwise.  X+Z is
  uniform within a cell of 2^(n-m) points, so H(X+Z) = (n-m) + H(p), and
  H(X|Y_BSC) = H(X) + n*h(eps) - H(X+Z) (``cond_entropy_bsc_of_law``);
* the subset side, ``SubsetStats``: H_q(X_S) for every subset S from the
  code's one subset table, and E_{S~lam} of each row, computed once.
  H(X|Y_BEC) comes from the subset identity
  E_{S~lam} H(X_S) = H(X) - H(X|Y_BEC) with lam = 1 - eta.

The subset weight depends only on |S|, so ``subset_weights`` computes
n+1 values.  For a linear code H_q(X_S) is the GF(2) rank r(S) of the
generator restricted to S, for every q: the exact table is an integer
superset sum over the codewords, whose count 2^(k - r(S)) gives
r(S) = k - popcount(count - 1), and the Monte Carlo sampler ranks each
distinct drawn mask (``bitspace.masked_ranks``).  The entropies H_q(X_S)
of a nonlinear code come from one blocked projection kernel,
``projection_entropies``: it projects into reused 16- or 32-bit word
buffers, sorts the projected words once for every order, takes the term
of each run of equal words at each order from a table indexed by the
run's length, and sums each mask's terms by one ``np.add.reduceat`` per
order.  So the subset table of a code and a Monte Carlo draw of subsets
serve all orders.
Independent Bayes-rule / erasure-pattern oracles live in the test suite.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

import numpy as np

from . import bitspace
from .bitspace import EXACT_CAP, Code, masked_ranks, popcounts, syndrome_columns
from .boolfn import _require_orders, _require_unit_interval, binary_entropy, ent, from_code
from .boolfn import renyi_entropy, renyi_entropy_from_counts
from .channels import _axis_pairs, _xor_shift_pass, bernoulli_words, noise_operator


def subset_weights(n: int, lam: float) -> np.ndarray:
    """Probability lam^|S| (1-lam)^(n-|S|) of each subset under S~lam.

    The weight depends only on |S|, so the n+1 per-size values are
    computed, each as exp(|S| log lam + (n-|S|) log(1-lam)), and copied
    to every mask of their size in two steps: the masks of high part h
    and low part l (n // 2 bits) take row |h| of a small table whose
    row t holds the value of size t + |l| for every l, so the 2^n
    weights are written one contiguous row at a time, not gathered one
    by one.
    """
    j = np.arange(n + 1, dtype=np.int64)
    # 0^0 := 1 at the endpoints
    with np.errstate(divide="ignore"):
        logs = np.where(j > 0, j * np.log(lam) if lam > 0 else -np.inf, 0.0)
        logs = logs + np.where(
            n - j > 0, (n - j) * np.log(1 - lam) if lam < 1 else -np.inf, 0.0
        )
    low = n // 2
    rows = np.exp(logs)[np.arange(n - low + 1)[:, None] + popcounts(low)]
    return rows[popcounts(n - low)].reshape(-1)


def marginal_entropy(code: Code, mask: int, q: float) -> float:
    """H_q of the projection of uniform-on-code X onto the subset.

    Counts multiplicities of projected codewords; masking without
    re-indexing is entropy-preserving.
    """
    if mask == 0:
        return 0.0
    _, counts = np.unique(code.codewords & np.uint64(mask), return_counts=True)
    return renyi_entropy_from_counts(counts, q)


def projection_entropies(code: Code, masks: np.ndarray, qs: Sequence[float]) -> np.ndarray:
    """H_q(X_S) as ``marginal_entropy`` gives it: row i at order qs[i], one column per mask.

    A block of masks projects every codeword at once into reused buffers
    of 16-bit words (32-bit above n = 16), and is sorted once.  The
    runs of each sorted row are the multiplicities c of its projected
    words.  A finite order takes the term of each run from a table
    indexed by c, (c/|C|) log2 c at q = 1 and (c/|C|)^q otherwise, and
    sums each row's terms by one ``np.add.reduceat`` over the rows' first
    runs; q = inf reads each row's longest run the same way.  A row's
    value depends only on its own runs, not on the block or the other
    orders.
    """
    _require_orders(qs)
    size = code.size
    dtype = np.uint16 if code.n <= 16 else np.uint32
    cws = code.codewords.astype(dtype)
    masks = np.asarray(masks, dtype=np.uint64).astype(dtype)
    out = np.empty((len(qs), len(masks)))
    block = max(1, bitspace._BLOCK // size)  # (mask, codeword) pairs
    rows = min(block, len(masks))
    c = np.arange(1, size + 1)
    p = c / size
    # finite order -> entry c: the term of a run of c equal words
    terms = {q: np.append(0.0, p * np.log2(c) if q == 1 else p**q) for q in qs if not math.isinf(q)}
    words = np.empty((rows, size), dtype=dtype)
    first = np.empty(words.shape, dtype=bool)  # a run starts here
    first[:, 0] = True
    run_counts = np.empty(words.size, dtype=np.intp)
    row_starts = np.arange(0, words.size, size)
    for start in range(0, len(masks), block):
        m = min(block, len(masks) - start)
        w, f = words[:m], first[:m]
        np.bitwise_and(masks[start : start + m, None], cws, out=w)
        w.sort(axis=1)
        np.not_equal(w[:, 1:], w[:, :-1], out=f[:, 1:])
        starts = np.flatnonzero(f)
        counts = run_counts[: len(starts)]
        np.subtract(starts[1:], starts[:-1], out=counts[:-1])
        counts[-1] = f.size - starts[-1]
        row_first = np.searchsorted(starts, row_starts[:m])  # each row's first run
        for i, q in enumerate(qs):
            if math.isinf(q):
                vals = -np.log2(np.maximum.reduceat(counts, row_first) / size)
            else:
                sums = np.add.reduceat(terms[q].take(counts), row_first)
                # q = 1: log2|C| - E log2(count), exact when every count is 1, or one is |C|
                vals = math.log2(size) - sums if q == 1 else -np.log2(sums) / (q - 1)
            out[i, start : start + m] = vals
    return out


# 8 * 2^n bytes an order, 8 MB at n = 20 (a linear code's table is one row), so
# the cache holds at most two tables: verify and entropy read each once
@lru_cache(maxsize=2)
def subset_renyi_values(code: Code, qs: tuple[float, ...]) -> np.ndarray:
    """H_q(X_S) for every order and subset, read-only: row i at order qs[i], column S.

    A nonlinear code's rows come from one projection pass.  A linear
    code's rows are one array for every q, the exact integers r(S) from
    a uint32 superset sum, so the orders only key the cache: callers
    that share its table pass the same tuple.
    """
    _require_orders(qs)
    n = code.n
    bitspace.require_exact_cap(n)
    if code.generator is not None:
        # X_S is uniform on a subspace for every q, so H_q(X_S) is r(S) =
        # k - log2 #{c : c & S = 0}; that count, 2^(k - r(S)), is the sum
        # over the supersets of S of the indicator of the complemented
        # codewords, and its log2 is the popcount of count - 1
        count = np.zeros(1 << n, dtype=np.uint32)
        count[code.codewords ^ np.uint64((1 << n) - 1)] = 1
        for lo, hi in _axis_pairs(count):
            # a narrow axis adds column by column, each one long strided loop
            for j in range(lo.shape[1]) if lo.shape[1] < 16 else [slice(None)]:
                lo[:, j] += hi[:, j]
        count -= 1
        out = np.subtract(code.log_size, np.bitwise_count(count))  # exact integers
        return np.broadcast_to(out, (len(qs), len(out)))  # read-only, no copy
    out = projection_entropies(code, np.arange(1 << n, dtype=np.uint64), qs)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class SubsetStats:
    """A code's per-subset rows and their expectations E_{S~lam}.

    ``renyi`` maps each order q (1 included) to H_q(X_S) for every
    subset mask S: read-only rows of the code's one cached subset table
    (``subset_renyi_values``), one row object for every order of a
    linear code.  The rows of f = f_C, the distribution function of
    X uniform on the code, follow from them, since E(f|S) is 2^|S| times
    the law of X_S: ``ent`` is Ent[E(f|S)] = |S| - H(X_S), and
    ``log_norm`` at q is log2 ||E(f|S)||_q = (|S| - H_q(X_S)) (1 - 1/q).
    Each is built on its first use and kept.
    """

    code: Code
    renyi: dict[float, np.ndarray]  # q -> H_q(X_S) per mask, q = 1 included
    # (row, q) -> a derived row; (id of a row, lam) -> E_{S~lam} of that row;
    # and the weights of the last lam
    _rows: dict = field(default_factory=dict, init=False, repr=False)
    _expected: dict = field(default_factory=dict, init=False, repr=False)
    _weights: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def n(self) -> int:
        return self.code.n

    def row(self, name: str, q: float = 1.0) -> np.ndarray:
        """The read-only per-mask row ``renyi``, ``ent`` (which has no order) or ``log_norm`` at q."""
        if name == "renyi":
            return self.renyi[q]
        if name not in ("ent", "log_norm"):
            raise ValueError(f"unknown subset row {name!r}")
        key = (name, 1.0 if name == "ent" else q)
        if key not in self._rows:
            free = np.subtract(popcounts(self.n), self.renyi[key[1]])  # |S| - H_q(X_S)
            if name == "log_norm":
                free *= 1 - 1 / q  # in place: no second 2^n array
            free.flags.writeable = False
            self._rows[key] = free
        return self._rows[key]

    def expectation(self, name: str, lam: float, q: float = 1.0) -> float:
        """E_{S~lam} of the row ``name`` at order q: ``subset_weights(n, lam) @ row``.

        It is computed once per row object and lam: one dot for every
        order of a linear code's ``renyi`` row.  The weights of the last
        lam are kept, so checks that ask for several rows at one lam in
        turn share one gather; they are dropped before the next lam's
        weights are built, so at most one 2^n weight array is alive.
        """
        values = self.row(name, q)
        key = (id(values), lam)  # the stats hold the row, so its id is never reused
        if key not in self._expected:
            if self._weights.get("lam") != lam:
                self._weights.clear()
                self._weights.update(lam=lam, w=subset_weights(self.n, lam))
            self._expected[key] = float(self._weights["w"] @ values)
        return self._expected[key]


def subset_stats_of_code(code: Code, qs: Sequence[float]) -> SubsetStats:
    """The subset statistics of a code at the orders 1 and qs, from its one subset table.

    A linear code's one row, cached under (1.0,), serves every order.
    """
    _require_orders(qs)
    orders = tuple(dict.fromkeys((1.0, *qs)))
    if code.generator is not None:
        return SubsetStats(code, dict.fromkeys(orders, subset_renyi_values(code, (1.0,))[0]))
    return SubsetStats(code, dict(zip(orders, subset_renyi_values(code, orders))))


def subset_entropy_expectation(code: Code, lam: float, q: float) -> float:
    """Exact E_{S~lam} H_q(X_S) by enumerating all 2^n subsets."""
    _require_unit_interval("lam", [lam])
    return subset_stats_of_code(code, (q,)).expectation("renyi", lam, q)


def subset_entropy_expectation_mc(
    code: Code, lam: float, qs: Sequence[float], trials: int, seed: int
) -> list[tuple[float, float]]:
    """Monte Carlo E_{S~lam} H_q(X_S): (estimate, std error) for each order in qs.

    One draw of subsets serves every order, and each distinct drawn mask
    is evaluated once: by the GF(2) rank of the generator restricted to
    it for a linear code (H_q(X_S) = r(S) for every q), by one projection
    pass for all orders otherwise.
    """
    _require_unit_interval("lam", [lam])
    _require_orders(qs)
    if trials < 2:
        raise ValueError("trials must be >= 2: a standard error needs two samples")
    rng = np.random.default_rng(seed)
    (masks,) = bernoulli_words(trials, code.n, [lam], rng)
    distinct, inverse = np.unique(masks, return_inverse=True)
    if code.generator is not None:
        ranks = masked_ranks(code.generator, distinct).astype(float)
        table = np.broadcast_to(ranks, (len(qs), len(ranks)))
    else:
        table = projection_entropies(code, distinct, qs)
    out = []
    for row in table:
        vals = row[inverse]
        out.append((float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(trials))))
    return out


def cond_entropy_bsc(code: Code, eps: float) -> float:
    """H(X|Y_BSC) = H(X) + n*h(eps) - H(X+Z), all in bits, from the dense noise operator."""
    h_xz = code.n - ent(noise_operator(from_code(code), eps))
    return code.log_size + code.n * binary_entropy(eps) - h_xz


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
        """H(p / sum p), taken once: ``ent`` and every H(X|Y_BSC) read it."""
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


def noisy_laws(code: Code, eps_grid: Sequence[float]) -> Iterator[NoisyFunction]:
    """The noisy law of f_C at each eps of the grid, in grid order; every eps is checked first.

    The law of X+Z, X uniform on the code, lives on 2^m cells, the
    cosets of the code's kernel: C, m = n - k, when the code has a
    generator, and {0}, m = n, otherwise.  Coordinate i of Z moves the
    cell of X+Z by its column h_i: the syndrome column from the point
    mass at 0, or the unit column from 1/|C| on each codeword.  The grid
    is cut into chunks of at most ``bitspace._BLOCK`` law cells (one eps
    at least), and each chunk takes one XOR-shift pass, each row bit for
    bit the pass at its eps alone.  The stream drops a chunk once its
    last law is handed out, so a caller that keeps no law past its use
    holds one chunk at a time.
    """
    eps_grid = list(eps_grid)
    _require_unit_interval("eps", eps_grid)
    if code.generator is None:
        m, columns = code.n, [1 << i for i in range(code.n)]
    else:
        m, columns = code.redundancy, syndrome_columns(code.generator, code.n)
    rows = max(1, bitspace._BLOCK >> m)
    # chain holds only the iterator of the chunk it hands out, which lets go when exhausted
    return itertools.chain.from_iterable(
        _chunk_laws(code, m, columns, eps_grid[i : i + rows])
        for i in range(0, len(eps_grid), rows)
    )


def _chunk_laws(code: Code, m: int, columns: list[int], chunk: list[float]) -> list[NoisyFunction]:
    """The noisy laws of one chunk of the grid: the read-only rows of one XOR-shift pass."""
    p = np.zeros((len(chunk), 1 << m))
    if code.generator is None:
        p[:, code.codewords] = 1 / code.size
    else:
        p[:, 0] = 1.0
    _xor_shift_pass(p, m, columns, chunk)
    p.flags.writeable = False
    return [NoisyFunction(eps, code.n, code.n - m, row) for eps, row in zip(chunk, p)]


def noisy_law(code: Code, eps: float) -> NoisyFunction:
    """The noisy law of f_C at eps: ``noisy_laws`` at one eps."""
    return next(noisy_laws(code, [eps]))


def cond_entropy_bsc_of_law(code: Code, law: NoisyFunction) -> float:
    """H(X|Y_BSC) from the law of X+Z over cells of 2^k points each (``noisy_laws``).

    X+Z is uniform within a cell, so H(X+Z) = k + H(p).  The bracket is 0 for a linear code.
    """
    return (code.log_size - law.k) + code.n * binary_entropy(law.eps) - law.cell_entropy


def cond_entropy_bec(code: Code, eta: float) -> float:
    """H(X|Y_BEC) = H(X) - E_{S~(1-eta)} H(X_S), exact."""
    _require_unit_interval("eta", [eta])
    return code.log_size - subset_entropy_expectation(code, 1 - eta, 1.0)


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

    H(X|Y_BSC) is computed once per eps, exactly for every n, from the
    stream of noisy laws (``noisy_laws``) by ``cond_entropy_bsc_of_law``,
    as ``verify``'s bsc_bec check takes it.  E_{S~1-eta} H_q(X_S) is read
    for every q and for q = 1, which gives H(X|Y_BEC): from the code's
    ``SubsetStats`` when n allows exact enumeration, otherwise from one
    Monte Carlo draw per eta (requires trials and seed).  A None eps or
    eta leaves its quantities out.  Every q, eta and eps is checked
    before any work.
    """
    _require_orders(qs)
    _require_unit_interval("eta", eta_grid)
    etas = [eta for eta in dict.fromkeys(eta_grid) if eta is not None]
    sampled = bool(etas) and code.n > EXACT_CAP
    if sampled and (trials is None or seed is None):
        raise ValueError("monte_carlo mode requires trials and seed")

    epss = [eps for eps in dict.fromkeys(eps_grid) if eps is not None]
    # map keeps no law past its call, so each chunk of laws is freed before the next pass
    h_bsc = dict(zip(epss, map(partial(cond_entropy_bsc_of_law, code), noisy_laws(code, epss))))
    orders = tuple(dict.fromkeys([*qs, 1.0]))
    stats = subset_stats_of_code(code, qs) if etas and not sampled else None
    # (eta, q) -> (E_{S~1-eta} H_q(X_S), stderr); q = 1 gives H(X|Y_BEC)
    subset = {}
    for eta in etas:
        if sampled:
            values = subset_entropy_expectation_mc(code, 1 - eta, orders, trials, seed)
        else:
            values = [(stats.expectation("renyi", 1 - eta, q), None) for q in orders]
        subset.update(((eta, q), v) for q, v in zip(orders, values))

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
