"""Bit vectors over F_2^n, coordinate subsets, and binary code constructors.

Conventions used throughout the package:

* A vector in F_2^n is a Python int in [0, 2^n); coordinate i is bit i
  of the integer.
* A subset S of {0, ..., n-1} is likewise an int mask; coordinate i is
  in S iff bit i of the mask is set.
* Dense (exhaustive) operations are capped at n <= 24.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
import math

import numpy as np

DENSE_CAP = 24


def _check_dim(n: int) -> None:
    if not 1 <= n <= DENSE_CAP:
        raise ValueError(f"dimension must be in [1, {DENSE_CAP}], got {n}")


def _reduced_echelon(rows: list[int] | tuple[int, ...]) -> dict[int, int]:
    """Reduced row echelon form of the rows over GF(2), as pivot -> row.

    A row's pivot is its highest set bit, and every other row is zero
    at that pivot; dependent rows are dropped, so there is one entry
    per unit of rank.
    """
    basis: dict[int, int] = {}
    for row in rows:
        r = int(row)
        for pivot, b in basis.items():
            if r >> pivot & 1:
                r ^= b
        if r:
            pivot = r.bit_length() - 1
            for other, b in basis.items():
                if b >> pivot & 1:
                    basis[other] = b ^ r
            basis[pivot] = r
    return basis


def rank_gf2(rows: list[int] | tuple[int, ...]) -> int:
    """Rank over GF(2) of a matrix given as a sequence of row bitmasks."""
    return len(_reduced_echelon(rows))


def syndrome_columns(rows: list[int] | tuple[int, ...], n: int) -> list[int]:
    """Column h_i of a parity-check matrix of the row span, for each coordinate i.

    The reduced echelon form keeps k rows, one pivot coordinate each.
    The n - k other coordinates get the unit columns 1, 2, 4, ... in
    increasing order, and a pivot coordinate gets its row's bits on
    those coordinates.  The syndrome of x, the XOR of h_i over the
    coordinates set in x, is then a map onto F_2^(n-k) whose kernel is
    the span.
    """
    basis = _reduced_echelon(rows)
    free = [i for i in range(n) if i not in basis]
    cols = [0] * n
    for t, i in enumerate(free):
        cols[i] = 1 << t
    for pivot, b in basis.items():
        cols[pivot] = sum(1 << t for t, i in enumerate(free) if b >> i & 1)
    return cols


def span(rows: list[int] | tuple[int, ...]) -> list[int]:
    """All vectors in the row span, sorted."""
    words = {0}
    for row in rows:
        words |= {w ^ row for w in words}
    return sorted(words)


@dataclass(frozen=True)
class Code:
    """A finite set of codewords in F_2^n.

    ``codewords`` is a sorted, duplicate-free tuple of int-encoded
    vectors.  ``generator`` (optional) stores generator-matrix rows as
    bitmasks; when present, the codewords are exactly its row span.
    """

    n: int
    codewords: tuple[int, ...]
    generator: tuple[int, ...] | None = None
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        _check_dim(self.n)
        if not self.codewords:
            raise ValueError("code must contain at least one codeword")
        if list(self.codewords) != sorted(set(self.codewords)):
            raise ValueError("codewords must be sorted and duplicate-free")
        if self.codewords[0] < 0 or self.codewords[-1] >= (1 << self.n):
            raise ValueError("codeword out of range for n")
        if self.generator is not None:
            if any(not 0 <= g < (1 << self.n) for g in self.generator):
                raise ValueError("generator row out of range for n")
            if tuple(span(self.generator)) != self.codewords:
                raise ValueError("codewords do not match generator row span")

    @property
    def size(self) -> int:
        return len(self.codewords)

    @property
    def log_size(self) -> float:
        """log2 of the number of codewords, in bits."""
        return math.log2(self.size)

    @property
    def rate(self) -> float:
        """Normalized rate log2|C| / n."""
        return self.log_size / self.n

    def codeword_array(self) -> np.ndarray:
        return np.asarray(self.codewords, dtype=np.uint64)

    def __repr__(self) -> str:
        label = self.name or f"{self.size} codewords"
        return f"Code(n={self.n}, {label})"


def _linear_code(rows: list[int], n: int, name: str) -> Code:
    cws = tuple(span(rows))
    return Code(n=n, codewords=cws, generator=tuple(rows), name=name)


def repetition_code(n: int) -> Code:
    _check_dim(n)
    return _linear_code([(1 << n) - 1], n, f"repetition({n})")


def parity_code(n: int) -> Code:
    """Even-weight code of length n (single parity check)."""
    if n < 2:
        raise ValueError("parity code needs n >= 2")
    _check_dim(n)
    rows = [(1 << i) | (1 << (n - 1)) for i in range(n - 1)]
    return _linear_code(rows, n, f"parity({n})")


def hamming74_code() -> Code:
    # systematic [7,4] Hamming generator, G = [I_4 | P]
    rows_bits = [
        "1000110",
        "0100101",
        "0010011",
        "0001111",
    ]
    rows = [int(r[::-1], 2) for r in rows_bits]
    return _linear_code(rows, 7, "hamming74")


def reed_muller_code(r: int, m: int) -> Code:
    """Reed-Muller code RM(r, m) of length 2^m."""
    if not 0 <= r <= m:
        raise ValueError("need 0 <= r <= m")
    n = 1 << m
    _check_dim(n)
    points = range(n)
    rows = []
    for deg in range(r + 1):
        for coords in combinations(range(m), deg):
            row = 0
            for x in points:
                val = 1
                for i in coords:
                    val &= (x >> i) & 1
                row |= val << x
            rows.append(row)
    return _linear_code(rows, n, f"reed_muller({r},{m})")


def random_linear_code(n: int, k: int, seed: int) -> Code:
    """Random linear [n, k] code with a full-rank generator.

    Rows are resampled until the generator has rank k, so |C| = 2^k
    exactly and the code is deterministic given the seed.
    """
    _check_dim(n)
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    rng = np.random.default_rng(seed)
    while True:
        rows = [int(rng.integers(0, 1 << n)) for _ in range(k)]
        if rank_gf2(rows) == k:
            return _linear_code(rows, n, f"random_linear({n},{k},{seed})")


def full_space_code(n: int) -> Code:
    _check_dim(n)
    rows = [1 << i for i in range(n)]
    return _linear_code(rows, n, f"full_space({n})")


def single_code(n: int) -> Code:
    _check_dim(n)
    return Code(n=n, codewords=(0,), name=f"single({n})")


def _parse_bit_lines(text: str, kind: str, unit: str) -> tuple[int, list[int]]:
    """Length n and int values of the nonblank '0'/'1' lines of a code file."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"empty {kind} file")
    n = len(lines[0])
    for idx, ln in enumerate(lines):
        if len(ln) != n:
            raise ValueError(f"{unit} {idx}: length {len(ln)} != {n}")
        if set(ln) - {"0", "1"}:
            raise ValueError(f"{unit} {idx}: invalid character")
    _check_dim(n)
    return n, [int(ln[::-1], 2) for ln in lines]


def parse_generator_file(text: str, name: str = "file") -> Code:
    """Parse a generator matrix, one row of '0'/'1' characters per line.

    Bit order: the first character of a line is coordinate 0.
    """
    n, rows = _parse_bit_lines(text, "generator", "row")
    return _linear_code(rows, n, name)


def parse_codeword_file(text: str, name: str = "file") -> Code:
    """Parse an explicit codeword list, one codeword per line."""
    n, words = _parse_bit_lines(text, "codeword", "line")
    if len(set(words)) != len(words):
        raise ValueError("duplicate codeword")
    return Code(n=n, codewords=tuple(sorted(words)), name=name)


def make_code(spec: str) -> Code:
    """Build a code from a compact textual spec.

    Examples: ``repetition:3``, ``parity:5``, ``hamming74``,
    ``reed_muller:1,3``, ``random_linear:12,4,7``, ``full_space:2``,
    ``single:5``.
    """
    kind, _, argstr = spec.partition(":")
    args = [int(a) for a in argstr.split(",")] if argstr else []
    try:
        if kind == "repetition":
            (n,) = args
            return repetition_code(n)
        if kind == "parity":
            (n,) = args
            return parity_code(n)
        if kind == "hamming74":
            return hamming74_code()
        if kind == "reed_muller":
            r, m = args
            return reed_muller_code(r, m)
        if kind == "random_linear":
            n, k, seed = args
            return random_linear_code(n, k, seed)
        if kind == "full_space":
            (n,) = args
            return full_space_code(n)
        if kind == "single":
            (n,) = args
            return single_code(n)
    except ValueError as exc:
        raise ValueError(f"bad code spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown code family {kind!r}")
