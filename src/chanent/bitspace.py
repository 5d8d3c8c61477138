"""Bit vectors over F_2^n, coordinate subsets, and binary code constructors.

Conventions used throughout the package:

* A vector in F_2^n is an int in [0, 2^n); coordinate i is bit i of the
  integer.  A code holds its vectors as one uint64 array.
* A subset S of {0, ..., n-1} is likewise an int mask; coordinate i is
  in S iff bit i of the mask is set.
* Caps: n <= 24 for dense operations (``DENSE_CAP``), n <= 20 for enumeration (``EXACT_CAP``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
import math

import numpy as np

DENSE_CAP = 24
EXACT_CAP = 20

# entries of the largest array that one block of a blocked loop allocates; each
# loop (masked_ranks, v log2 v, the projection and pair kernels) reads it at call time
_BLOCK = 1 << 16


def _check_dim(n: int) -> None:
    if not 1 <= n <= DENSE_CAP:
        raise ValueError(f"dimension must be in [1, {DENSE_CAP}], got {n}")


def require_exact_cap(n: int) -> None:
    """Reject a dimension above the cap of exact enumeration over all 2^n subsets or words."""
    if n > EXACT_CAP:
        raise ValueError(f"exact enumeration capped at n <= {EXACT_CAP}")


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


def masked_ranks(rows: list[int] | tuple[int, ...], masks: np.ndarray) -> np.ndarray:
    """GF(2) rank of the rows restricted to each mask, ``rank_gf2([r & m for r in rows])``.

    A block of masks is eliminated at once, one bit from high to low:
    one row holding the bit is XORed into every row holding it, itself
    included, so the bit leaves every row and the rank of a mask grows
    by one when some row held it.
    """
    rows = np.asarray(rows, dtype=np.uint64)
    masks = np.asarray(masks, dtype=np.uint64)
    out = np.zeros(len(masks), dtype=np.int64)
    top = int(np.bitwise_or.reduce(rows, initial=np.uint64(0))).bit_length()
    block = max(1, _BLOCK // max(1, len(rows)))
    for start in range(0, len(masks), block):
        words = masks[start : start + block, None] & rows
        ranks = out[start : start + len(words)]
        at = np.arange(len(words))
        for bit in range(top - 1, -1, -1):
            has = (words & np.uint64(1 << bit)) != 0
            pivot = has.argmax(axis=1)
            ranks += has[at, pivot]
            words ^= np.where(has, words[at, pivot][:, None], np.uint64(0))
    return out


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


def _xor_table(vectors: list[int] | tuple[int, ...], dtype) -> np.ndarray:
    """Entry v is the XOR of the vectors at the ones of v, filled by doubling over v's bits."""
    table = np.zeros(1 << len(vectors), dtype=dtype)
    for i, h in enumerate(vectors):
        np.bitwise_xor(table[: 1 << i], dtype(h), out=table[1 << i : 2 << i])
    return table


def span(rows: list[int] | tuple[int, ...]) -> np.ndarray:
    """All vectors in the row span, sorted, as a uint64 array.

    The XOR table of the reduced echelon rows, in increasing order of
    pivot, comes out sorted with no sort.  The rows are independent, so
    no word repeats.  Two words first differ at a pivot, where only that
    pivot's row has a one: so each doubling's new words, which hold the
    new row's pivot, exceed every old word, and the new row, zero at the
    old pivots, keeps the old words' order.
    """
    return _xor_table([row for _, row in sorted(_reduced_echelon(rows).items())], np.uint64)


@dataclass(frozen=True, eq=False)
class Code:
    """A finite set of codewords in F_2^n, held once as a read-only uint64 array.

    ``codewords`` are given sorted and duplicate-free.  ``generator``
    (optional) stores generator-matrix rows as bitmasks; the codewords
    are then exactly its row span, which a code given no codewords
    takes without a check.  Equality and the hash read n and the
    generator and, without a generator, the codewords; never the name.
    """

    n: int
    codewords: np.ndarray | None = None
    generator: tuple[int, ...] | None = None
    name: str = ""

    def __post_init__(self) -> None:
        _check_dim(self.n)
        rows = self.generator
        if rows is not None and any(not 0 <= g < (1 << self.n) for g in rows):
            raise ValueError("generator row out of range for n")
        if self.codewords is None and rows is not None:
            words = span(rows)  # sorted and duplicate-free by construction
        else:
            words = np.array(() if self.codewords is None else self.codewords)
            if len(words) == 0:
                raise ValueError("code must contain at least one codeword")
            if not np.all(words[1:] > words[:-1]):
                raise ValueError("codewords must be sorted and duplicate-free")
            # checked before the uint64 conversion, which cannot hold a negative word
            if words[0] < 0 or words[-1] >= (1 << self.n):
                raise ValueError("codeword out of range for n")
            words = words.astype(np.uint64)
            if rows is not None and not np.array_equal(span(rows), words):
                raise ValueError("codewords do not match generator row span")
        words.flags.writeable = False
        object.__setattr__(self, "codewords", words)
        # hashed once: a linear code by its generator, any other by its words
        key = None if rows is not None else words.tobytes()
        object.__setattr__(self, "_hash", hash((self.n, rows, key)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Code):
            return NotImplemented
        return (self.n, self.generator) == (other.n, other.generator) and (
            self.generator is not None or np.array_equal(self.codewords, other.codewords)
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def size(self) -> int:
        return len(self.codewords)

    @property
    def log_size(self) -> float:
        """log2 of the number of codewords, in bits."""
        return math.log2(self.size)

    @property
    def redundancy(self) -> int:
        """n - k, the syndrome length of a linear code (|C| = 2^k)."""
        return self.n - (self.size.bit_length() - 1)

    @property
    def rate(self) -> float:
        """Normalized rate log2|C| / n."""
        return self.log_size / self.n

    def __repr__(self) -> str:
        label = self.name or f"{self.size} codewords"
        return f"Code(n={self.n}, {label})"


def repetition_code(n: int) -> Code:
    _check_dim(n)
    return Code(n=n, generator=((1 << n) - 1,), name=f"repetition({n})")


def parity_code(n: int) -> Code:
    """Even-weight code of length n (single parity check)."""
    if n < 2:
        raise ValueError("parity code needs n >= 2")
    _check_dim(n)
    rows = [(1 << i) | (1 << (n - 1)) for i in range(n - 1)]
    return Code(n=n, generator=tuple(rows), name=f"parity({n})")


def hamming74_code() -> Code:
    # systematic [7,4] Hamming generator, G = [I_4 | P]
    rows_bits = [
        "1000110",
        "0100101",
        "0010011",
        "0001111",
    ]
    rows = [int(r[::-1], 2) for r in rows_bits]
    return Code(n=7, generator=tuple(rows), name="hamming74")


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
    return Code(n=n, generator=tuple(rows), name=f"reed_muller({r},{m})")


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
            return Code(n=n, generator=tuple(rows), name=f"random_linear({n},{k},{seed})")


def full_space_code(n: int) -> Code:
    _check_dim(n)
    rows = [1 << i for i in range(n)]
    return Code(n=n, generator=tuple(rows), name=f"full_space({n})")


def single_code(n: int) -> Code:
    _check_dim(n)
    return Code(n=n, codewords=[0], name=f"single({n})")


def _parse_bit_lines(text: str, kind: str) -> tuple[int, dict[int, int]]:
    """Length n and value of each nonblank '0'/'1' line of a code file, keyed by its number from 1."""
    lines = {i: ln.strip() for i, ln in enumerate(text.splitlines(), 1) if ln.strip()}
    if not lines:
        raise ValueError(f"empty {kind} file")
    n = len(next(iter(lines.values())))
    for i, ln in lines.items():
        if len(ln) != n:
            raise ValueError(f"line {i}: length {len(ln)} != {n}")
        if set(ln) - {"0", "1"}:
            raise ValueError(f"line {i}: invalid character")
    _check_dim(n)
    return n, {i: int(ln[::-1], 2) for i, ln in lines.items()}


def parse_generator_file(text: str, name: str = "file") -> Code:
    """Parse a generator matrix, one row of '0'/'1' characters per line.

    Bit order: the first character of a line is coordinate 0.
    """
    n, rows = _parse_bit_lines(text, "generator")
    return Code(n=n, generator=tuple(rows.values()), name=name)


def parse_codeword_file(text: str, name: str = "file") -> Code:
    """Parse an explicit codeword list, one codeword per line, in any order but without repeats."""
    n, words = _parse_bit_lines(text, "codeword")
    first = {}  # codeword -> the line that holds it
    for i, word in words.items():
        if first.setdefault(word, i) != i:
            raise ValueError(f"line {i}: duplicate codeword")
    return Code(n=n, codewords=sorted(words.values()), name=name)


# a spec's code family -> its constructor, ``<family>_code``, which takes the spec's integers
_FAMILIES = {
    build.__name__.removesuffix("_code"): build
    for build in (repetition_code, parity_code, hamming74_code, reed_muller_code,
                  random_linear_code, full_space_code, single_code)
}


def make_code(spec: str) -> Code:
    """Build a code from a compact textual spec: its family, then exactly the family's integers.

    Examples: ``repetition:3``, ``parity:5``, ``hamming74``,
    ``reed_muller:1,3``, ``random_linear:12,4,7``, ``full_space:2``,
    ``single:5``.  A missing, extra or non-integer argument, or one the
    family rejects, raises ``ValueError`` naming the spec.
    """
    kind, _, argstr = spec.partition(":")
    build = _FAMILIES.get(kind)
    if build is None:
        raise ValueError(f"unknown code family {kind!r}")
    try:
        args = [int(a) for a in argstr.split(",")] if argstr else []
        arity = build.__code__.co_argcount  # each constructor takes only positional integers
        if len(args) != arity:
            raise ValueError(f"{kind} takes {arity} integer argument(s), got {len(args)}")
        return build(*args)
    except ValueError as exc:
        raise ValueError(f"bad code spec {spec!r}: {exc}") from exc
