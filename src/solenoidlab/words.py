"""Digit words over {0..b-1}, system parameters, the scale map and b-adic cells.

Words are the symbolic addresses of fiber points: the word ``j_1 j_2 ... j_n``
over base b names the point ``(x + j_1 + j_2 b + ... + j_n b^{n-1}) / b^n``,
i.e. digit codes are little-endian (the first digit carries weight 1).
Serialized form is the plain digit string ``"10210"`` read left to right.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .periodic import PeriodicFn, sup_norm

#: Largest b^level at which b-adic cell indices stay exact in float64.
BIN_CAP = 2**45


def bin_index(values, b: int, level: int) -> np.ndarray:
    """Indices of the level-``level`` b-adic cells holding the values."""
    return np.floor(np.asarray(values, dtype=float) * float(b) ** level).astype(np.int64)


def sorted_unique(keys: np.ndarray, kind: str | None = None) -> np.ndarray:
    """Distinct values of ``keys`` in ascending order, by sort and neighbour diff.

    Used instead of ``np.unique``/``np.union1d``: without ``return_*``
    arguments those run a hash table since numpy 2.3, about 60x slower than a
    sort on 10^6 int64 keys.  Pass ``kind="stable"`` when ``keys`` is a
    concatenation of sorted runs; timsort then merges them in linear time.
    """
    k = np.sort(keys, kind=kind)
    if len(k) < 2:
        return k
    keep = np.empty(len(k), dtype=bool)
    keep[0] = True
    np.not_equal(k[1:], k[:-1], out=keep[1:])
    return k[keep]


@dataclass(frozen=True)
class Word:
    """Finite digit string over {0, .., b-1}."""

    digits: tuple[int, ...]
    b: int

    def __post_init__(self):
        if self.b < 2:
            raise ValueError("base must be >= 2")
        d = tuple(int(v) for v in self.digits)
        if any(v < 0 or v >= self.b for v in d):
            raise ValueError(f"digits must lie in 0..{self.b - 1}")
        object.__setattr__(self, "digits", d)

    def __len__(self) -> int:
        return len(self.digits)

    @classmethod
    def empty(cls, b: int) -> "Word":
        return cls((), b)

    @classmethod
    def from_code(cls, code: int, length: int, b: int) -> "Word":
        """Inverse of :meth:`code` for a fixed length."""
        if code < 0 or code >= b**length:
            raise ValueError("code out of range for this length")
        d = []
        for _ in range(length):
            d.append(code % b)
            code //= b
        return cls(tuple(d), b)

    def to_string(self) -> str:
        return "".join(str(v) for v in self.digits)

    def code(self) -> int:
        """Little-endian integer code: j_1 + j_2 b + ... + j_n b^{n-1}."""
        c = 0
        for v in reversed(self.digits):
            c = c * self.b + v
        return c

    def concat(self, other: "Word") -> "Word":
        if other.b != self.b:
            raise ValueError("base mismatch")
        return Word(self.digits + other.digits, self.b)


def word_point(w: Word, x: float) -> float:
    """Map a word and base point to (x + code(w)) / b^len(w), in [0, 1]."""
    return (x + w.code()) / float(w.b ** len(w))


@functools.lru_cache(maxsize=1024)
def nhat(n: int, b: int, gamma: float) -> int:
    """The unique integer with gamma^nhat <= b^(-n) < gamma^(nhat-1).

    Computed as ceil(n log b / log(1/gamma)) and then verified with exact
    rational powers of the floats, nudging by one if the float crossing
    was misjudged.  Ties (gamma^nhat == b^(-n)) take the larger value, the
    non-strict side of the inequality.  Memoized, as scans ask for the same
    scales again and again; a refusal is not cached and raises every time.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if b < 2 or not 0.0 < gamma < 1.0:
        raise ValueError("need b >= 2 and gamma in (0, 1)")
    k = math.ceil(n * math.log(b) / math.log(1.0 / gamma))
    g = Fraction(gamma)
    target = Fraction(1, b**n)
    while g**k > target:
        k += 1
    while k > 1 and g ** (k - 1) <= target:
        k -= 1
    return k


@dataclass(frozen=True)
class SystemParams:
    """The skew product (x, y) -> (b x mod 1, gamma y + phi(x)) plus the
    truncation policy used when finite words stand in for infinite ones."""

    b: int
    gamma: float
    phi: PeriodicFn
    truncation_tol: float = 1e-9

    def __post_init__(self):
        if self.b < 2:
            raise ValueError("b must be >= 2")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not self.truncation_tol > 0.0:
            raise ValueError("truncation_tol must be positive")

    @property
    def fiber_bound(self) -> float:
        """M with |series value| <= M for every base point and word."""
        return sup_norm(self.phi, 0) / (1.0 - self.gamma)

    @property
    def truncation_depth(self) -> int:
        """Smallest p with gamma^p * sup|phi| / (1 - gamma) <= truncation_tol;
        raises when that takes more than 4096 digits."""
        m = sup_norm(self.phi, 0)
        if m == 0.0:
            return 1
        p = 1
        budget = self.gamma * m / (1.0 - self.gamma)
        while budget > self.truncation_tol:
            if p == 4096:
                raise ValueError(
                    f"gamma={self.gamma} needs more than 4096 digits to reach truncation_tol="
                    f"{self.truncation_tol}: the tail bound at 4096 digits is {budget:.3g}"
                )
            budget *= self.gamma
            p += 1
        return p

    def tail_bound(self, depth: int) -> float:
        """Certified bound sup|phi| gamma^depth / (1 - gamma) for the dropped
        tail of the word series after ``depth`` evaluated digits."""
        return sup_norm(self.phi, 0) * self.gamma**depth / (1.0 - self.gamma)

    @property
    def log_b_inv_gamma(self) -> float:
        """log_b(1/gamma): the b-adic levels one word digit resolves.

        Computed from the float logarithms, not exactly: for b = 5 and
        gamma = 0.2, a float just above 1/5, it gives 1.0, so int(m * it)
        is m, one level above the exact floor for the float gamma.
        """
        return math.log(1.0 / self.gamma) / math.log(self.b)

    def max_bin_level(self) -> int:
        """Deepest b-adic level whose cell indices stay exact in float64."""
        return max_level(self.b, BIN_CAP)


def max_level(b: int, limit) -> int:
    """Largest L >= 0 with b^L <= limit, in exact integer arithmetic; b >= 2."""
    if b < 2:
        raise ValueError(f"b must be >= 2, got b={b}")
    level, power = 0, b
    while power <= limit:
        level, power = level + 1, power * b
    return level


def check_level(b: int, level: int) -> None:
    """Refuse a negative level, a base below 2, or a level whose cells b^level pass BIN_CAP."""
    if level < 0:
        raise ValueError("level must be nonnegative")
    if level > max_level(b, BIN_CAP):
        raise ValueError(f"level {level} too deep: b^{level} = {b**level} is above the exact-index cap "
                         f"{BIN_CAP}; the deepest level allowed at b={b} is {max_level(b, BIN_CAP)}")


def check_draw(b: int, length: int, what: str) -> None:
    """Refuse a seeded draw of codes below b^length > 2^63, numpy's int64 bound, naming ``what``."""
    if b**length > 2**63:
        raise ValueError(f"{what} draws codes below b^{length} = {b**length}, above the limit 2^63 of a "
                         f"seeded draw; the largest value allowed at b={b} is {max_level(b, 2**63)}")
