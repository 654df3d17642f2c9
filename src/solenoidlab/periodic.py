"""Real-analytic Z-periodic functions as finite trigonometric polynomials.

A :class:`PeriodicFn` is a finite Fourier series

    f(x) = sum_k a_k cos(2 pi k x) + b_k sin(2 pi k x),   k = 0..K.

Finite degree gives exact term-wise derivatives of every order and a
certified sup-norm bound ``sum_k (2 pi k)^r (|a_k| + |b_k|)``, which is what
the separation and transversality scans need.  Evaluation reduces the
argument mod 1 first, so periodicity holds structurally in floating point.

``eval_deriv`` visits only the harmonics k >= 1 whose derivative
coefficients are nonzero: per point it costs one ``cos`` for each nonzero
a_k and one ``sin`` for each nonzero b_k, and the k = 0 term is added as a
scalar.  The cosine terms are summed in ascending k, then the sine terms,
then the two sums, so a single-harmonic f is one transcendental times its
coefficient, rounded once.

Each term is built in one array that ``eval_deriv`` owns: the angle
2 pi (frac k) is scaled in place (frac k is skipped at k = 1, where it is
exact), the cos or sin overwrites it unless the sine term still needs it,
the coefficient multiplies in place, and the sums accumulate in place.  The
products and the order of the sums are those written above, so the result
is rounded exactly as the plain expression would be.  The last harmonic
reuses the array of reduced arguments, so a one-harmonic f on an array
allocates only that array and the floor.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

#: Highest derivative order eval_deriv serves.
MAX_DERIV_ORDER = 8


@dataclass(frozen=True)
class PeriodicFn:
    """Trigonometric polynomial with cosine coefficients ``a`` (k = 0..K)
    and sine coefficients ``b`` (k = 0..K, entry 0 unused)."""

    a: tuple[float, ...]
    b: tuple[float, ...]

    def __post_init__(self):
        a = tuple(float(v) for v in self.a)
        b = tuple(float(v) for v in self.b)
        if len(b) < len(a):
            b = b + (0.0,) * (len(a) - len(b))
        elif len(a) < len(b):
            a = a + (0.0,) * (len(b) - len(a))
        if not a:
            a, b = (0.0,), (0.0,)
        if not all(np.isfinite(a)) or not all(np.isfinite(b)):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def degree(self) -> int:
        return len(self.a) - 1

    # ------------------------------------------------------------ builders
    @classmethod
    def zero(cls) -> "PeriodicFn":
        return cls((0.0,), (0.0,))

    @classmethod
    def cosine(cls, amplitude: float = 1.0, harmonic: int = 1) -> "PeriodicFn":
        """amplitude * cos(2 pi harmonic x)."""
        a = [0.0] * (harmonic + 1)
        a[harmonic] = float(amplitude)
        return cls(tuple(a), (0.0,) * (harmonic + 1))

    @classmethod
    def sine(cls, amplitude: float = 1.0, harmonic: int = 1) -> "PeriodicFn":
        b = [0.0] * (harmonic + 1)
        b[harmonic] = float(amplitude)
        return cls((0.0,) * (harmonic + 1), tuple(b))

    @classmethod
    def from_triples(cls, triples) -> "PeriodicFn":
        """Build from ``(k, a_k, b_k)`` triples (the config wire format)."""
        if not triples:
            return cls.zero()
        kmax = max(int(k) for k, _, _ in triples)
        a = [0.0] * (kmax + 1)
        b = [0.0] * (kmax + 1)
        for k, ak, bk in triples:
            k = int(k)
            if k < 0:
                raise ValueError("harmonic index must be nonnegative")
            a[k] += float(ak)
            b[k] += float(bk)
        return cls(tuple(a), tuple(b))

    def to_triples(self) -> list[tuple[int, float, float]]:
        return [
            (k, self.a[k], self.b[k])
            for k in range(len(self.a))
            if self.a[k] != 0.0 or self.b[k] != 0.0
        ]


@functools.lru_cache(maxsize=1024)
def _deriv_coeffs(f: PeriodicFn, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient arrays of the order-th term-wise derivative, read-only:
    built once per (f, order) and shared by every call that evaluates it.
    Equal functions share an entry; they can differ only in the sign of a
    zero coefficient, and ``eval_deriv`` skips zero coefficients."""
    k = np.arange(len(f.a), dtype=float)
    a = np.asarray(f.a, dtype=float)
    b = np.asarray(f.b, dtype=float)
    w = (TWO_PI * k) ** order
    # each derivative maps (a, b) -> (2 pi k b, -2 pi k a); rotate mod 4
    r = order % 4
    if r == 0:
        pair = w * a, w * b
    elif r == 1:
        pair = w * b, -w * a
    elif r == 2:
        pair = -w * a, -w * b
    else:
        pair = -w * b, w * a
    for c in pair:
        c.setflags(write=False)
    return pair


def eval(f: PeriodicFn, x) -> float | np.ndarray:  # noqa: A001 - spec operation name
    """Evaluate f at x (scalar or array); argument is reduced mod 1."""
    return eval_deriv(f, x, 0)


def eval_deriv(f: PeriodicFn, x, order: int):
    """Evaluate the order-th derivative of f at x.

    order 0 equals plain evaluation.  Orders above ``MAX_DERIV_ORDER`` are
    rejected: sup-norm growth (2 pi k)^order makes very high orders useless
    in double precision.
    """
    if order < 0 or order > MAX_DERIV_ORDER:
        raise ValueError(f"derivative order {order} outside [0, {MAX_DERIV_ORDER}]")
    xa = np.asarray(x, dtype=float)
    frac = xa - np.floor(xa)  # a fresh array, or a numpy scalar for 0-d x
    a0, terms = _harmonics(f, order)
    cos_sum, sin_sum = a0, None
    for k, ak, bk in terms:
        ang = frac if k == terms[-1][0] else frac.copy()  # the last harmonic takes frac's buffer
        if k > 1:
            ang *= k
        ang *= TWO_PI
        if ak:
            cos_sum = _plus(cos_sum, _scaled(np.cos, ang, ak, keep=bool(bk)))
        if bk:
            sin_sum = _plus(sin_sum, _scaled(np.sin, ang, bk, keep=False))
    out = _plus(cos_sum, sin_sum)
    if out is None:
        out = 0.0
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out if isinstance(out, np.ndarray) else np.full(frac.shape, out)  # no harmonic: a constant


@functools.lru_cache(maxsize=1024)
def _harmonics(f: PeriodicFn, order: int):
    """(a_0 or None, ((k, a_k, b_k), ...)) of the order-th derivative: the
    constant, None if it is 0, and the harmonics k >= 1 with a nonzero
    coefficient, in ascending k."""
    a, b = _deriv_coeffs(f, order)
    terms = tuple((k, a[k], b[k]) for k in range(1, len(a)) if a[k] != 0.0 or b[k] != 0.0)
    return (a[0] if a[0] != 0.0 else None), terms


def _scaled(trig, ang, coef, keep: bool):
    """coef * trig(ang), in ang's array unless ``keep``."""
    term = trig(ang) if keep or not isinstance(ang, np.ndarray) else trig(ang, out=ang)
    term *= coef
    return term


def _plus(acc, term):
    """acc + term, where None stands for an exact 0 that is never added.

    Every array here is a buffer eval_deriv owns, so the sum is taken in place.
    """
    if acc is None:
        return term
    if term is None:
        return acc
    if isinstance(acc, np.ndarray):
        acc += term
        return acc
    term += acc  # acc is a scalar, a_0 or a sum at scalar x; addition commutes bit for bit
    return term


def sup_norm(f: PeriodicFn, order: int = 0) -> float:
    """Certified upper bound for sup |f^(order)|:  sum (2 pi k)^order (|a_k|+|b_k|)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    k = np.arange(len(f.a), dtype=float)
    w = (TWO_PI * k) ** order if order else np.ones_like(k)
    return float(np.sum(w * (np.abs(f.a) + np.abs(f.b))))


def cohomological_phi(psi: PeriodicFn, b: int, gamma: float) -> PeriodicFn:
    """Return phi(x) = psi(b x) - gamma psi(x).

    For this phi the word series telescopes to psi(x) regardless of the
    word, i.e. it generates the degenerate (graph) alternative exactly.
    """
    if b < 2:
        raise ValueError("b must be >= 2")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    n = psi.degree * b + 1
    a, s = [0.0] * n, [0.0] * n
    for k in range(len(psi.a)):  # index k * b >= k: psi(bx) lands before -gamma psi(x)
        a[k * b] += psi.a[k]
        s[k * b] += psi.b[k]
        a[k] -= gamma * psi.a[k]
        s[k] -= gamma * psi.b[k]
    return PeriodicFn(tuple(a), tuple(s))
