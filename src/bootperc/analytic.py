"""Exact and numeric evaluation of the growth functions and the threshold
constant integral.

``beta(k, u)`` is the positive root of x^2 = b x + c with
b = 1 - (1-u)^k and c = u (1-u)^k; ``g(k, z) = -log(beta(k, 1 - e^-z))``;
``lambda_constant(d, r)`` integrates g(r-1, z^(d-r+1)) over (0, inf).

Probabilities go through ``structures.check_probability`` and ranges through
``check_number``'s bounds, which hold k, ell, z and d to at most
``_FLOAT_MAX``, so that no float conversion overflows.  Inputs are checked
once, at the public call: the kernels ``_root`` and ``_g`` check nothing.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .structures import DomainError, check_number, check_probability, shown

_FLOAT_MAX = sys.float_info.max  # the largest k, ell, z or d: each converts to a float


class ConvergenceError(ArithmeticError):
    """Adaptive quadrature failed to converge within the depth budget."""


_MAX_DEPTH = 60  # the adaptive quadrature's budget of panel halvings


@dataclass(frozen=True)
class QuadratureSettings:
    """Tolerance for the threshold-constant integral.

    The integration tail is cut off where the analytic bound on the
    remainder drops below half of ``abs_tol`` (see ``lambda_constant``).
    """

    abs_tol: float = 1e-8

    def __post_init__(self) -> None:
        abs_tol = check_number(self.abs_tol, "abs_tol", hi=_FLOAT_MAX)
        if not abs_tol > 0:
            raise DomainError(f"abs_tol must be positive, not {shown(abs_tol)}")
        object.__setattr__(self, "abs_tol", abs_tol)


DEFAULT_SETTINGS = QuadratureSettings()


def _root(k: int, u: float) -> float:
    """``beta`` on checked inputs."""
    w = (1.0 - u) ** k
    b = 1.0 - w
    c = u * w
    return 0.5 * (b + math.sqrt(b * b + 4.0 * c))


def beta(k: int, u: float) -> float:
    """Growth-probability root: the positive root of x^2 = b x + c.

    Computed from the root formula (b + sqrt(b^2 + 4c)) / 2, which is
    cancellation-safe near u = 0.
    """
    return _root(check_number(k, "k", numbers.Integral, 1, _FLOAT_MAX), check_probability(u, "u"))


def g(k: int, z: float) -> float:
    """-log(beta(k, 1 - e^-z)) for z > 0."""
    z = float(check_number(z, "z", hi=_FLOAT_MAX))
    if not z > 0.0:
        raise DomainError("g is defined for z > 0 only")
    return _g(check_number(k, "k", numbers.Integral, 1, _FLOAT_MAX), z)


def _g(k: int, z: float) -> float:
    """``g`` on checked inputs: the quadrature's integrand."""
    u = -math.expm1(-z)  # 1 - e^-z without cancellation
    root = _root(k, u)
    if root >= 0.5:
        # Rationalized form: with w = (1-u)^k = e^-kz and
        # s = sqrt((1-w)^2 + 4uw), algebra on the root formula gives
        # 1 - beta = 2 w e^-z / (1 + w + s), with no cancellation even
        # when u rounds to 1 in floating point.
        w = math.exp(-k * z)
        s = math.sqrt((1.0 - w) ** 2 + 4.0 * u * w)
        one_minus = 2.0 * w * math.exp(-z) / (1.0 + w + s)
        return -math.log1p(-one_minus)
    return -math.log(root)


def q_of_p(p: float) -> float:
    """q = -log(1 - p), the natural growth parameter, for p in [0, 1)."""
    if check_probability(p, "p") == 1.0:
        raise DomainError("q = -log(1 - p) is infinite at p = 1")
    return -math.log1p(-p)


def l_exact(ell: int, m: int, u: float) -> float:
    """Exact probability of no L-gap among m+1 primary and ell*m secondary
    independent events of probability u, by the linear two-term recurrence
    L_j = b L_{j-1} + c L_{j-2} with L_{-1} = L_0 = 1, b = 1 - (1-u)^(ell+1)
    and c = u (1-u)^(ell+1).

    L_m is read from the m-th power of the recurrence's 2x2 transfer matrix,
    taken by repeated squaring.  The dominant root of its characteristic
    polynomial x^2 = b x + c is ``beta(ell + 1, u)``, so L_m decays like
    beta(ell + 1, u)^m.
    """
    ell = check_number(ell, "ell", numbers.Integral, 0, _FLOAT_MAX)
    m = check_number(m, "m", numbers.Integral, -1)
    u = check_probability(u, "u")
    if m <= 0:
        return 1.0
    w = (1.0 - u) ** (ell + 1)
    power = np.linalg.matrix_power(np.array([[1.0 - w, u * w], [1.0, 0.0]]), m)
    return float(power[0].sum())


def _adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    """Standard recursive adaptive Simpson with Richardson error control."""
    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fm = f(mid)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, b, fb, m, fm, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        if depth <= 0:
            raise ConvergenceError("adaptive quadrature exceeded max depth")
        return (recurse(a, fa, m, fm, lm, flm, left, 0.5 * tol, depth - 1)
                + recurse(m, fm, b, fb, rm, frm, right, 0.5 * tol, depth - 1))

    return recurse(a, fa, b, fb, mid, fm, whole, tol, _MAX_DEPTH)


def lambda_constant(d: int, r: int,
                    settings: QuadratureSettings = DEFAULT_SETTINGS) -> float:
    """The threshold constant: integral of g(r-1, z^(d-r+1)) over (0, inf).

    The integrand has an integrable logarithmic singularity at 0, handled by
    the substitution z = e^-s on (0, 1].  The upper cutoff Z is chosen so
    that the tail bound integral of 2 e^(-(r-1) z^(d-r+1)) beyond Z (valid
    for z >= 1) is below abs_tol / 2; the two adaptive panels get abs_tol / 4
    each, so the total absolute error is at most abs_tol.
    """
    d = check_number(d, "d", numbers.Integral, hi=_FLOAT_MAX)
    r = check_number(r, "r", numbers.Integral, 2, d)
    a_exp = float(d - r + 1)
    kk = r - 1
    tol = settings.abs_tol
    tiny = sys.float_info.min

    def f(z: float) -> float:
        # A large a_exp takes z^a_exp out of the float range.  Below it,
        # g(k, x) = -log(x) / 2 to double precision; above it, g is 0.
        try:
            x = z ** a_exp
        except OverflowError:
            return 0.0
        if x < tiny:
            return -0.5 * a_exp * math.log(z)
        return _g(kk, x)

    # (0, 1] via z = e^-s: the transformed integrand decays like s * e^-s,
    # so s = 60 leaves a remainder far below any supported tolerance.
    low = _adaptive_simpson(lambda s: f(math.exp(-s)) * math.exp(-s),
                            0.0, 60.0, 0.25 * tol)
    # [1, Z] with the exponential tail bound: z^a >= z for z >= 1, so the
    # remainder beyond Z is at most 2 e^(-kk Z) / kk.
    z_max = max(1.0, math.log(4.0 / (kk * tol)) / kk)
    high = _adaptive_simpson(f, 1.0, z_max, 0.25 * tol)
    return low + high


def lambda_table(d_max: int,
                 settings: QuadratureSettings = DEFAULT_SETTINGS) -> list[tuple[int, int, float]]:
    """All (d, r, lambda(d, r)) for 2 <= r <= d <= d_max."""
    d_max = check_number(d_max, "d_max", numbers.Integral, 2, _FLOAT_MAX)
    return [(d, r, lambda_constant(d, r, settings))
            for d in range(2, d_max + 1)
            for r in range(2, d + 1)]
