import itertools
import math

import mpmath
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from bootperc.analytic import (
    ConvergenceError,
    QuadratureSettings,
    beta,
    g,
    l_exact,
    lambda_constant,
    lambda_table,
    q_of_p,
)
from bootperc.montecarlo import estimate_lgap
from bootperc.structures import DomainError


def test_beta_closed_forms():
    # k = 1, u = 1/2: x^2 = x/2 + 1/4, positive root (1 + sqrt(5)) / 4.
    assert beta(1, 0.5) == pytest.approx((1 + math.sqrt(5)) / 4, abs=1e-15)
    assert beta(3, 0.0) == 0.0
    assert beta(3, 1.0) == 1.0


@given(st.integers(1, 8), st.floats(0.0, 1.0))
def test_beta_satisfies_quadratic(k, u):
    w = (1 - u) ** k
    b, c = 1 - w, u * w
    x = beta(k, u)
    assert x * x == pytest.approx(b * x + c, abs=1e-12)
    assert 0.0 <= x <= 1.0


@given(st.integers(1, 8), st.floats(1e-6, 1.0 - 1e-9), st.floats(1e-6, 1.0 - 1e-9))
def test_beta_monotone_in_u(k, u1, u2):
    lo, hi = sorted((u1, u2))
    assert beta(k, lo) <= beta(k, hi) + 1e-15


def test_beta_domain():
    with pytest.raises(DomainError):
        beta(0, 0.5)
    with pytest.raises(DomainError):
        beta(2, 1.5)


def test_g_values():
    # g_k(z) = -log beta_k(1 - e^-z); at z = log 2 the inner u is 1/2.
    assert g(1, math.log(2)) == pytest.approx(-math.log((1 + math.sqrt(5)) / 4),
                                              abs=1e-14)
    # Far tail: beta -> 1 so g -> 0, but stays strictly positive.
    assert g(1, 50.0) > 0.0
    assert g(1, 50.0) < 1e-20
    with pytest.raises(DomainError):
        g(1, 0.0)


@given(st.integers(1, 6), st.floats(1e-8, 50.0))
def test_g_consistent_with_direct_formula(k, z):
    direct = -math.log(beta(k, -math.expm1(-z)))
    assert g(k, z) == pytest.approx(direct, abs=1e-12)


def test_q_of_p():
    assert q_of_p(0.0) == 0.0
    assert q_of_p(0.5) == pytest.approx(math.log(2), abs=1e-15)
    with pytest.raises(DomainError):
        q_of_p(1.0)


def enumerate_lgap(ell, m, u):
    """Brute-force oracle: sum over all outcomes of the m+1 primary and
    ell*m secondary indicators, adding up the no-gap probabilities."""
    total = 0.0
    for bits in itertools.product([0, 1], repeat=(m + 1) + ell * m):
        primary = bits[:m + 1]
        prob = 1.0
        for b in bits:
            prob *= u if b else (1 - u)
        gap = False
        for i in range(m):
            if primary[i] or primary[i + 1]:
                continue
            secondary = bits[m + 1 + i * ell: m + 1 + (i + 1) * ell]
            if not any(secondary):
                gap = True
                break
        if not gap:
            total += prob
    return total


@pytest.mark.parametrize("ell,m,u", [
    (0, 1, 0.5), (0, 2, 0.3), (0, 3, 0.7),
    (1, 1, 0.5), (1, 2, 0.4), (1, 3, 0.6),
    (2, 1, 0.25), (2, 2, 0.5),
])
def test_l_exact_matches_enumeration(ell, m, u):
    assert l_exact(ell, m, u) == pytest.approx(enumerate_lgap(ell, m, u),
                                               abs=1e-12)


def test_l_exact_edge_cases():
    assert l_exact(0, 0, 0.3) == 1.0
    assert l_exact(2, -1, 0.3) == 1.0
    assert l_exact(0, 5, 1.0) == 1.0
    assert l_exact(0, 1, 0.0) == 0.0
    with pytest.raises(DomainError):
        l_exact(-1, 2, 0.5)


def mpmath_l_recurrence(ell, m, u):
    """The no-L-gap recurrence run step by step in 30-digit arithmetic."""
    with mpmath.workdps(30):
        u = mpmath.mpf(u)
        w = (1 - u) ** (ell + 1)
        prev2 = prev1 = mpmath.mpf(1)
        for _ in range(m):
            prev2, prev1 = prev1, (1 - w) * prev1 + u * w * prev2
        return prev1


@pytest.mark.parametrize("ell,u", [(0, 0.9), (1, 0.7), (2, 0.5), (2, 0.97)])
@pytest.mark.parametrize("m", [1000, 5000])
def test_l_exact_matches_mpmath_recurrence(ell, m, u):
    want = mpmath_l_recurrence(ell, m, u)
    assert want > 1e-300
    assert abs(l_exact(ell, m, u) - want) <= 1e-12 * want


def test_l_exact_underflows_to_zero():
    # The true value is below 1e-500; a step-by-step float loop stuck at the
    # subnormal 2.5e-323 here.
    assert l_exact(1, 10 ** 4, 0.5) == 0.0


@given(st.integers(0, 2), st.integers(1, 100),
       st.floats(0.01, 0.99))
def test_l_exact_sandwich(ell, m, u):
    b = beta(ell + 1, u)
    val = l_exact(ell, m, u)
    assert b ** (m + 1) <= val + 1e-12
    assert val <= b ** m + 1e-12


def scipy_lambda(d, r):
    """Independent oracle for the threshold constant via scipy quadrature."""
    a = d - r + 1

    def f(z):
        u = -math.expm1(-z ** a)
        w = (1 - u) ** (r - 1)
        b, c = 1 - w, u * w
        return -math.log(0.5 * (b + math.sqrt(b * b + 4 * c)))

    low, _ = integrate.quad(lambda s: f(math.exp(-s)) * math.exp(-s), 0, 100,
                            limit=200)
    high, _ = integrate.quad(f, 1, 200, limit=200)
    return low + high


@pytest.mark.parametrize("d,r", [(2, 2), (3, 2), (3, 3), (5, 4), (7, 3),
                                 (7, 7)])
def test_lambda_matches_scipy_oracle(d, r):
    assert lambda_constant(d, r) == pytest.approx(scipy_lambda(d, r), abs=1e-7)


def mpmath_lambda(d, r):
    """Independent oracle for the threshold constant in 30-digit arithmetic,
    where z^(d-r+1) neither underflows nor overflows."""
    a, k = d - r + 1, r - 1
    with mpmath.workdps(30):
        def f(z):
            x = z ** a
            u, w = -mpmath.expm1(-x), mpmath.exp(-k * x)
            b, c = 1 - w, u * w
            return -mpmath.log((b + mpmath.sqrt(b * b + 4 * c)) / 2)

        return float(mpmath.quad(f, [0, 0.5, 0.9, 1, 1.1, 2, mpmath.inf]))


@pytest.mark.parametrize("d,r", [(14, 2), (20, 2), (40, 2), (40, 20)])
def test_lambda_of_large_exponent_matches_mpmath_oracle(d, r):
    # The integrand is g(r-1, z^(d-r+1)), whose argument leaves the float
    # range at both ends when d - r + 1 is large.
    assert lambda_constant(d, r) == pytest.approx(mpmath_lambda(d, r), abs=1e-8)


def test_quadrature_settings_refuse_non_finite_tolerance():
    for tol in (math.inf, math.nan):
        with pytest.raises(DomainError):
            QuadratureSettings(abs_tol=tol)


def test_lambda_closed_form():
    assert lambda_constant(2, 2) == pytest.approx(math.pi ** 2 / 18, abs=1e-8)


def test_lambda_tolerance_is_respected():
    loose = lambda_constant(3, 3, QuadratureSettings(abs_tol=1e-4))
    tight = lambda_constant(3, 3, QuadratureSettings(abs_tol=1e-10))
    assert abs(loose - tight) < 1e-4


def test_lambda_domain():
    with pytest.raises(DomainError):
        lambda_constant(3, 1)
    with pytest.raises(DomainError):
        lambda_constant(2, 3)
    with pytest.raises(DomainError):
        QuadratureSettings(abs_tol=0.0)


@pytest.mark.parametrize("call", [
    lambda: lambda_constant(3.5, 2),
    lambda: lambda_constant(3, 2.0),
    lambda: lambda_constant(True, 2),
    lambda: lambda_table(3.0),
    lambda: lambda_table("3"),
    lambda: l_exact(1.5, 2, 0.5),
    lambda: l_exact(1, True, 0.5),
    lambda: l_exact(1, 2.0, 0.5),
    lambda: estimate_lgap(1, 2.5, 0.5, 10, 1),
    lambda: estimate_lgap(False, 2, 0.5, 10, 1),
    lambda: estimate_lgap("1", 2, 0.5, 10, 1),
], ids=["lambda-d-float", "lambda-r-float", "lambda-d-bool", "table-float", "table-string",
        "l_exact-ell-float", "l_exact-m-bool", "l_exact-m-float", "lgap-m-float",
        "lgap-ell-bool", "lgap-ell-string"])
def test_integer_parameters_refuse_other_numbers(call):
    with pytest.raises(DomainError, match="must be an integer"):
        call()


def test_quadrature_depth_exhaustion():
    with pytest.raises(ConvergenceError):
        lambda_constant(2, 2, QuadratureSettings(abs_tol=1e-300))


def test_lambda_table_shape():
    rows = lambda_table(4)
    assert [(d, r) for d, r, _ in rows] == [(2, 2), (3, 2), (3, 3),
                                            (4, 2), (4, 3), (4, 4)]
    lookup = {(d, r): v for d, r, v in rows}
    assert lookup[(2, 2)] == pytest.approx(lambda_constant(2, 2), abs=1e-12)
    with pytest.raises(DomainError):
        lambda_table(1)
