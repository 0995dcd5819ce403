"""Closed-form measure values, the cross-checking oracles for cubature.

Several published expressions for these quantities circulate with typoed
coefficients; each formula here was re-derived and is pinned against
brute-force integration in the test suite (the typoed variants are also
tested and must fail).  Each is written once: cce and b_k are the order-1
cases of fcce and ccigf where those apply, and a divergence adds the two
means from closed_form_bk to its cross term.  Functions raise
:class:`NoClosedForm` for families without a usable expression.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import expi

from .copulas import CopulaModel
from .errors import NoClosedForm

# Notes attached to machine-checked formula corrections, surfaced in CLI
# reports whenever the corresponding closed form is evaluated.
FORMULA_NOTES = {
    ("ccigf", "fgm"):
        "fgm generating function: series coefficient is the generalized "
        "binomial binom(s, x); the binom(s+x-1, x) variant fails the "
        "integral cross-check",
    ("ccigf", "marshall_olkin"):
        "marshall_olkin generating function re-derived for the standard "
        "cdf u^(1-a1) v^(1-a2) min(u^a1, v^a2); simpler circulating "
        "denominators fail at a1 = a2 = 1",
    ("fcce", "product"):
        "product fractional entropy carries a 1/(k-1)! factor, forced by "
        "the r = 1 limit",
    ("fcce", "min"):
        "min-copula fractional entropy uses exponent (x+2)^(r+1), forced "
        "by the r = 1 limit",
    ("cce", "cuadras_auge"):
        "cuadras_auge entropy inner sum runs over 1/p(i) for i = j..k; "
        "the constant-summand reading fails the independence limit",
    ("cckl", "product:min"):
        "divergence of product from min carries the factor k on the "
        "beta(2, k) term; without it the value goes negative",
    ("cckl", "lower_bound_w:product"):
        "divergence of the lower bound copula from the product is 1/18: "
        "the cross integral is -1/36 (the circulated +1/36 makes the "
        "total 1/9 and fails quadrature)",
}


def _ca_recursion(thetas: np.ndarray, s: float) -> np.ndarray:
    """q(i) = theta_i s + 1 + q(i-1) with q(1) = s + 1, ordered smallest first."""
    q = np.empty(len(thetas))
    q[0] = s + 1.0
    for i in range(1, len(thetas)):
        q[i] = thetas[i] * s + 1.0 + q[i - 1]
    return q


def _ca_terms(thetas: np.ndarray) -> np.ndarray:
    """I(j) = sum_{i=j..k} 1/p(i) / prod_i p(i), with p the s = 1 recursion."""
    p = _ca_recursion(thetas, 1.0)
    inv_tail = np.cumsum((1.0 / p)[::-1])[::-1]  # sum_{i=j..k} 1/p(i)
    return inv_tail / np.prod(p)


def _gen_binom(s: float, x: int) -> float:
    """Generalized binomial coefficient s (s-1) ... (s-x+1) / x!."""
    out = 1.0
    for j in range(x):
        out *= (s - j) / (j + 1)
    return out


def closed_form_ccigf(model: CopulaModel, s: float) -> float:
    """Closed-form generating function; integral of C^s over the cube."""
    if not s > 0:  # written so that NaN fails it
        raise ValueError("order s must be positive")
    fam, k = model.family, model.dim
    if fam == "product":
        return (s + 1.0) ** -k
    if fam == "min":
        return k * beta_fn(s + 1.0, k)
    if fam == "lower_bound_w":
        return 1.0 / ((s + 1.0) * (s + 2.0))
    if fam == "cuadras_auge":
        q = _ca_recursion(model._ca_thetas, s)
        return math.factorial(k) / np.prod(q)
    if fam == "fgm":
        th = model.params[0]
        total = 0.0
        for x in range(501):
            term = _gen_binom(s, x) * th ** x * beta_fn(s + 1.0, x + 1.0) ** 2
            total += term
            if abs(term) < 1e-14 and x + 1 > s:
                break
        return total
    if fam == "marshall_olkin":
        a1, a2 = model.params
        if a1 == 0.0 or a2 == 0.0:
            return (s + 1.0) ** -2
        q1 = s * (1.0 - a1) + 1.0
        q2 = s * (1.0 - a2) + 1.0
        part_a = (1.0 / q2) * (1.0 / (s + 1.0) - 1.0 / (s + 1.0 + (a1 / a2) * q2))
        part_b = (1.0 / q1) * (1.0 / (s + 1.0) - 1.0 / (s + 1.0 + (a2 / a1) * q1))
        return part_a + part_b
    raise NoClosedForm(f"no closed-form generating function for {fam}")


def closed_form_cce(model: CopulaModel) -> float:
    """Closed-form cumulative copula entropy: fcce at r = 1, except
    Cuadras-Auge."""
    if model.family != "cuadras_auge":
        return closed_form_fcce(model, 1.0)
    thetas = model._ca_thetas
    return math.factorial(model.dim) * float(np.sum(thetas * _ca_terms(thetas)))


def closed_form_fcce(model: CopulaModel, r: float) -> float:
    """Closed-form fractional entropy of order r in [0, 1]."""
    if not 0.0 <= r <= 1.0:
        raise ValueError("order r must lie in [0, 1]")
    fam, k = model.family, model.dim
    gamma_r1 = math.gamma(r + 1.0)
    if fam == "product":
        return math.gamma(r + k) / (math.factorial(k - 1) * 2.0 ** (r + k))
    if fam == "min":
        terms = [math.comb(k - 1, x) * (-1.0) ** x / (x + 2.0) ** (r + 1.0)
                 for x in range(k)]
        return k * gamma_r1 * float(np.sum(terms))
    if fam == "lower_bound_w":
        return gamma_r1 * (2.0 ** (-r - 1.0) - 3.0 ** (-r - 1.0))
    raise NoClosedForm(f"no closed-form fractional entropy for {fam}")


def closed_form_bk(model: CopulaModel) -> float:
    """Integral of C over the cube: ccigf at s = 1, except Gumbel-Barnett."""
    if model.family != "gumbel_barnett":
        return closed_form_ccigf(model, 1.0)
    th = model.params[0]
    # int uv e^{-th ln u ln v} = (1/th) e^x E1(x) with x = 4/th, E1(x) = -Ei(-x)
    x = 4.0 / th
    if x <= 700.0:
        return -(1.0 / th) * np.exp(x) * expi(-x)
    # e^x overflows past x = 709.78: sum e^x E1(x) = sum_n (-1)^n n! / x^(n+1)
    # (Abramowitz & Stegun 5.1.51); the 12th term is below 1e-23 of the sum
    return (1.0 / th) * sum((-1) ** n * math.factorial(n) / x ** (n + 1)
                            for n in range(12))


def closed_form_cckl(model1: CopulaModel, model2: CopulaModel) -> float:
    """Closed-form divergence where one exists: by the integrand C1 ln(C1/C2)
    - C1 + C2, a cross term - closed_form_bk(C1) + closed_form_bk(C2)."""
    f1, f2 = model1.family, model2.family
    k = model1.dim
    if model2.dim != k:
        raise NoClosedForm("dimension mismatch")
    if f1 == "lower_bound_w" and f2 == "product" and k == 2:
        # cross term int W ln(W/uv) = -1/36 (W <= uv makes it negative), means
        # 1/12 = 1/4 - 1/6 as a literal (from closed_form_bk it is 4 ulp up)
        return -1.0 / 36.0 + 1.0 / 12.0
    if f1 == "product" and f2 == "gumbel_barnett":
        return model2.params[0] / 16.0 - (0.25 - closed_form_bk(model2))
    if f1 == "product" and f2 == "min":
        js = [-(2.0 ** -(k + 1)) * np.sum(1.0 / np.arange(i, k + 1))
              for i in range(2, k + 1)]
        return float(np.sum(js)) + closed_form_bk(model2) - closed_form_bk(model1)
    if f1 == "cuadras_auge" and f2 == "min":
        thetas = model1._ca_thetas
        cross = -math.factorial(k) * float(
            np.sum((thetas * _ca_terms(thetas))[1:]))
        return cross - closed_form_bk(model1) + closed_form_bk(model2)
    raise NoClosedForm(f"no closed-form divergence for ({f1}, {f2})")
