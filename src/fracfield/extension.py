"""Radial profile of the degenerate extension problem and its energy identity.

The profile psi solves

    psi'' + ((1 - 2*alpha)/s) * psi' = psi,   psi(0) = 1,
    -lim_{s->0+} s^(1-2*alpha) * psi'(s) = k_alpha := 2^(1-2*alpha) * Gamma(1-alpha) / Gamma(alpha),

and decays like e^(-s). One mode of the extended harmonic problem with
eigenvalue mu contributes the weighted line energy

    k_alpha^(-1) * integral_0^inf y^(1-2*alpha) * mu * (psi(sqrt(mu)*y)^2 + psi'(sqrt(mu)*y)^2) dy,

which equals mu^alpha; extension_energy computes the integral numerically so
the identity stays a genuine check rather than an algebraic tautology.

Numerically the decaying solution cannot be marched outward (the growing
companion solution amplifies roundoff by e^(+s)), so the profile is built
from a Frobenius series on (0, s0] matched to an adaptive integrator run
inward from a large-s asymptotic start in the rescaled variable
w(s) = psi(s) * e^(+s), where the contaminating mode decays instead.

solve_profile is the one function that loads scipy.integrate (for
solve_ivp), and it loads it when called, so a task that never builds the
profile does not pay for that import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegrationFailure, QuadratureFailure

_SERIES_TERMS = 48
_MATCH_POINT = 1.0
_ASYMPTOTIC_PAD = 8.0
_ASYMPTOTIC_TERMS = 5
# points of solve_profile's positivity and monotonicity checks
_N_SAMPLES = 400


def k_alpha(alpha: float) -> float:
    """Flux normalization constant 2^(1-2*alpha) * Gamma(1-alpha) / Gamma(alpha)."""
    return 2.0 ** (1.0 - 2.0 * alpha) * math.gamma(1.0 - alpha) / math.gamma(alpha)


def _series_coeffs(alpha: float, n_terms: int):
    """Frobenius coefficients: psi = A(s^2) + s^(2*alpha) * B(s^2)."""
    a = np.empty(n_terms)
    b = np.empty(n_terms)
    a[0] = 1.0
    b[0] = -k_alpha(alpha) / (2.0 * alpha)
    for n in range(1, n_terms):
        a[n] = a[n - 1] / (4.0 * n * (n - alpha))
        b[n] = b[n - 1] / (4.0 * n * (n + alpha))
    return a, b


def _series(a: np.ndarray, b: np.ndarray, alpha: float, s):
    """(psi, psi', -s^(1-2*alpha) psi') from the Frobenius series at s <= _MATCH_POINT.

    The flux is organized to avoid overflow as s -> 0.
    """
    polyval = np.polynomial.polynomial.polyval
    z = s * s
    n = np.arange(a.size)
    da = polyval(z, 2.0 * n[1:] * a[1:])
    db = polyval(z, (2.0 * n + 2.0 * alpha) * b)
    psi = polyval(z, a) + s ** (2.0 * alpha) * polyval(z, b)
    dpsi = s * da + s ** (2.0 * alpha - 1.0) * db
    return psi, dpsi, -(s ** (2.0 - 2.0 * alpha)) * da - db


@dataclass(frozen=True)
class BesselProfile:
    """Profile psi on (0, s_max] from series and dense-march data.

    The psi/psi_prime/flux methods evaluate anywhere in (0, s_max].
    """

    alpha: float
    s_max: float
    k_alpha: float
    _a: np.ndarray = field(repr=False)
    _b: np.ndarray = field(repr=False)
    _sol: object = field(repr=False)
    _sigma: float = field(repr=False)

    def psi(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        out = np.empty_like(s)
        near = s <= _MATCH_POINT
        out[near] = _series(self._a, self._b, self.alpha, s[near])[0]
        far = ~near
        if far.any():
            w = self._sol(s[far])[0]
            out[far] = self._sigma * w * np.exp(-s[far])
        return out

    def psi_prime(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        out = np.empty_like(s)
        near = s <= _MATCH_POINT
        out[near] = _series(self._a, self._b, self.alpha, s[near])[1]
        far = ~near
        if far.any():
            w, dw = self._sol(s[far])
            out[far] = self._sigma * (dw - w) * np.exp(-s[far])
        return out

    def flux(self, s) -> np.ndarray:
        """-s^(1-2*alpha) * psi'(s)."""
        s = np.asarray(s, dtype=float)
        out = np.empty_like(s)
        near = s <= _MATCH_POINT
        out[near] = _series(self._a, self._b, self.alpha, s[near])[2]
        far = ~near
        if far.any():
            out[far] = -(s[far] ** (1.0 - 2.0 * self.alpha)) * self.psi_prime(s[far])
        return out

    def flux_limit(self) -> float:
        """-s^(1-2*alpha) psi'(s) at s = 1e-16, which realizes the limit s -> 0: k_alpha."""
        return float(self.flux(np.array([1e-16]))[0])


def solve_profile(alpha: float, s_max: float = 25.0) -> BesselProfile:
    """Build the decaying profile for fractional order alpha on (0, s_max].

    Raises IntegrationFailure if the profile loses positivity or monotonicity
    on _N_SAMPLES log-graded points of [1e-8, s_max] or the series and march
    disagree at the matching point.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if s_max < 5.0:
        raise ValueError(f"s_max must be at least 5, got {s_max}")
    # imported here, not with the module: see domain.mask_betti
    from scipy.integrate import solve_ivp

    a, b = _series_coeffs(alpha, _SERIES_TERMS)
    s0 = _MATCH_POINT
    s_start = s_max + _ASYMPTOTIC_PAD

    # asymptotic shape of w = psi * e^s (overall scale free): s^(alpha-1/2) * P(1/s)
    c = np.empty(_ASYMPTOTIC_TERMS)
    c[0] = 1.0
    for j in range(1, _ASYMPTOTIC_TERMS):
        c[j] = c[j - 1] * (4.0 * alpha**2 - (2.0 * j - 1.0) ** 2) / (8.0 * j)
    nu = alpha - 0.5
    inv = 1.0 / s_start
    P = float(np.polynomial.polynomial.polyval(inv, c))
    dP = float(np.polynomial.polynomial.polyval(inv, -np.arange(1, _ASYMPTOTIC_TERMS) * c[1:]))
    w0 = s_start**nu * P
    dw0 = nu * s_start ** (nu - 1.0) * P + s_start**nu * dP * (-(inv**2))

    def rhs(s, y):
        w, dw = y
        coef = (1.0 - 2.0 * alpha) / s
        return (dw, (2.0 - coef) * dw + coef * w)

    res = solve_ivp(
        rhs,
        (s_start, s0),
        (w0, dw0),
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        dense_output=True,
    )
    if not res.success:
        raise IntegrationFailure(f"inward march failed: {res.message}")
    sol = res.sol

    # match the free scale to the series at s0, then cross-check the derivative
    psi0, dpsi0, _ = _series(a, b, alpha, s0)

    w_s0, dw_s0 = sol(s0)
    sigma = psi0 * math.exp(s0) / w_s0
    dpsi0_march = sigma * (dw_s0 - w_s0) * math.exp(-s0)
    if abs(dpsi0_march - dpsi0) > 1e-8 * max(abs(dpsi0), 1e-3):
        raise IntegrationFailure(
            f"series/march derivative mismatch at s0={s0}: "
            f"{dpsi0_march} vs {dpsi0}"
        )

    profile = BesselProfile(
        alpha=float(alpha),
        s_max=float(s_max),
        k_alpha=k_alpha(alpha),
        _a=a,
        _b=b,
        _sol=sol,
        _sigma=float(sigma),
    )
    psi_g = profile.psi(np.geomspace(1e-8, s_max, _N_SAMPLES))
    if not (psi_g > 0).all():
        raise IntegrationFailure("profile lost positivity on the sample grid")
    if not (np.diff(psi_g) < 1e-14).all():
        raise IntegrationFailure("profile is not decreasing on the sample grid")
    return profile


def extension_energy(profile: BesselProfile, mu: float) -> float:
    """Weighted line energy of one extended mode; analytically equals mu^alpha.

    Composite Gauss-Legendre panels on a geometric y-grid resolve the
    y^(2*alpha - 1) endpoint behavior; the skipped head below the first panel
    and the exponential tail beyond y_max = s_max/sqrt(mu) are bounded
    analytically and gate the result via QuadratureFailure.
    """
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    alpha = profile.alpha
    root_mu = math.sqrt(mu)
    y_max = profile.s_max / root_mu
    y_min = 1e-24 * y_max

    nodes, weights = np.polynomial.legendre.leggauss(12)
    edges = np.geomspace(y_min, y_max, 701)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    y = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    wts = (half[:, None] * weights[None, :]).ravel()

    t = root_mu * y
    f = y ** (1.0 - 2.0 * alpha) * mu * (profile.psi(t) ** 2 + profile.psi_prime(t) ** 2)
    value = float(np.sum(wts * f)) / profile.k_alpha

    # head: |psi| <= 1 and |psi'| <= k_alpha * t^(2*alpha-1) * (1 + o(1)) near 0
    head = (
        mu * y_min ** (2.0 - 2.0 * alpha) / (2.0 - 2.0 * alpha)
        + 2.0 * profile.k_alpha**2 * mu ** (2.0 * alpha) * y_min ** (2.0 * alpha) / (2.0 * alpha)
    ) / profile.k_alpha
    # tail: integrand ~ C * e^(-2*sqrt(mu)*y) beyond y_max
    f_end = float(
        y_max ** (1.0 - 2.0 * alpha)
        * mu
        * (profile.psi(np.array([profile.s_max]))[0] ** 2 + profile.psi_prime(np.array([profile.s_max]))[0] ** 2)
    ) / profile.k_alpha
    tail = f_end / (2.0 * root_mu)

    err = head + tail
    if err > 1e-6 * abs(value):
        raise QuadratureFailure(
            f"estimated quadrature error {err:.3e} exceeds 1e-6 of value {value:.6e} "
            f"(raise s_max when building the profile)"
        )
    return value


def scaling_check(alphas, mus):
    """Rows (alpha, mu, computed, expected, rel_err) for the mu^alpha identity."""
    rows = []
    for alpha in alphas:
        profile = solve_profile(alpha)
        for mu in mus:
            got = extension_energy(profile, mu)
            want = mu**alpha
            rows.append((alpha, mu, got, want, (got - want) / want))
    return rows
