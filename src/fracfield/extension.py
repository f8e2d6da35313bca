"""Radial profile of the degenerate extension problem and its energy identity.

The profile psi solves

    psi'' + ((1 - 2*alpha)/s) * psi' = psi,   psi(0) = 1,
    -lim_{s->0+} s^(1-2*alpha) * psi'(s) = k_alpha := 2^(1-2*alpha) * Gamma(1-alpha) / Gamma(alpha),

and decays like e^(-s). One mode of the extended harmonic problem with
eigenvalue mu contributes the weighted line energy

    k_alpha^(-1) * integral_0^inf y^(1-2*alpha) * mu * (psi(sqrt(mu)*y)^2 + psi'(sqrt(mu)*y)^2) dy,

which equals mu^alpha; extension_energy computes the integral numerically so
the identity stays a genuine check rather than an algebraic tautology.

The decaying solution has a closed form in the modified Bessel function of
the second kind (Caffarelli and Silvestre, Comm. PDE 32, 2007; Stinga and
Torrea, Comm. PDE 35, 2010):

    psi(s) = 2^(1-alpha)/Gamma(alpha) * s^alpha * K_alpha(s),
    psi'(s) = -2^(1-alpha)/Gamma(alpha) * s^alpha * K_(1-alpha)(s),

the second from (s^nu K_nu)' = -s^nu K_(nu-1) and K_(-nu) = K_nu.
BesselProfile evaluates both with scipy.special.kv, which it loads when
called, so a task that never evaluates the profile does not pay for that
import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureFailure


def k_alpha(alpha: float) -> float:
    """Flux normalization constant 2^(1-2*alpha) * Gamma(1-alpha) / Gamma(alpha)."""
    return 2.0 ** (1.0 - 2.0 * alpha) * math.gamma(1.0 - alpha) / math.gamma(alpha)


@dataclass(frozen=True)
class BesselProfile:
    """The decaying profile psi of order alpha, in closed form.

    psi evaluates on [0, inf), psi_prime and flux on (0, inf); s_max is where
    extension_energy cuts its quadrature off.
    """

    alpha: float
    s_max: float
    k_alpha: float

    def psi(self, s) -> np.ndarray:
        """psi(s), with psi(0) = 1, its limit at 0+ (s^alpha K_alpha(s) is 0 * inf there)."""
        s = np.asarray(s, dtype=float)
        out = np.ones_like(s)
        positive = s > 0.0
        out[positive] = self._bessel(self.alpha, s[positive])
        return out

    def psi_prime(self, s) -> np.ndarray:
        return -self._bessel(1.0 - self.alpha, np.asarray(s, dtype=float))

    def flux(self, s) -> np.ndarray:
        """-s^(1-2*alpha) * psi'(s)."""
        s = np.asarray(s, dtype=float)
        return -(s ** (1.0 - 2.0 * self.alpha)) * self.psi_prime(s)

    def flux_limit(self) -> float:
        """-s^(1-2*alpha) psi'(s) at s = 1e-16, which realizes the limit s -> 0: k_alpha."""
        return float(self.flux(np.array([1e-16]))[0])

    def _bessel(self, order: float, s: np.ndarray) -> np.ndarray:
        """2^(1-alpha)/Gamma(alpha) * s^alpha * K_order(s) at s > 0."""
        # imported here, not with the module: see domain.mask_components
        from scipy.special import kv

        alpha = self.alpha
        return 2.0 ** (1.0 - alpha) / math.gamma(alpha) * s**alpha * kv(order, s)


def solve_profile(alpha: float, s_max: float = 25.0) -> BesselProfile:
    """The decaying profile for fractional order alpha, cut off at s_max."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if s_max < 5.0:
        raise ValueError(f"s_max must be at least 5, got {s_max}")
    return BesselProfile(alpha=float(alpha), s_max=float(s_max), k_alpha=k_alpha(alpha))


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
