"""Power-type nonlinearity and the energy functional.

The functional on a spectral basis is

    I(u) = (1/2) * Q(u) - h^2 * sum_i H(u_i),      Q(u) = sum_k (mu_k^alpha + 1) b_k^2,

with h(s) = (s_+)^p, H its primitive, acting only on the positive part so
critical points are automatically candidates for positive solutions. The
L2 gradient has spectral coefficients (mu_k^alpha + 1) b_k - <h(u), phi_k>.
Energy is the one implementation of I, with its gradient, the Nehari functional
J, the Hessian-vector action and the closed-form retraction onto the manifold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonpositiveField
from .spectral import SpectralBasis


@dataclass(frozen=True)
class Nonlinearity:
    """The power family h(s) = (s_+)^p."""

    p: float


def power_model(alpha: float = 0.5, p: float = 2.0) -> Nonlinearity:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return Nonlinearity(p=p)


def h_eval(nl: Nonlinearity, s):
    sp = np.maximum(np.asarray(s, dtype=float), 0.0)
    return sp**nl.p


def h_prime(nl: Nonlinearity, s):
    sp = np.maximum(np.asarray(s, dtype=float), 0.0)
    return nl.p * sp ** (nl.p - 1.0)


def H_eval(nl: Nonlinearity, s):
    sp = np.maximum(np.asarray(s, dtype=float), 0.0)
    return sp ** (nl.p + 1.0) / (nl.p + 1.0)


class Energy:
    """The functional I on the span, on raw arrays: coefficients c and values = phi @ c.

    Methods taking both trust the caller to pass such a pair, so one synthesis
    serves value, gradient and retraction; callers holding a Field check its
    domain against the basis first. Products with phi and its transpose are
    the basis's matvec and rmatvec, block by block on its factors.
    """

    def __init__(self, basis: SpectralBasis, nl: Nonlinearity):
        self.basis = basis
        self.nl = nl
        self.w = basis.weights
        self.h2 = basis.dom.h**2

    def values(self, c: np.ndarray) -> np.ndarray:
        return self.basis.matvec(c)

    def quadratic(self, c: np.ndarray) -> float:
        """Q(u) = sum_k (mu_k^alpha + 1) c_k^2, the squared energy norm."""
        return float(np.sum(self.w * c * c))

    def energy(self, c: np.ndarray, values: np.ndarray) -> float:
        return 0.5 * self.quadratic(c) - self.h2 * float(np.sum(H_eval(self.nl, values)))

    def value(self, c: np.ndarray, values: np.ndarray) -> tuple[float, None]:
        """The descent kernel's value callable for I itself."""
        return self.energy(c, values), None

    def grad(self, c: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Spectral coefficients of the L2 gradient: w c - <h(u), phi_k>."""
        return self.w * c - self.h2 * self.basis.rmatvec(h_eval(self.nl, values))

    def j(self, c: np.ndarray, values: np.ndarray) -> float:
        """J(u) = Q(u) - <h(u), u>_h; zero exactly on the Nehari manifold."""
        return self.quadratic(c) - self.h2 * float(np.sum(h_eval(self.nl, values) * values))

    def hessian_vector(self, values: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Second variation at the field with these values, on v: w v - <h'(u) phi v, phi_k>."""
        z = h_prime(self.nl, values) * self.basis.matvec(v)
        return self.w * v - self.h2 * self.basis.rmatvec(z)

    def nehari_t(self, c: np.ndarray, values: np.ndarray) -> float:
        """Closed-form t > 0 with J(t u) = 0 for the power family: (Q/P)^(1/(p-1))."""
        Q = self.quadratic(c)
        P = self.h2 * float(np.sum(np.maximum(values, 0.0) ** (self.nl.p + 1.0)))
        if P <= 0.0 or Q <= 0.0:
            raise NonpositiveField("Nehari projection undefined: u+ vanishes on the grid")
        return (Q / P) ** (1.0 / (self.nl.p - 1.0))

    def retract(self, c: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = self.nehari_t(c, values)
        return t * c, t * values
