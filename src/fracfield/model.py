"""Power-type nonlinearity and the energy functional.

The functional on a spectral basis is

    I(u) = (1/2) * Q(u) - h^2 * sum_i H(u_i),      Q(u) = sum_k (mu_k^alpha + 1) b_k^2,

with h(s) = (s_+)^p, H its primitive, acting only on the positive part so
critical points are automatically candidates for positive solutions. The
L2 gradient has spectral coefficients (mu_k^alpha + 1) b_k - <h(u), phi_k>.
Energy is the one implementation of I, with its gradient, the Nehari functional
J, the Hessian action, the operator morse's Lanczos runs on and the
closed-form retraction onto the manifold;
PinnedEnergy adds the barycenter penalty of the pinned annulus level, and
RestrictedEnergy confines the energy to a span of modes, such as a mirror's
fixed-point subspace. Each is the one objective the descent kernel takes.
An Energy is the functional itself, built from a basis and the exponent p:
the solvers of nehari, morse and topology take one instead of its parts.
Outside spectral, only this module calls the basis's matvec, rmatvec and
green or reads a Field's coefficients, and only it and morse read W.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .domain import GridDomain
from .errors import NonpositiveField
from .spectral import Field, SpectralBasis


def h_eval(p: float, s):
    sp = np.maximum(np.asarray(s, dtype=float), 0.0)
    return sp**p


def h_prime(p: float, s):
    sp = np.maximum(np.asarray(s, dtype=float), 0.0)
    return p * sp ** (p - 1.0)


def H_eval(p: float, s):
    sp = np.maximum(np.asarray(s, dtype=float), 0.0)
    return sp ** (p + 1.0) / (p + 1.0)


def _barycenter(dom: GridDomain, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(u+, beta, sum (u+)^2): the positive part, its mass center and its nodal mass."""
    up = np.maximum(values, 0.0)
    w = up * up
    mass = float(w.sum())
    if mass <= 0.0:
        raise NonpositiveField("barycenter undefined: u+ vanishes on the grid")
    return up, (dom.node_coords * w[:, None]).sum(axis=0) / mass, mass


class Energy:
    """The functional I on the span, on raw arrays: coefficients c and values = phi @ c.

    Methods taking both trust the caller to pass such a pair, so one synthesis
    serves value, gradient and retraction; coords reads a Field's, checking
    its domain. Products with phi and its transpose are the basis's matvec
    and rmatvec, block by block on its factors, and the Green operator
    h^2 phi W^-1 phi^T is its green.
    """

    def __init__(self, basis: SpectralBasis, p: float):
        self.basis = basis
        self.p = p
        self.w = basis.weights
        self.h2 = basis.dom.h**2

    def coords(self, u: Field) -> np.ndarray:
        """u's coefficients as floats; DomainMismatch when u lives on another domain."""
        self.basis.check_same_domain(u.dom)
        return np.asarray(u.coeffs, dtype=float)

    def values(self, c: np.ndarray) -> np.ndarray:
        return self.basis.matvec(c)

    def riesz(self, g: np.ndarray) -> np.ndarray:
        """W^-1 g, the Riesz representative of a gradient g: g riesz(g) is ||g||_*^2."""
        return g / self.w

    def quadratic(self, c: np.ndarray) -> float:
        """Q(u) = sum_k (mu_k^alpha + 1) c_k^2, the squared energy norm."""
        return float(np.sum(self.w * c * c))

    def energy(self, c: np.ndarray, values: np.ndarray) -> float:
        return 0.5 * self.quadratic(c) - self.h2 * float(np.sum(H_eval(self.p, values)))

    def grad(self, c: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Spectral coefficients of the L2 gradient: w c - <h(u), phi_k>."""
        return self.w * c - self.h2 * self.basis.rmatvec(h_eval(self.p, values))

    def j(self, c: np.ndarray, values: np.ndarray) -> float:
        """J(u) = Q(u) - <h(u), u>_h; zero exactly on the Nehari manifold."""
        return self.quadratic(c) - self.h2 * float(np.sum(h_eval(self.p, values) * values))

    def hessian(self, values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """Second variation at the field with these values, as v -> w v - <h'(u) phi v, phi_k>."""
        hp = h_prime(self.p, values)

        def hv(v: np.ndarray) -> np.ndarray:
            return self.w * v - self.h2 * self.basis.rmatvec(hp * self.basis.matvec(v))

        return hv

    def pencil(self, values: np.ndarray) -> tuple[Callable, np.ndarray, Callable]:
        """The pencil H x = theta W x at these values as (op, start, lift), the
        form morse's Lanczos runs on (morse module docstring): on nodal vectors,
        op y = y - sqrt(D) G sqrt(D) y, D = h'(u) and G the basis's green, from
        start = F 1 = h sqrt(D) phi W^-1/2 1. lift maps op's unit eigenvectors
        y, as columns, to the pencil's x = h W^-1 phi^T (sqrt(D) y) / sqrt(1 - theta),
        x^T W x = 1; it has none for theta = 1.
        """
        sd = np.sqrt(h_prime(self.p, values))
        h = self.basis.dom.h

        def op(y: np.ndarray) -> np.ndarray:
            return y - sd * self.basis.green(sd * y)

        def lift(theta: np.ndarray, Y: np.ndarray) -> np.ndarray:
            return h * self.basis.rmatvec(sd[:, None] * Y) / (
                self.w[:, None] * np.sqrt(1.0 - theta))

        return op, h * sd * self.basis.matvec(1.0 / np.sqrt(self.w)), lift

    def _congruent_pencil(self, values: np.ndarray) -> tuple[Callable, np.ndarray, Callable]:
        """pencil's (op, start, lift) on coefficients, for any Hessian action:
        op is S = W^-1/2 H W^-1/2, start ones(K) and lift x = W^-1/2 v."""
        scale = 1.0 / np.sqrt(self.w)
        hess = self.hessian(values)
        return (lambda v: scale * hess(scale * v), np.ones(self.basis.K),
                lambda theta, V: scale[:, None] * V)

    def nehari_t(self, c: np.ndarray, values: np.ndarray) -> float:
        """Closed-form t > 0 with J(t u) = 0 for the power family: (Q/P)^(1/(p-1))."""
        Q = self.quadratic(c)
        P = self.h2 * float(np.sum(np.maximum(values, 0.0) ** (self.p + 1.0)))
        if P <= 0.0 or Q <= 0.0:
            raise NonpositiveField("Nehari projection undefined: u+ vanishes on the grid")
        return (Q / P) ** (1.0 / (self.p - 1.0))

    def retract(self, c: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = self.nehari_t(c, values)
        return t * c, t * values


class PinnedEnergy(Energy):
    """F = I + rho |beta(u) - x_tilde|^2: the energy with its barycenter pinned by a penalty.

    beta is _barycenter's, as in the records. With s = u+, m = 1[u > 0],
    M = sum s^2, r_i = x_i - beta and q = r . (beta - x_tilde), the penalty's
    nodal gradient is 4 rho s q / M, recomputed from the values wherever the
    gradient is asked for. With Bz = 2 sum s_i z_i r_i / M (the change of beta
    along z), its nodal Hessian on z is

        4 rho / M [s (r . Bz) + m q z - 2 (s <s q, z> + s q <s, z>) / M],

    a diagonal on the positive set plus a term of rank at most 3. hessian(values)
    computes the per-point terms once and returns the map v -> H_F v, which
    adds that Hessian to the energy's second variation on z = phi v in one
    basis matvec and one rmatvec. The penalty is 0-homogeneous, so its
    Hessian sends c to minus its gradient: H_F c + g_F = H_I c + g_I = J'(c),
    and the Newton step's tangent space is the plain energy's. For the same
    reason the Nehari retraction leaves the penalty unchanged.
    """

    def __init__(self, basis: SpectralBasis, p: float, rho: float, x_tilde: np.ndarray):
        super().__init__(basis, p)
        self.rho = rho
        self.x_tilde = x_tilde

    def energy(self, c: np.ndarray, values: np.ndarray) -> float:
        gap = _barycenter(self.basis.dom, values)[1] - self.x_tilde
        return super().energy(c, values) + self.rho * float(gap @ gap)

    def grad(self, c: np.ndarray, values: np.ndarray) -> np.ndarray:
        dom = self.basis.dom
        up, beta, M = _barycenter(dom, values)
        pvals = 4.0 * self.rho * up * ((dom.node_coords - beta) @ (beta - self.x_tilde)) / M
        return super().grad(c, values) + self.basis.rmatvec(pvals)

    def hessian(self, values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        dom = self.basis.dom
        s, beta, M = _barycenter(dom, values)
        r = dom.node_coords - beta
        q = r @ (beta - self.x_tilde)
        sq, sr = s * q, s[:, None] * r
        scale = 4.0 * self.rho / M
        diag = scale * (s > 0.0) * q - self.h2 * h_prime(self.p, values)

        def hv(v: np.ndarray) -> np.ndarray:
            z = self.basis.matvec(v)
            bz = 2.0 * (z @ sr) / M
            low_rank = s * (r @ bz) - 2.0 * (s * float(sq @ z) + sq * float(s @ z)) / M
            return self.w * v + self.basis.rmatvec(scale * low_rank + diag * z)

        return hv

    def pencil(self, values: np.ndarray) -> tuple[Callable, np.ndarray, Callable]:
        """The coefficient-space S: the penalty's nodal Hessian is indefinite,
        so F's pencil has no symmetric form with a square root of it."""
        return self._congruent_pencil(values)


class RestrictedEnergy(Energy):
    """I on the span of the modes in keep, a (K,) boolean mask: grad and the
    Hessian action are zeroed off keep, so a descent from coefficients that
    vanish there keeps them exactly 0. With keep the modes a mirror fixes
    (SpectralBasis.mirror_signs == 1), I is invariant under the mirror, so a
    critical point of the restriction is a critical point of I (symmetric
    criticality: Palais, Comm. Math. Phys. 69, 1979). coords zeroes a
    Field's coefficients off keep.
    """

    def __init__(self, basis: SpectralBasis, p: float, keep: np.ndarray):
        super().__init__(basis, p)
        self.keep = keep

    def coords(self, u: Field) -> np.ndarray:
        return np.where(self.keep, super().coords(u), 0.0)

    def grad(self, c: np.ndarray, values: np.ndarray) -> np.ndarray:
        return np.where(self.keep, super().grad(c, values), 0.0)

    def hessian(self, values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        hv = super().hessian(values)
        return lambda v: np.where(self.keep, hv(v), 0.0)

    def pencil(self, values: np.ndarray) -> tuple[Callable, np.ndarray, Callable]:
        """The coefficient-space S of the restricted Hessian action, not the
        whole span's nodal form."""
        return self._congruent_pencil(values)
