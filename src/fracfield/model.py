"""Power-type nonlinearity and the energy functional.

The functional on a spectral basis is

    I(u) = (1/2) * Q(u) - h^2 * sum_i H(u_i),      Q(u) = sum_k (mu_k^alpha + 1) b_k^2,

with h(s) = (s_+)^p, H its primitive, acting only on the positive part so
critical points are automatically candidates for positive solutions.
Energy is the one implementation of I, with its gradient, the Nehari functional
J, its curvature, the operator morse's Lanczos runs on and the closed-form
retraction onto the manifold;
PinnedEnergy adds the barycenter penalty of the pinned annulus level, and
RestrictedEnergy confines the energy to a mirror's fixed-point subspace.
Each is the one objective the descent kernel takes.
An Energy is the functional itself, built from a basis and the exponent p:
the solvers of nehari, morse and topology take one instead of its parts.
Outside spectral, only this module calls the basis's matvec, rmatvec,
green and fixed_green or reads a Field's coefficients, and only it and
morse read W.

Nodal representation. A point is the pair (u, r) of nodal vectors with
u = phi c and r = (A^alpha + I) u = phi W c, W = diag(mu^alpha + 1); the
basis spans the grid, so phi is invertible with inverse h^2 phi^T. A point
enters from its coefficients as point(c) (one product with two columns) and
leaves as a Field (field(u), one rmatvec); in between the descent kernel
applies no phi. With G = h^2 phi W^-1 phi^T = (A^alpha + I)^-1 the basis's
Green operator:

- Q = h^2 u . r. A gradient is a nodal dual g, for I g = r - h(u); it pairs
  with a point v as h^2 g . v_u, which equals g_c . v_c with
  g_c = h^2 phi^T g, the coefficient gradient W c - h^2 phi^T h(u).
- The Riesz map (W^-1 on coefficients) sends g to the point (G g, g): riesz
  returns G g, one green, and ||g||_*^2 = h^2 g . G g.
- The second variation sends a point v to the dual v_r - E v_u, where E is
  the objective's nodal curvature (curvature(u)): h'(u) for I. That takes no
  product; the coefficient form W v - h^2 phi^T (E phi v) is built from the
  same E where Lanczos needs it (PinnedEnergy.pencil).
- On the Nehari manifold Q = P, P = h^2 sum (u+)^(p+1), so
  I = (p - 1)/(2 (p + 1)) Q there. level(u, Q) returns the retraction's
  scale and the objective at the retracted point from u and Q alone: the
  kernel reads Q at a trial point from dot products of its ends and pays
  one pass over u per trial.
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
    return up, (w @ dom.node_coords) / mass, mass


class Energy:
    """The functional I on the span, on nodal points (u, r) (module docstring).

    Methods taking both trust the caller to pass such a pair; coords reads a
    Field's coefficients, checking its domain. Products with phi and its
    transpose are the basis's matvec and rmatvec, block by block on its
    factors, and the Green operator h^2 phi W^-1 phi^T is its green.
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

    def point(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(phi c, phi W c), the nodal point of coefficients c, from one matvec of two columns."""
        x = self.basis.matvec(np.column_stack([c, self.w * c]))
        return x[:, 0].copy(), x[:, 1].copy()

    def field(self, u: np.ndarray) -> Field:
        """The Field with values u and coefficients h^2 phi^T u."""
        return Field(self.basis.dom, u, self.h2 * self.basis.rmatvec(u))

    def riesz(self, g: np.ndarray) -> np.ndarray:
        """G g, the u-part of the Riesz image (G g, g) of a nodal dual g."""
        return self.basis.green(g)

    def quadratic(self, u: np.ndarray, r: np.ndarray) -> float:
        """Q = h^2 u . r = sum_k (mu_k^alpha + 1) c_k^2, the squared energy norm."""
        return self.h2 * float(u @ r)

    def energy(self, u: np.ndarray, Q: float) -> float:
        """The objective at the point with values u and squared energy norm Q."""
        return 0.5 * Q - self.h2 * float(np.sum(H_eval(self.p, u)))

    def grad(self, u: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The nodal dual r - h(u) of the gradient: h^2 phi^T of it is W c - <h(u), phi_k>.
        Every objective's is r plus a term of u alone, grad(u, 0)."""
        return r - h_eval(self.p, u)

    def measure(self, u: Field) -> tuple[float, float]:
        """(F, ||grad F||_*^2) at the field u, from its coefficients c and values:
        Q = sum w c^2 and the coefficient gradient W c + h^2 phi^T grad(u, 0),
        one rmatvec. The descent's pair (u, r) holds r = phi W c only to
        rounding, and its own gradient can fall below the rounding floor of
        this one, so records are judged here."""
        c = self.coords(u)
        g = self.w * c + self.h2 * self.basis.rmatvec(self.grad(u.values, np.zeros_like(c)))
        return self.energy(u.values, float(np.sum(self.w * c * c))), float(g @ (g / self.w))

    def j(self, u: np.ndarray, Q: float) -> float:
        """J(u) = Q(u) - <h(u), u>_h; zero exactly on the Nehari manifold."""
        return Q - self.h2 * float(np.sum(h_eval(self.p, u) * u))

    def curvature(self, values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """E at the field with these values, as z -> E z: the second variation
        sends a point v to the dual v_r - E v_u. For I, E = h'(u)."""
        hp = h_prime(self.p, values)
        return lambda z: hp * z

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

    def nehari_t(self, u: np.ndarray, Q: float) -> float:
        """Closed-form t > 0 with J(t u) = 0 for the power family: (Q/P)^(1/(p-1)),
        Q the squared energy norm of the point with values u."""
        P = self.h2 * float(np.sum(np.maximum(u, 0.0) ** (self.p + 1.0)))
        if P <= 0.0 or Q <= 0.0:
            raise NonpositiveField("Nehari projection undefined: u+ vanishes on the grid")
        return (Q / P) ** (1.0 / (self.p - 1.0))

    def level(self, u: np.ndarray, Q: float) -> tuple[float, float]:
        """(t, F): the retraction's scale nehari_t(u, Q) and the objective at the
        retracted point, (p - 1)/(2 (p + 1)) t^2 Q for I."""
        t = self.nehari_t(u, Q)
        return t, (self.p - 1.0) / (2.0 * (self.p + 1.0)) * t * t * Q

    def retract(self, u: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = self.nehari_t(u, self.quadratic(u, r))
        return t * u, t * r


class PinnedEnergy(Energy):
    """F = I + rho |beta(u) - x_tilde|^2: the energy with its barycenter pinned by a penalty.

    beta is _barycenter's, as in the records. With s = u+, m = 1[u > 0],
    M = sum s^2, r_i = x_i - beta and q = r . (beta - x_tilde), the penalty's
    nodal gradient is pvals = 4 rho s q / M, recomputed from the values
    wherever the gradient is asked for; the dual adds pvals / h^2. With
    Bz = 2 sum s_i z_i r_i / M (the change of beta along z), its nodal
    Hessian on z is

        4 rho / M [s (r . Bz) + m q z - 2 (s <s q, z> + s q <s, z>) / M],

    a diagonal on the positive set plus a term of rank at most 3, which the
    curvature E subtracts over h^2 from h'(u). The penalty is 0-homogeneous,
    so its Hessian sends u to minus its gradient: the Newton step's tangent
    space is the plain energy's, and the Nehari retraction leaves the penalty
    unchanged, so level adds it at the unretracted point.
    """

    def __init__(self, basis: SpectralBasis, p: float, rho: float, x_tilde: np.ndarray):
        super().__init__(basis, p)
        self.rho = rho
        self.x_tilde = x_tilde

    def _penalty(self, u: np.ndarray) -> float:
        gap = _barycenter(self.basis.dom, u)[1] - self.x_tilde
        return self.rho * float(gap @ gap)

    def energy(self, u: np.ndarray, Q: float) -> float:
        return super().energy(u, Q) + self._penalty(u)

    def level(self, u: np.ndarray, Q: float) -> tuple[float, float]:
        t, F = super().level(u, Q)
        return t, F + self._penalty(u)

    def grad(self, u: np.ndarray, r: np.ndarray) -> np.ndarray:
        dom = self.basis.dom
        up, beta, M = _barycenter(dom, u)
        d = beta - self.x_tilde
        pvals = 4.0 * self.rho * up * (dom.node_coords @ d - float(beta @ d)) / M
        return super().grad(u, r) + pvals / self.h2

    def curvature(self, values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        dom = self.basis.dom
        s, beta, M = _barycenter(dom, values)
        r = dom.node_coords - beta
        q = r @ (beta - self.x_tilde)
        sq, sr = s * q, s[:, None] * r
        scale = 4.0 * self.rho / (M * self.h2)
        diag = h_prime(self.p, values) - scale * (s > 0.0) * q

        def E(z: np.ndarray) -> np.ndarray:
            bz = 2.0 * (z @ sr) / M
            low_rank = s * (r @ bz) - 2.0 * (s * float(sq @ z) + sq * float(s @ z)) / M
            return diag * z - scale * low_rank

        return E

    def pencil(self, values: np.ndarray) -> tuple[Callable, np.ndarray, Callable]:
        """The pencil on coefficients: op is S = W^-1/2 H W^-1/2 with
        H v = W v - h^2 phi^T (E phi v), start ones(K) and lift x = W^-1/2 v.
        The penalty's nodal Hessian is indefinite, so F's pencil has no
        symmetric nodal form with a square root of it."""
        scale = 1.0 / np.sqrt(self.w)
        E = self.curvature(values)

        def op(v: np.ndarray) -> np.ndarray:
            x = scale * v
            return scale * (self.w * x - self.h2 * self.basis.rmatvec(E(self.basis.matvec(x))))

        return op, np.ones(self.basis.K), lambda theta, V: scale[:, None] * V


class RestrictedEnergy(Energy):
    """I on the fixed-point subspace of a mirror of the mask, the span of the
    modes it labels +1 (SpectralBasis.mirror_signs); mirror is its generator.
    I is invariant under the mirror, so a critical point of the restriction
    is a critical point of I (symmetric criticality: Palais, Comm. Math.
    Phys. 69, 1979).

    coords and field zero the coefficients the mirror labels -1, and riesz
    is the basis's fixed_green, whose values are exactly mirror-even. A point
    entered from such coefficients is exactly even, the gradient and every
    step built from it stay so, and a descent's record has its odd
    coefficients exactly 0. Its pencil is I's: the second variation of the
    whole space, which the saddle's Morse index counts.
    """

    def __init__(self, basis: SpectralBasis, p: float, mirror: int):
        super().__init__(basis, p)
        self.mirror = mirror
        self.keep = basis.mirror_signs[:, mirror] == 1

    def coords(self, u: Field) -> np.ndarray:
        return np.where(self.keep, super().coords(u), 0.0)

    def field(self, u: np.ndarray) -> Field:
        f = super().field(u)
        return Field(f.dom, u, np.where(self.keep, f.coeffs, 0.0))

    def riesz(self, g: np.ndarray) -> np.ndarray:
        return self.basis.fixed_green(g, self.mirror)
