"""Power-type nonlinearity and the energy functional.

The functional on a basis is

    I(u) = (1/2) * Q(u) - h^2 * sum_i H(u_i),      Q(u) = h^2 u . L u,

with L = (-Delta)^alpha + I the basis's operator, h(s) = (s_+)^p and H its
primitive, acting only on the positive part so critical points are
automatically candidates for positive solutions.
Energy is the one implementation of I, with its gradient, the Nehari functional
J, its curvature, the operator morse's Lanczos runs on and the closed-form
retraction onto the manifold;
PinnedEnergy adds the barycenter penalty of the pinned annulus level, and
RestrictedEnergy confines the energy to a mirror's fixed-point subspace.
Each is the one objective the descent kernel takes.
An Energy is the functional itself, built from a basis and the exponent p:
the solvers of nehari, morse and topology take one instead of its parts.
Outside spectral, only this module applies the basis's operators.

Nodal representation. A point is one C-contiguous (2, K) array x = [u; r]
of nodal vectors with r = L u: point(v) = [v; L v], one operator. Every
elementwise update of a point is then one numpy call, and its rows are
contiguous for the BLAS dot ddot. With G = L^-1 the basis's Green operator:

- Q = h^2 u . r. A gradient is a nodal dual g, for I g = r - h(u); it pairs
  with a point v as h^2 g . v_u.
- The Riesz map sends g to the point [G g; g] (riesz, one green), and
  ||g||_*^2 = h^2 g . G g.
- The second variation sends a point v to the dual v_r - E v_u, where E is
  the objective's nodal curvature (curvature(u)): h'(u) for I. That takes no
  product.
- On the Nehari manifold Q = P, P = h^2 sum (u+)^(p+1), so
  I = (p - 1)/(2 (p + 1)) Q there. level(u, Q) returns the retraction's
  scale and the objective at the retracted point from the values u and Q
  alone: the kernel reads Q at a trial point from dot products of its ends
  and pays one pass over u per trial.
- A point's r is L u only to rounding after many steps, so a record is
  judged at (u, L u) with r made afresh (measure: one operator, one green).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
from scipy.linalg.blas import ddot

from .domain import GridDomain
from .errors import NonpositiveField
from .spectral import SpectralBasis


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
    """The functional I on the span, on nodal points [u; r] (module docstring).

    Methods taking u and r trust the caller to pass the rows of such a point,
    as obj.grad(*x) does. L and G are the basis's operator and green.
    """

    def __init__(self, basis: SpectralBasis, p: float):
        self.basis = basis
        self.p = p
        self.h2 = basis.dom.h**2

    def point(self, v: np.ndarray) -> np.ndarray:
        """[v; L v], the nodal point with values v."""
        return np.array((v, self.basis.operator(v)))

    def riesz(self, g: np.ndarray) -> np.ndarray:
        """[G g; g], the Riesz image of a nodal dual g, as a point."""
        return np.array((self.basis.green(g), g))

    def quadratic(self, u: np.ndarray, r: np.ndarray) -> float:
        """Q = h^2 u . r, the squared energy norm of the point [u; r]."""
        return self.h2 * ddot(u, r)

    def energy(self, u: np.ndarray, Q: float) -> float:
        """The objective at the point with values u and squared energy norm Q."""
        return 0.5 * Q - self.h2 * float(np.sum(H_eval(self.p, u)))

    def grad(self, u: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The nodal dual r - h(u) of the gradient at the point [u; r]. Every
        objective's is r plus a term of u alone, grad(u, 0)."""
        return r - h_eval(self.p, u)

    def measure(self, u: np.ndarray) -> tuple[float, float, np.ndarray]:
        """(F, ||grad F||_*^2, L u) at the values u, from r = L u made afresh:
        Q = h^2 u . r and the dual g at [u; r], ||g||_*^2 = h^2 g . G g. The
        descent's point holds r = L u only to rounding, and its own gradient
        can fall below the rounding floor of this one, so records are judged
        here."""
        r = self.basis.operator(u)
        g = self.grad(u, r)
        return self.energy(u, self.quadratic(u, r)), self.h2 * float(g @ self.basis.green(g)), r

    def j(self, u: np.ndarray, Q: float) -> float:
        """J(u) = Q(u) - <h(u), u>_h; zero exactly on the Nehari manifold."""
        return Q - self.h2 * float(np.sum(h_eval(self.p, u) * u))

    def curvature(self, values: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
        """E at the field with these values, as z -> E z: the second variation
        sends a point v to the dual v_r - E v_u. For I, E = h'(u)."""
        hp = h_prime(self.p, values)
        return lambda z: hp * z

    def pencil(self, values: np.ndarray) -> tuple[Callable, Callable | None,
                                                  Callable | None, np.ndarray]:
        """The eigenproblem morse's Lanczos runs on at these values, as
        (op, M, Minv, start) for op y = theta M y (morse module docstring).
        For I it is the standard problem of T y = y - sqrt(D) G sqrt(D) y,
        D = h'(u), from start h sqrt(D) s, s the basis's start; M and Minv
        are None.
        """
        sd = np.sqrt(h_prime(self.p, values))

        def op(y: np.ndarray) -> np.ndarray:
            return y - sd * self.basis.green(sd * y)

        return op, None, None, self.basis.dom.h * sd * self.basis.start

    def nehari_t(self, u: np.ndarray, Q: float) -> float:
        """Closed-form t > 0 with J(t u) = 0 for the power family: (Q/P)^(1/(p-1)),
        Q the squared energy norm of the point with values u."""
        P = self.h2 * float((np.maximum(u, 0.0) ** (self.p + 1.0)).sum())
        if P <= 0.0 or Q <= 0.0:
            raise NonpositiveField("Nehari projection undefined: u+ vanishes on the grid")
        return (Q / P) ** (1.0 / (self.p - 1.0))

    def level(self, u: np.ndarray, Q: float) -> tuple[float, float]:
        """(t, F): the retraction's scale nehari_t(u, Q) and the objective at the
        retracted point, (p - 1)/(2 (p + 1)) t^2 Q for I."""
        t = self.nehari_t(u, Q)
        return t, (self.p - 1.0) / (2.0 * (self.p + 1.0)) * t * t * Q

    def retract(self, u: np.ndarray, r: np.ndarray) -> np.ndarray:
        """The point t [u; r] on the manifold, t = nehari_t(u, Q)."""
        return self.nehari_t(u, self.quadratic(u, r)) * np.array((u, r))


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

    def pencil(self, values: np.ndarray) -> tuple[Callable, Callable | None,
                                                  Callable | None, np.ndarray]:
        """The nodal generalized problem (L - E) y = theta L y, E = curvature(values),
        with M = L, Minv = G and start s. The penalty's nodal Hessian is
        indefinite, so F's pencil has no standard form with a square root of it."""
        E = self.curvature(values)

        def op(y: np.ndarray) -> np.ndarray:
            return self.basis.operator(y) - E(y)

        return op, self.basis.operator, self.basis.green, self.basis.start


class RestrictedEnergy(Energy):
    """I on the fixed-point subspace of a mirror of the mask; mirror is its
    generator, and a mirror the mask lacks (SpectralBasis.frame_signs) is a
    ValueError. I is invariant under the mirror, so a critical point of the
    restriction is a critical point of I (symmetric criticality: Palais, Comm.
    Math. Phys. 69, 1979).

    point and riesz apply the basis's fixed_operator and fixed_green, whose
    values are exactly mirror-even: point(v) is [G_+ L_+ v; L_+ v], the
    mirror-even part of v with its image under L. The gradient and every
    step built from such a point keep its values exactly even. Its pencil and
    measure are I's: the second variation of the whole space, which the
    saddle's Morse index counts, and the residual of I on the whole space.
    """

    def __init__(self, basis: SpectralBasis, p: float, mirror: int):
        if not basis.frame_signs[:, mirror].any():
            raise ValueError(f"the mask has no mirror {mirror}")
        super().__init__(basis, p)
        self.mirror = mirror

    def point(self, v: np.ndarray) -> np.ndarray:
        r = self.basis.fixed_operator(v, self.mirror)
        return np.array((self.basis.fixed_green(r, self.mirror), r))

    def riesz(self, g: np.ndarray) -> np.ndarray:
        return np.array((self.basis.fixed_green(g, self.mirror), g))
