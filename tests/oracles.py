"""Independent oracles that only the tests use.

Each recomputes something the package computes another way, so agreement
checks the package's route: the dense eigenvector matrix phi, which the
basis never keeps, from the same blocked decomposition with the
eigenvectors kept, the Nehari scale by bracketing a root of
J(t u) instead of its closed form, the radial symmetry of a field by
averaging over exact grid radii, and the profile ODE by finite differences
of the profile's derivative, and the mask-preserving grid maps by looking up
node coordinates instead of by grid index arithmetic, the L-BFGS
direction by the dense BFGS updates instead of the two-loop recursion, and
L and G on a mirror's fixed-point subspace by phi's even modes instead of by
a pair average of nodal values. The rest are
measurements the package has no use for: a domain's diameter and a table of
profile samples. The coefficient forms at the end are views on that phi, not
oracles: they read the package's nodal energy, gradient and curvature at a
point given by its coefficients, in the coefficients that finite
differences of an energy in coefficient space give.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg
from scipy.optimize import brentq

from fracfield.domain import GridDomain
from fracfield.errors import NonpositiveField
from fracfield.extension import BesselProfile
from fracfield.model import h_eval
from fracfield.spectral import Field, SpectralBasis, _parity_frames, assemble_laplacian


def diameter(dom: GridDomain) -> float:
    """Diameter of the continuous region lam * Omega."""
    if dom.shape_id == "rectangle":
        return dom.lam * math.hypot(dom.params["a"], dom.params["b"])
    return 2.0 * dom.lam * dom.params["R"]


# D4 as integer matrices acting on (x, y): the identity, the x-mirror, the
# y-mirror, the half turn, the swap (x, y) -> (y, x), then the quarter turn
# (x, y) -> (-y, x), the quarter turn (x, y) -> (y, -x) and the anti-diagonal
# mirror (x, y) -> (-y, -x)
D4_MATRICES = tuple(np.array(m) for m in (
    [[1, 0], [0, 1]], [[-1, 0], [0, 1]], [[1, 0], [0, -1]], [[-1, 0], [0, -1]],
    [[0, 1], [1, 0]], [[0, -1], [1, 0]], [[0, 1], [-1, 0]], [[0, -1], [-1, 0]],
))


def mask_preserving_maps(dom: GridDomain) -> list[tuple[np.ndarray, np.ndarray]]:
    """(matrix, permutation) of each D4 map that carries the mask onto itself,
    in D4_MATRICES order, the maps acting about the grid's center.

    Each node is keyed by its offset from the center in half steps, and a map
    preserves the mask when every node's image key is some node's key.
    perm[i] is the node that node i goes to.
    """
    center = 0.5 * np.array([dom.xs[0] + dom.xs[-1], dom.ys[0] + dom.ys[-1]])
    keys = np.rint(2.0 * (dom.node_coords - center) / dom.h).astype(np.int64)
    node = {k: i for i, k in enumerate(map(tuple, keys.tolist()))}
    found = []
    for M in D4_MATRICES:
        images = [node.get(k) for k in map(tuple, (keys @ M.T).tolist())]
        if None not in images:
            found.append((M, np.array(images)))
    return found


def profile_samples(profile: BesselProfile, n_samples: int = 400) -> np.ndarray:
    """(n_samples, 3) table of (s, psi(s), psi'(s)) on a log-graded grid of [1e-8, s_max]."""
    s = np.geomspace(1e-8, profile.s_max, n_samples)
    return np.stack([s, profile.psi(s), profile.psi_prime(s)], axis=1)


def ode_residual(profile: BesselProfile, s, rel_step: float = 1e-4) -> np.ndarray:
    """Residual of psi'' + ((1 - 2 alpha)/s) psi' - psi with a central-difference
    psi'', relative to term size.

    Near the origin the individual terms scale like s^(2*alpha - 2), so an
    absolute residual is meaningless there; the residual is normalized by
    the largest term magnitude (floored at 1). The difference step scales
    with s to keep the finite-difference truncation error uniform.
    """
    s = np.asarray(s, dtype=float)
    delta = rel_step * s
    d2 = (profile.psi_prime(s + delta) - profile.psi_prime(s - delta)) / (2.0 * delta)
    t_damp = (1.0 - 2.0 * profile.alpha) / s * profile.psi_prime(s)
    t_val = profile.psi(s)
    resid = np.abs(d2 + t_damp - t_val)
    scale = np.maximum.reduce([np.ones_like(s), np.abs(d2), np.abs(t_damp), np.abs(t_val)])
    return resid / scale


@functools.cache
def dense_eigenpairs(basis: SpectralBasis) -> tuple[np.ndarray, np.ndarray]:
    """(mu, phi): all eigenvalues of the masked Laplacian, ascending, and the
    n x K matrix of its eigenvectors, orthonormal in the h^2-weighted inner
    product, for the basis's domain.

    Built as the basis builds its blocks, one evd per symmetry frame with the
    swap partner's eigenvectors shared, but kept, and signed by the basis's
    rule: so phi's columns are those the basis's L_b, G_b and start were
    made from, bit for bit.
    """
    dom = basis.dom
    A = assemble_laplacian(dom)
    mus, cols = [], []
    for Q, shared in _parity_frames(dom):
        if not shared:
            mu_b, V = scipy.linalg.eigh((Q.T @ A @ Q).toarray(order="F"), driver="evd")
            V /= dom.h
        mus.append(mu_b)
        cols.append(Q @ V)
    mu = np.concatenate(mus)
    order = np.argsort(mu, kind="stable")
    phi = np.hstack(cols)[:, order]
    # the basis's sign rule, read off phi itself: largest |entry| positive,
    # first index on ties
    phi *= np.where(phi[np.abs(phi).argmax(axis=0), np.arange(mu.size)] < 0, -1.0, 1.0)
    return mu[order], phi


def dense_phi(basis: SpectralBasis) -> np.ndarray:
    """phi of dense_eigenpairs."""
    return dense_eigenpairs(basis)[1]


def weights(basis: SpectralBasis) -> np.ndarray:
    """W = mu^alpha + 1 in the order of dense_eigenpairs: L's eigenvalues."""
    return dense_eigenpairs(basis)[0] ** basis.alpha + 1.0


def restricted_operators(basis: SpectralBasis,
                         perm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(L_+, G_+): L and G restricted to the fixed-point subspace of the mirror
    with node permutation perm, as dense sums h^2 phi_e W_e^(+-1) phi_e^T over
    the modes phi_e of dense_phi that are even under it.

    Each of those modes is even or odd under a mirror of the mask, as the
    blocked decomposition splits by the mirrors, so the even ones are those
    whose h^2 phi(perm) . phi is 1 rather than -1.
    """
    phi, w, h2 = dense_phi(basis), weights(basis), basis.dom.h**2
    even = h2 * np.sum(phi[perm] * phi, axis=0) > 0.5
    kept = phi[:, even]
    return h2 * (kept * w[even]) @ kept.T, h2 * (kept / w[even]) @ kept.T


def coefficients(basis: SpectralBasis, u: Field) -> np.ndarray:
    """u's coefficients h^2 phi^T u in dense_phi's modes."""
    return basis.dom.h**2 * (dense_phi(basis).T @ u.values)


def synthesize(basis: SpectralBasis, c: np.ndarray) -> Field:
    """The Field with coefficients c: values phi c."""
    return Field(basis.dom, dense_phi(basis) @ c)


def nehari_scale_root(basis: SpectralBasis, p: float, u: Field) -> float:
    """Root-finder route to the projection scale, independent of the closed form.

    Works through generic h evaluations only, so it cross-checks the power
    shortcut. Brackets the sign change of J(t u) by doubling/halving from 1.
    """
    basis.check_same_domain(u.dom)
    c = coefficients(basis, u)
    values = dense_phi(basis) @ c
    Q = float(np.sum(weights(basis) * c**2))
    if Q <= 0.0 or not np.any(values > 0.0):
        raise NonpositiveField("Nehari projection undefined: u+ vanishes on the grid")
    h2 = basis.dom.h**2

    def j_of_t(t: float) -> float:
        tv = t * values
        return t * t * Q - h2 * float(np.sum(h_eval(p, tv) * tv))

    lo = hi = 1.0
    for _ in range(200):
        if j_of_t(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise NonpositiveField("no sign change found: positive part too weak to bracket")
    for _ in range(200):
        if j_of_t(lo) > 0.0:
            break
        lo *= 0.5
    else:
        raise NonpositiveField("no sign change found below t=1")
    return float(brentq(j_of_t, lo, hi, xtol=1e-300, rtol=1e-14, maxiter=200))


def radial_asymmetry(u: Field, center: tuple[float, float] = (0.0, 0.0)) -> float:
    """||u - equal-radius average of u|| / ||u|| about center.

    Nodes are grouped by exact squared radius (integer r^2/h^2 keys), so a
    field that genuinely depends only on r scores ~1e-15 and the result
    measures angular variation alone. Shells of finite width would instead
    charge a radial field O(h |u'|) for the radius spread inside each bin and
    drown the signal this diagnostic exists to detect.
    """
    x = u.dom.node_coords
    r2 = (x[:, 0] - center[0]) ** 2 + (x[:, 1] - center[1]) ** 2
    keys = np.round(r2 / u.dom.h**2).astype(np.int64)
    norm2 = float(u.values @ u.values)
    if norm2 <= 0.0:
        raise NonpositiveField("radial asymmetry undefined for a zero field")
    _, inverse = np.unique(keys, return_inverse=True)
    counts = np.bincount(inverse)
    sums = np.bincount(inverse, weights=u.values)
    means = sums / counts
    dev = u.values - means[inverse]
    return float(np.sqrt((dev @ dev) / norm2))


def energy_at(energy, c: np.ndarray) -> float:
    """The objective at the point with coefficients c."""
    u, r = energy.point(dense_phi(energy.basis) @ c)
    return energy.energy(u, energy.quadratic(u, r))


def dense_lbfgs_inverse_hessian(basis: SpectralBasis,
                                pairs: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The dense inverse Hessian H that the L-BFGS two-loop recursion applies
    to a nodal dual, from pairs (s, y), oldest first: s a step's values and y
    the change of the nodal gradient along it.

    H starts from gamma G, G = h^2 phi W^-1 phi^T from the dense phi and
    gamma = s.y / y.G y of the newest pair, and takes the BFGS update
    H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T, rho = 1 / s.y, for
    each pair in turn, in the pairing that drops the factor h^2.
    """
    phi = dense_phi(basis)
    G = basis.dom.h**2 * (phi / weights(basis)) @ phi.T
    s, y = pairs[-1]
    H = (s @ y) / (y @ G @ y) * G
    for s, y in pairs:
        V = np.eye(s.size) - np.outer(y, s) / (s @ y)
        H = V.T @ H @ V + np.outer(s, s) / (s @ y)
    return H


def coefficient_grad(energy, c: np.ndarray) -> np.ndarray:
    """The gradient at coefficients c in coefficients: h^2 phi^T of the nodal dual."""
    phi = dense_phi(energy.basis)
    return energy.h2 * (phi.T @ energy.grad(*energy.point(phi @ c)))


def coefficient_hessian(energy, c: np.ndarray):
    """v -> H v at coefficients c, on coefficients: h^2 phi^T of the dual
    v_r - E v_u that the nodal second variation gives at the point of phi v."""
    phi = dense_phi(energy.basis)
    E = energy.curvature(phi @ c)

    def hv(v: np.ndarray) -> np.ndarray:
        v_u, v_r = energy.point(phi @ v)
        return energy.h2 * (phi.T @ (v_r - E(v_u)))

    return hv
