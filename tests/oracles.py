"""Independent oracles that only the tests use.

Each recomputes something the package computes another way, so agreement
checks the package's route: the dense eigenvector matrix phi from the basis's
factors instead of their products, the Nehari scale by bracketing a root of
J(t u) instead of its closed form, the radial symmetry of a field by
averaging over exact grid radii, and the profile ODE by finite differences
of the profile's derivative, and the mask-preserving grid maps by looking up
node coordinates instead of by grid index arithmetic. The rest are
measurements the package has no use for: a domain's diameter and a table of
profile samples.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy.optimize import brentq

from fracfield.domain import GridDomain
from fracfield.errors import NonpositiveField
from fracfield.extension import BesselProfile
from fracfield.model import Nonlinearity, h_eval
from fracfield.spectral import Field, SpectralBasis


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
    """(n_samples, 3) table of (s, psi(s), psi'(s)) on solve_profile's log-graded grid."""
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


def dense_phi(basis: SpectralBasis) -> np.ndarray:
    """The n x K eigenvector matrix phi, formed from the basis's factors.

    Column k is Q times the block-diagonal eigenvectors' column order[k]. Each
    entry is one product q v, plus zeros from the other blocks, so phi's
    magnitudes are those the sign rule read.
    """
    return (basis.frame @ scipy.linalg.block_diag(*basis.blocks))[:, basis.order]


def nehari_scale_root(basis: SpectralBasis, nl: Nonlinearity, u: Field) -> float:
    """Root-finder route to the projection scale, independent of the closed form.

    Works through generic h evaluations only, so it cross-checks the power
    shortcut. Brackets the sign change of J(t u) by doubling/halving from 1.
    """
    basis.check_same_domain(u.dom)
    values = dense_phi(basis) @ u.coeffs
    Q = float(np.sum(basis.weights * u.coeffs**2))
    if Q <= 0.0 or not np.any(values > 0.0):
        raise NonpositiveField("Nehari projection undefined: u+ vanishes on the grid")
    h2 = basis.dom.h**2

    def j_of_t(t: float) -> float:
        tv = t * values
        return t * t * Q - h2 * float(np.sum(h_eval(nl, tv) * tv))

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
