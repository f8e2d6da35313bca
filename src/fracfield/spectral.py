"""Dirichlet eigenbasis of the masked 5-point Laplacian and spectral fields.

The fractional operator is realized spectrally: with (mu_k, phi_k) the
eigenpairs of the negative 5-point Laplacian on the interior nodes (Dirichlet
outside the mask), a grid field u = sum_k b_k phi_k maps to

    (-Delta)^alpha u = sum_k mu_k^alpha b_k phi_k.

Eigenvectors are orthonormal in the quadrature inner product
<u, v> = h^2 sum_i u_i v_i, and their signs are fixed deterministically
(largest-magnitude entry positive, first such entry on ties).

Every basis spans the whole interior grid: energies compare across domains
only when no mode is cut, and the comparisons across lambda are what the
tasks exist to make. The dense decomposition uses LAPACK's divide and
conquer routine (``evd``) in place: LAPACK overwrites the assembled matrix
and returns the eigenvectors in its storage, and phi is that array scaled in
place, so the build holds two n x n arrays at most (``evd`` also takes a
2 n^2 workspace) instead of four. Which orthonormal basis of a degenerate
eigenspace comes back does not matter, since the span is everything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .domain import GridDomain
from .errors import DomainMismatch, EigSolveFailure


def assemble_laplacian(dom: GridDomain) -> scipy.sparse.csr_matrix:
    """Negative 5-point Laplacian on interior nodes with Dirichlet mask.

    Row i has 4/h^2 on the diagonal and -1/h^2 for each of the up to four
    grid neighbors that are themselves interior; couplings to masked-out
    nodes are dropped, which is the matrix form of the zero boundary value.
    """
    n = dom.n_interior
    inv_h2 = 1.0 / dom.h**2
    idx = dom.index_of
    m = dom.mask

    rows = [np.arange(n)]
    cols = [np.arange(n)]
    vals = [np.full(n, 4.0 * inv_h2)]
    # horizontal and vertical neighbor pairs, each added symmetrically
    pairs_h = m[:, :-1] & m[:, 1:]
    pairs_v = m[:-1, :] & m[1:, :]
    for i, j in (
        (idx[:, :-1][pairs_h], idx[:, 1:][pairs_h]),
        (idx[:-1, :][pairs_v], idx[1:, :][pairs_v]),
    ):
        rows.extend([i, j])
        cols.extend([j, i])
        vals.extend([np.full(i.size, -inv_h2), np.full(i.size, -inv_h2)])

    A = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    )
    return A.tocsr()


@dataclass(frozen=True)
class Field:
    """A grid field together with its spectral coefficients.

    values holds the nodal data as given; coeffs its projection onto the
    modes. The span is the whole grid, so the two always agree to rounding.
    """

    dom: GridDomain
    values: np.ndarray
    coeffs: np.ndarray


class SpectralBasis:
    """All eigenpairs of the masked Laplacian plus the fractional weight.

    Attributes
    ----------
    dom : GridDomain
    alpha : fractional order in (0, 1]
    K : number of modes, equal to the interior node count
    mu : (K,) eigenvalues, ascending, all positive
    phi : (n, K) eigenvectors, orthonormal in the h^2-weighted inner product
    weights : (K,) mu^alpha + 1, the diagonal of the quadratic-form operator
    """

    def __init__(self, dom: GridDomain, alpha: float, mu: np.ndarray, phi: np.ndarray):
        if not 0.0 < alpha <= 1.0:
            raise EigSolveFailure(f"alpha must be in (0, 1], got {alpha}")
        self.dom = dom
        self.alpha = float(alpha)
        self.mu = mu
        self.phi = phi
        self.K = int(mu.size)
        self.weights = mu**alpha + 1.0
        self._h2 = dom.h**2

    def check_same_domain(self, other_dom: GridDomain) -> None:
        if other_dom.content_hash != self.dom.content_hash:
            raise DomainMismatch(
                f"domain {other_dom.content_hash} does not match basis domain "
                f"{self.dom.content_hash}"
            )

    def analyze(self, values: np.ndarray) -> Field:
        """Project nodal values onto the modes."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.dom.n_interior,):
            raise DomainMismatch(
                f"values shape {values.shape} does not match the "
                f"{self.dom.n_interior} interior nodes"
            )
        return Field(self.dom, values, self._h2 * (self.phi.T @ values))

    def synthesize(self, coeffs: np.ndarray) -> Field:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.K,):
            raise DomainMismatch(
                f"coefficient shape {coeffs.shape} does not match K={self.K}"
            )
        return Field(self.dom, self.phi @ coeffs, coeffs)


def assemble_and_decompose(dom: GridDomain, alpha: float = 0.5) -> SpectralBasis:
    """Assemble the masked Laplacian and decompose it over the full span.

    The in-place build is described in the module docstring.
    """
    # A is symmetric, so its transpose is the same matrix in Fortran order,
    # which LAPACK overwrites instead of copying
    A = assemble_laplacian(dom).toarray()
    try:
        mu, phi = scipy.linalg.eigh(A.T, overwrite_a=True, driver="evd")
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare LAPACK failure
        raise EigSolveFailure(f"dense eigendecomposition failed: {exc}") from exc

    if not np.all(np.isfinite(mu)):
        raise EigSolveFailure("eigendecomposition produced non-finite eigenvalues")
    if mu[0] <= 0:
        raise EigSolveFailure(
            f"smallest eigenvalue {mu[0]} is not positive; mask is not a "
            "proper Dirichlet interior"
        )

    phi /= dom.h  # h^2 * phi.T @ phi = I

    # deterministic signs: largest-|entry| positive, first index on ties
    flip = phi[np.abs(phi).argmax(axis=0), np.arange(mu.size)] < 0
    phi[:, flip] *= -1.0

    return SpectralBasis(dom, alpha, mu, phi)
