"""Dirichlet eigenbasis of the masked 5-point Laplacian and spectral fields.

The fractional operator is realized spectrally: with (mu_k, phi_k) the
eigenpairs of the negative 5-point Laplacian on the interior nodes (Dirichlet
outside the mask), a grid field u = sum_k b_k phi_k maps to

    (-Delta)^alpha u = sum_k mu_k^alpha b_k phi_k.

Eigenvectors are orthonormal in the quadrature inner product
<u, v> = h^2 sum_i u_i v_i, and their signs are fixed deterministically
(largest-magnitude entry positive, first such entry on ties).

The dense decomposition picks its LAPACK routine by the cut: when the padded
cut is the whole span, divide and conquer (``evd``) computes every pair
faster than ``evr`` does; otherwise ``evr`` computes only the lowest pairs,
which is faster there. Both run in place: LAPACK overwrites the assembled
matrix, ``evd`` returns the eigenvectors in its storage, and phi is the
eigenvector array scaled in place, so the build holds two n x n arrays at
most (``evd`` also takes a 2 n^2 workspace) instead of four. In the full span
the routine changes rounding only; which orthonormal basis of a degenerate
eigenspace is returned does not matter there, since the span is everything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .domain import GridDomain
from .errors import DomainMismatch, EigSolveFailure

DEFAULT_K = 400

# Window half-width and relative gap used by the cluster-safe mode cut.
_CUT_PAD = 8
_CUT_GAP = 1e-8


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


def _cluster_safe_cut(mu_all: np.ndarray, k_req: int, n: int) -> int:
    """Move the mode cut off near-degenerate eigenvalue clusters.

    Cutting inside a numerically degenerate pair makes the retained span
    depend on arbitrary eigensolver choices and breaks exact symmetry
    invariance of projected energies. The cut moves within a small window
    to the position nearest the request with an adequate relative gap.
    """
    m = mu_all.size
    if k_req >= m:
        return m
    lo = max(1, k_req - _CUT_PAD)
    hi = min(m - 1, k_req + _CUT_PAD)
    gaps = {
        k: (mu_all[k] - mu_all[k - 1]) / max(abs(mu_all[k - 1]), 1.0)
        for k in range(lo, hi + 1)
    }
    ok = [k for k, g in gaps.items() if g >= _CUT_GAP]
    if ok:
        return min(ok, key=lambda k: (abs(k - k_req), k))
    return max(gaps, key=lambda k: gaps[k])


@dataclass(frozen=True)
class Field:
    """A grid field together with its spectral coefficients.

    values holds the nodal data as given; coeffs its projection onto the
    retained modes. The two agree when the field lies in the span, as a
    synthesized one does; analyze keeps values as given even when it does not.
    """

    dom: GridDomain
    values: np.ndarray
    coeffs: np.ndarray


class SpectralBasis:
    """Retained eigenpairs of the masked Laplacian plus the fractional weight.

    Attributes
    ----------
    dom : GridDomain
    alpha : fractional order in (0, 1]
    K : number of retained modes (after the cluster-safe cut)
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
        """Project nodal values onto the retained modes."""
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


def assemble_and_decompose(
    dom: GridDomain, K: int | None = None, alpha: float = 0.5
) -> SpectralBasis:
    """Assemble the masked Laplacian and extract the lowest-K eigenpairs.

    K defaults to min(400, node count). The effective cut may differ from the
    request by a few modes to avoid splitting a near-degenerate cluster. The
    routine choice and the in-place build are described in the module
    docstring.
    """
    n = dom.n_interior
    k_req = min(n, DEFAULT_K if K is None else int(K))
    if k_req < 1:
        raise EigSolveFailure(f"K must be >= 1, got {K}")

    A = assemble_laplacian(dom).toarray()
    k_pad = min(n, k_req + _CUT_PAD)
    # A is symmetric, so its transpose is the same matrix in Fortran order,
    # which LAPACK overwrites instead of copying
    if k_pad == n:
        kwargs = {"driver": "evd"}
    else:
        kwargs = {"driver": "evr", "subset_by_index": (0, k_pad - 1)}
    try:
        mu_all, vecs = scipy.linalg.eigh(A.T, overwrite_a=True, **kwargs)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare LAPACK failure
        raise EigSolveFailure(f"dense eigendecomposition failed: {exc}") from exc

    if not np.all(np.isfinite(mu_all)):
        raise EigSolveFailure("eigendecomposition produced non-finite eigenvalues")
    if mu_all[0] <= 0:
        raise EigSolveFailure(
            f"smallest eigenvalue {mu_all[0]} is not positive; mask is not a "
            "proper Dirichlet interior"
        )

    k_eff = _cluster_safe_cut(mu_all, k_req, n)
    mu = mu_all[:k_eff].copy()
    phi = vecs[:, :k_eff]
    phi /= dom.h  # h^2 * phi.T @ phi = I

    # deterministic signs: largest-|entry| positive, first index on ties
    flip = phi[np.abs(phi).argmax(axis=0), np.arange(k_eff)] < 0
    phi[:, flip] *= -1.0

    return SpectralBasis(dom, alpha, mu, phi)

