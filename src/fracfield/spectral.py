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
tasks exist to make. Which orthonormal basis of a degenerate eigenspace comes
back does not matter, since the span is everything.

The dense decomposition is split by the grid symmetries of the mask, which
domain.mask_symmetries lists with the generators composing each. The
axis mirrors x -> -x and y -> -y and the swap (x, y) -> (y, x) preserve the
mask of every disk and annulus, and of a square whose sides h divides; the
mirrors alone preserve that of such a rectangle. The 5-point Laplacian
commutes with each symmetry that preserves the mask. In a frame of signed,
normalized sums over symmetry orbits, A therefore splits exactly into one
block per symmetry class (Bossavit, CMAME 1986; Fassler-Stiefel, Group
Theoretical Methods and Their Applications, 1992):

* the mirrors alone: 4 classes, one sign per mirror, over orbits of at most
  4 nodes; one mirror gives 2 and none a single block in the identity frame;
* with the swap: the two classes with equal mirror signs split by swap
  parity, 4 blocks of about n/8 over orbits of at most 8 nodes. The class
  odd in x and even in y and the class even in x and odd in y are mapped
  onto each other by the swap, the pair that D4's two-dimensional
  representation E carries. The second frame is the first with its rows
  permuted by the swap, so both have one block of about n/4, decomposed and
  held once.

Each block goes through LAPACK's divide and conquer routine (``evd``) in
place. With the swap and both mirrors that is 4 (n/8)^3 + (n/4)^3 =
3 n^3/128 of dense work, about 43 times less than one decomposition of A.

The n x n matrix phi of eigenvectors is never formed. The basis keeps its
factors: the frames side by side as one sparse orthogonal Q (one nonzero
per row in each frame, so at most 6 per row), each block's eigenvectors V_b
(the shared one listed for both frames of the pair) and the permutation from
ascending order to block order. phi c is Q times the stacked V_b c_b, and
phi^T x the reverse; the pair's V is applied to its two slices as two
products. With the swap and both mirrors the blocks hold 4 (n/8)^2 +
(n/4)^2 = n^2/8 doubles, and a product reads 3 n^2/16 of them, the pair's
twice, against n^2/4 held and read with the mirrors alone. The build
peaks at about 0.22 n^2: the two blocks built before the pair, n^2/32, and
the pair's block with its LAPACK workspace, about 3 (n/4)^2. A dense phi
took n^2 more, and one dense ``evd`` of all of A held 3 n^2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .domain import GridDomain, mask_symmetries
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

    phi, the n x K matrix of eigenvectors, is kept as its factors (module
    docstring) and applied by matvec and rmatvec.

    Attributes
    ----------
    dom : GridDomain
    alpha : fractional order in (0, 1]
    K : number of modes, equal to the interior node count
    mu : (K,) eigenvalues, ascending, all positive
    weights : (K,) mu^alpha + 1, the diagonal of the quadratic-form operator
    frame : (n, n) sparse orthogonal Q, one nonzero per row in each frame,
        at most 6 per row
    blocks : the V_b in frame order, square, with 1/h folded in, so that phi
        is orthonormal in the h^2-weighted inner product. A frame that is the
        swap image of the one before lists that frame's V_b, the same array,
        so the pair's eigenvectors are held once: about n^2/8 doubles in all
        on a mask with the swap and both mirrors
    order : (K,) for each mode in ascending order, its index in block order
    """

    def __init__(
        self, dom: GridDomain, alpha: float, frame: scipy.sparse.csr_matrix,
        blocks: list[tuple[np.ndarray, np.ndarray]],
    ):
        """blocks holds (mu_b, V_b) per frame, in frame order; a swap pair's
        two entries are one tuple."""
        if not 0.0 < alpha <= 1.0:
            raise EigSolveFailure(f"alpha must be in (0, 1], got {alpha}")
        self.dom = dom
        self.alpha = float(alpha)
        self.frame = frame
        self._frame_t = frame.T.tocsr()
        self.blocks = [V for _, V in blocks]
        self._bounds = list(itertools.pairwise(np.cumsum([0] + [V.shape[0] for V in self.blocks])))
        mu = np.concatenate([mu_b for mu_b, _ in blocks])
        self.order = np.argsort(mu, kind="stable")
        self._position = np.argsort(self.order)  # the inverse permutation
        self.mu = mu[self.order]
        self.K = int(self.mu.size)
        self.weights = self.mu**alpha + 1.0
        self._h2 = dom.h**2

    def matvec(self, c: np.ndarray) -> np.ndarray:
        """phi @ c, as Q times the stacked V_b c_b, c_b being block b's share of c."""
        cb = c[self._position]
        return self.frame @ np.concatenate(
            [V @ cb[lo:hi] for V, (lo, hi) in zip(self.blocks, self._bounds)])

    def rmatvec(self, x: np.ndarray) -> np.ndarray:
        """phi.T @ x, as the stacked V_b^T y_b with y = Q^T x, put in ascending order."""
        y = self._frame_t @ x
        return np.concatenate(
            [V.T @ y[lo:hi] for V, (lo, hi) in zip(self.blocks, self._bounds)])[self.order]

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
        return Field(self.dom, values, self._h2 * self.rmatvec(values))

    def synthesize(self, coeffs: np.ndarray) -> Field:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.K,):
            raise DomainMismatch(
                f"coefficient shape {coeffs.shape} does not match K={self.K}"
            )
        return Field(self.dom, self.matvec(coeffs), coeffs)


def _class_frame(group: list[tuple[np.ndarray, tuple[int, ...]]],
                 signs: dict[int, int]) -> scipy.sparse.csr_matrix | None:
    """Sparse orthonormal frame of one symmetry class over the orbits of group.

    group lists each element as a permutation with the generators composing
    it, and signs gives the class's sign per generator, so that an element's
    sign is the product over the generators composing it. A column for an
    orbit weights each node i by the summed signs of the elements that map i
    onto the orbit's smallest index, normalized. Those are the inverses of the
    elements that map the smallest index onto i, with the same signs. Every
    node of an orbit thus carries one magnitude, the smallest index a plus
    sign, and a column that sums to zero is dropped. Columns follow their
    orbit's smallest index. None when every column is dropped.
    """
    n = group[0][0].size
    rep = np.min([p for p, _ in group], axis=0)
    orbit = np.unique(rep, return_inverse=True)[1]
    coef = sum(math.prod(signs[j] for j in used) * (p == rep) for p, used in group)
    nodes = np.flatnonzero(coef)
    if nodes.size == 0:
        return None
    kept, col = np.unique(orbit[nodes], return_inverse=True)
    norm = np.sqrt(np.bincount(col, weights=coef[nodes] ** 2.0))
    return scipy.sparse.csr_matrix(
        (coef[nodes] / norm[col], (nodes, col)), shape=(n, kept.size))


def _parity_frames(dom: GridDomain) -> list[tuple[scipy.sparse.csr_matrix, bool]]:
    """Sparse orthonormal frames Q_b, one per symmetry class of the mask, each
    with whether it shares the block of the frame before it.

    The symmetries are the axis mirrors ix -> nx-1-ix and iy -> ny-1-iy and
    the swap (ix, iy) -> (iy, ix) that preserve the mask, and the group they
    make, all read from domain.mask_symmetries. Without the swap, k mirrors
    give 2^k classes, one sign per mirror, over orbits of at most 4 nodes. With the swap, a class the swap maps onto itself (both mirror signs
    equal, or no mirror at all) splits by swap parity, over orbits of at most
    8 nodes. The class odd in one mirror and even in the other is mapped onto
    its partner: its frame is built over the mirror orbits, and the partner's
    frame is that frame with its rows permuted by the swap. As A commutes
    with the swap, the two have the same block Q^T A Q, so the partner
    shares it. The swap maps each mirror orbit's smallest index onto the
    smallest index of the image orbit, so the partner's columns keep a plus
    sign there. Each frame holds at most one entry in each row.
    """
    elements = mask_symmetries(dom)
    generators = {used[0]: p for p, used in elements if len(used) == 1}
    # the group the mask's generators make (its whole D4, or less), and the
    # mirrors' subgroup within it
    full = [(p, used) for p, used in elements if set(used) <= generators.keys()]
    group = [(p, used) for p, used in full if 2 not in used]
    mirrors = sorted(generators.keys() - {2})
    swap = generators.get(2)
    splits = [{}] if swap is None else [{2: 1}, {2: -1}]
    frames: list[tuple[scipy.sparse.csr_matrix, bool]] = []
    for mirror_signs in itertools.product((1, -1), repeat=len(mirrors)):
        signs = dict(zip(mirrors, mirror_signs))
        if swap is None or len(set(mirror_signs)) <= 1:
            for split in splits:
                Q = _class_frame(full, signs | split)
                if Q is not None:
                    frames.append((Q, False))
        elif signs[0] == 1:  # even in x; its swap image is the class odd in x
            Q = _class_frame(group, signs)
            if Q is not None:
                frames += [(Q, False), (Q[swap], True)]
    return frames


def assemble_and_decompose(dom: GridDomain, alpha: float = 0.5) -> SpectralBasis:
    """Assemble the masked Laplacian and decompose it over the full span.

    The symmetry-blocked build is described in the module docstring.
    """
    A = assemble_laplacian(dom)
    frames = _parity_frames(dom)
    blocks = []
    for Q, shared in frames:
        if shared:  # the swap image of the frame before: the same block, held once
            blocks.append(blocks[-1])
            continue
        # Fortran order, so LAPACK overwrites the block instead of copying it
        B = (Q.T @ A @ Q).toarray(order="F")
        try:
            mu_b, V = scipy.linalg.eigh(B, overwrite_a=True, driver="evd")
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare LAPACK failure
            raise EigSolveFailure(f"dense eigendecomposition failed: {exc}") from exc
        V /= dom.h  # h^2 * phi.T @ phi = I
        # Q holds one entry in each row it covers, so phi's entries are the
        # products q v. All nodes of an orbit carry one magnitude w and its
        # first node a plus sign, and the columns follow those first nodes,
        # so the sign rule (largest |entry| positive, first index on ties)
        # reads off |w V|, which holds phi's magnitudes bit for bit. The
        # swap image of Q has the same w and maps first nodes onto first
        # nodes, so the rule holds for its modes too
        w = np.empty(Q.shape[1])
        w[Q.indices] = np.abs(Q.data)
        peak = np.abs(V * w[:, None]).argmax(axis=0)
        V *= np.where(V[peak, np.arange(mu_b.size)] < 0, -1.0, 1.0)
        blocks.append((mu_b, V))

    basis = SpectralBasis(dom, alpha, scipy.sparse.hstack([Q for Q, _ in frames], format="csr"),
                          blocks)
    if not np.all(np.isfinite(basis.mu)):
        raise EigSolveFailure("eigendecomposition produced non-finite eigenvalues")
    if basis.mu[0] <= 0:
        raise EigSolveFailure(
            f"smallest eigenvalue {basis.mu[0]} is not positive; mask is not a "
            "proper Dirichlet interior"
        )
    return basis
