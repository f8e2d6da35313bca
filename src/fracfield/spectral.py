"""The operator L = (-Delta)^alpha + I of the masked 5-point Laplacian and its inverse.

The fractional operator is realized spectrally: with (mu_k, phi_k) the
eigenpairs of the negative 5-point Laplacian A on the interior nodes
(Dirichlet outside the mask), phi_k orthonormal in the quadrature inner
product <u, v> = h^2 sum_i u_i v_i, a grid field u = sum_k b_k phi_k maps to

    (-Delta)^alpha u = sum_k mu_k^alpha b_k phi_k.

The package reaches it only through two symmetric operators on nodal values:
L = A^alpha + I = h^2 phi W phi^T and its inverse, the Green operator
G = h^2 phi W^-1 phi^T, W = diag(mu^alpha + 1). Every basis spans the whole
interior grid: energies compare across domains only when no mode is cut, and
the comparisons across lambda are what the tasks exist to make. Which
orthonormal basis of a degenerate eigenspace the decomposition returns does
not matter to L and G, which do not depend on it.

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

The eigenvectors are not kept. L and G split over the same frames: with
the frames side by side as one sparse orthogonal Q (one nonzero per row in
each frame, so at most 6 per row), L = Q blockdiag(L_b) Q^T and
G = Q blockdiag(G_b) Q^T, with L_b = h^2 V_b W_b V_b^T and
G_b = h^2 V_b W_b^-1 V_b^T for block b's eigenvectors V_b (1/h folded in).
Right after each block's evd both are accumulated by dsyrk over column
panels of V_b diag(h w_b^(+-1/2)), the pair's once, and V_b is freed. The
basis keeps one nodal vector besides them, s = phi W^-1/2 1, morse's Lanczos
start (model.Energy.pencil). s depends on the eigenvectors' signs, which are
fixed deterministically first (largest-magnitude entry positive, first such
entry on ties). With the swap and both mirrors each block set holds
4 (n/8)^2 + (n/4)^2 = n^2/8 doubles. The build peaks at about a third of
n^2: the blocks built before the pair's, with the pair's block and its
LAPACK workspace, about 3 (n/4)^2, or its V_b, L_b and G_b and a panel. A
dense phi took n^2 more, and one dense ``evd`` of all of A held 3 n^2.

operator and green apply L and G by one dsymv over each block's upper
triangle: a product reads 3 n^2/32 doubles, the pair's block twice.
fixed_operator and fixed_green apply them on the fixed-point subspace of one
mirror: the frames that the mirror labels -1 are skipped, so the product
reads half the blocks and its values are exactly even under the mirror (each
row of such a frame holds the same entries at a node and at its mirror
image). Every frame has one sign under each mirror of the mask; the basis
keeps them as frame_signs (0 for a mirror the mask lacks).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .domain import GridDomain, mask_pairs, mask_symmetries
from .errors import DomainMismatch, EigSolveFailure

# the columns of V_b diag(h w_b^(+-1/2)) that one dsyrk adds to a block
_PANEL = 64

def assemble_laplacian(dom: GridDomain) -> scipy.sparse.csr_matrix:
    """Negative 5-point Laplacian on interior nodes with Dirichlet mask.

    Row i has 4/h^2 on the diagonal and -1/h^2 for each of the up to four
    grid neighbors that are themselves interior; couplings to masked-out
    nodes are dropped, which is the matrix form of the zero boundary value.
    """
    n = dom.n_interior
    inv_h2 = 1.0 / dom.h**2
    # the neighbor pairs, each added symmetrically; the mask's nodes in
    # row-major order are the interior indices
    i, j = mask_pairs(dom.mask)
    rows = np.concatenate([np.arange(n), i, j])
    cols = np.concatenate([np.arange(n), j, i])
    vals = np.concatenate([np.full(n, 4.0 * inv_h2), np.full(2 * i.size, -inv_h2)])
    return scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


@dataclass(frozen=True)
class Field:
    """A grid field: its values at the interior nodes of dom, as floats.

    DomainMismatch when there are not as many values as interior nodes.
    """

    dom: GridDomain
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.dom.n_interior,):
            raise DomainMismatch(
                f"values shape {values.shape} does not match the "
                f"{self.dom.n_interior} interior nodes"
            )
        object.__setattr__(self, "values", values)


class SpectralBasis:
    """The operator L = A^alpha + I and its inverse G on nodal values, in blocks.

    operator and green apply L and G; fixed_operator and fixed_green their
    restrictions to a mirror's fixed-point subspace (module docstring).

    Attributes
    ----------
    dom : GridDomain
    alpha : fractional order in (0, 1]
    K : number of modes, equal to the interior node count
    frame : (n, n) sparse orthogonal Q, one nonzero per row in each frame,
        at most 6 per row
    operator_blocks, green_blocks : the upper triangles of L_b and G_b in
        frame order, square. A frame that is the swap image of the one before
        lists that frame's blocks, the same arrays, so the pair's are held
        once: about n^2/8 doubles per set on a mask with the swap and both
        mirrors
    start : (n,) s = phi W^-1/2 1, the Lanczos start
    frame_signs : (frames, 2) int8, each frame's sign under the x-mirror and
        the y-mirror (generators 0 and 1 of domain.mask_symmetries); 0 where
        the mask lacks that mirror or the frame does not split by it
    """

    def __init__(
        self, dom: GridDomain, alpha: float, frame: scipy.sparse.csr_matrix,
        blocks: list[tuple[np.ndarray, np.ndarray]], start: np.ndarray,
        signs: list[tuple[int, int]],
    ):
        """blocks holds (L_b, G_b) per frame, in frame order; a swap pair's
        two entries are one tuple. signs holds each frame's sign under the
        x-mirror and the y-mirror, in frame order."""
        self.dom = dom
        self.alpha = float(alpha)
        self.frame = frame
        self._frame_t = frame.T.tocsr()
        self.operator_blocks = [L for L, _ in blocks]
        self.green_blocks = [G for _, G in blocks]
        self._bounds = list(itertools.pairwise(np.cumsum([0] + [L.shape[0] for L, _ in blocks])))
        self.K = dom.n_interior
        self.start = start
        self.frame_signs = np.array(signs, dtype=np.int8)
        self._every_frame = np.ones(len(blocks), dtype=bool)

    def operator(self, x: np.ndarray) -> np.ndarray:
        """L @ x, L = A^alpha + I = h^2 phi W phi^T, as Q times the stacked L_b y_b
        with y = Q^T x: one dsymv over each block's upper triangle."""
        return self._apply(self.operator_blocks, x, self._every_frame)

    def green(self, x: np.ndarray) -> np.ndarray:
        """G @ x, G = L^-1 = h^2 phi W^-1 phi^T, block by block as operator."""
        return self._apply(self.green_blocks, x, self._every_frame)

    def fixed_operator(self, x: np.ndarray, mirror: int) -> np.ndarray:
        """L_+ @ x, L restricted to the fixed-point subspace of mirror (a
        generator, as in frame_signs): operator with the blocks of the frames
        it labels -1 left out, so the result is exactly mirror-even."""
        return self._apply(self.operator_blocks, x, self.frame_signs[:, mirror] == 1)

    def fixed_green(self, x: np.ndarray, mirror: int) -> np.ndarray:
        """G_+ @ x, the inverse of L_+ on that subspace, as fixed_operator."""
        return self._apply(self.green_blocks, x, self.frame_signs[:, mirror] == 1)

    def _apply(self, blocks: list[np.ndarray], x: np.ndarray, kept: np.ndarray) -> np.ndarray:
        """Q blockdiag(B_b) Q^T x over the frames kept marks, each kept block's
        dsymv written into its rows of one output; the others stay exact zeros."""
        y = self._frame_t @ x
        out = np.zeros(self.K)
        for B, (lo, hi), keep in zip(blocks, self._bounds, kept):
            if keep:
                scipy.linalg.blas.dsymv(1.0, B, y[lo:hi], y=out[lo:hi], overwrite_y=1)
        return self.frame @ out

    def check_same_domain(self, other_dom: GridDomain) -> None:
        if other_dom.content_hash != self.dom.content_hash:
            raise DomainMismatch(
                f"domain {other_dom.content_hash} does not match basis domain "
                f"{self.dom.content_hash}"
            )


def _weighted_gram(V: np.ndarray, h: float, w: np.ndarray, power: int) -> np.ndarray:
    """The upper triangle of h^2 V W^power V^T, W = diag(w), power +1 or -1.

    Accumulated by dsyrk over column panels of V diag(h w^(power/2)),
    _PANEL columns at a time, so no scaled copy of all of V is made.
    """
    scale = h * np.sqrt(w) if power == 1 else h / np.sqrt(w)
    out = np.zeros(V.shape, order="F")
    for j in range(0, V.shape[1], _PANEL):
        out = scipy.linalg.blas.dsyrk(1.0, V[:, j:j + _PANEL] * scale[j:j + _PANEL], beta=1.0,
                                      c=out, overwrite_c=1)
    return out


def _block_operators(
    mu: np.ndarray, V: np.ndarray, h: float, alpha: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(L_b, G_b, V_b W_b^-1/2 1) of one block from its eigenpairs (mu, V),
    V with 1/h folded in, W_b = diag(mu^alpha + 1); L_b and G_b as upper
    triangles. EigSolveFailure unless every mu is finite and positive."""
    if not np.all(np.isfinite(mu)):
        raise EigSolveFailure("eigendecomposition produced non-finite eigenvalues")
    if mu.min() <= 0:
        raise EigSolveFailure(
            f"smallest eigenvalue {mu.min()} is not positive; mask is not a "
            "proper Dirichlet interior"
        )
    w = mu**alpha + 1.0
    # scipy's BLAS, as every other product of the build: numpy's OpenBLAS
    # has its own thread pool, whose workers spin after a call and slowed
    # the next block's evd by up to 2.5 times under 2 threads
    return (_weighted_gram(V, h, w, 1), _weighted_gram(V, h, w, -1),
            scipy.linalg.blas.dgemv(1.0, V, 1.0 / np.sqrt(w)))


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


def _parity_frames(
    dom: GridDomain,
) -> list[tuple[scipy.sparse.csr_matrix, bool, tuple[int, int]]]:
    """Sparse orthonormal frames Q_b, one per symmetry class of the mask, each
    with whether it shares the block of the frame before it and with the
    class's sign under the x-mirror and the y-mirror (0 for a mirror the mask
    lacks).

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
    sign there. Each frame holds at most one entry in each row. The swap
    exchanges the two mirrors, so the partner's signs are the frame's,
    exchanged.
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
    frames: list[tuple[scipy.sparse.csr_matrix, bool, tuple[int, int]]] = []
    for mirror_signs in itertools.product((1, -1), repeat=len(mirrors)):
        signs = dict(zip(mirrors, mirror_signs))
        label = (signs.get(0, 0), signs.get(1, 0))
        if swap is None or len(set(mirror_signs)) <= 1:
            for split in splits:
                Q = _class_frame(full, signs | split)
                if Q is not None:
                    frames.append((Q, False, label))
        elif signs[0] == 1:  # even in x; its swap image is the class odd in x
            Q = _class_frame(group, signs)
            if Q is not None:
                frames += [(Q, False, label), (Q[swap], True, label[::-1])]
    return frames


def assemble_and_decompose(dom: GridDomain, alpha: float = 0.5) -> SpectralBasis:
    """Assemble the masked Laplacian, decompose it block by block and keep L and G.

    The symmetry-blocked build is described in the module docstring.
    """
    if not 0.0 < alpha <= 1.0:
        raise EigSolveFailure(f"alpha must be in (0, 1], got {alpha}")
    A = assemble_laplacian(dom)
    frames = _parity_frames(dom)
    blocks, starts = [], []
    for Q, shared, _ in frames:
        if shared:  # the swap image of the frame before: the same blocks, held once
            blocks.append(blocks[-1])
            starts.append(starts[-1])
            continue
        # Fortran order, so LAPACK overwrites the block instead of copying it
        try:
            mu_b, V = scipy.linalg.eigh((Q.T @ A @ Q).toarray(order="F"), overwrite_a=True,
                                        driver="evd")
        except scipy.linalg.LinAlgError as exc:  # pragma: no cover - rare LAPACK failure
            raise EigSolveFailure(f"dense eigendecomposition failed: {exc}") from exc
        V /= dom.h  # h^2 * phi.T @ phi = I
        # s depends on the eigenvectors' signs: each mode's largest |entry|
        # is made positive, first index on ties. Q holds one
        # entry in each row it covers, so phi's entries are the products q v.
        # All nodes of an orbit carry one magnitude w and its first node a
        # plus sign, and the columns follow those first nodes, so the rule
        # reads off |w V|, which holds phi's magnitudes bit for bit. The swap
        # image of Q has the same w and maps first nodes onto first nodes,
        # so the rule holds for its modes too
        w = np.empty(Q.shape[1])
        w[Q.indices] = np.abs(Q.data)
        peak = np.abs(V * w[:, None]).argmax(axis=0)
        V *= np.where(V[peak, np.arange(mu_b.size)] < 0, -1.0, 1.0)
        L, G, s = _block_operators(mu_b, V, dom.h, alpha)
        del V  # before the next block's evd: the basis keeps no eigenvectors
        blocks.append((L, G))
        starts.append(s)
    frame = scipy.sparse.hstack([Q for Q, *_ in frames], format="csr")
    return SpectralBasis(dom, alpha, frame, blocks, frame @ np.concatenate(starts),
                         [label for *_, label in frames])
